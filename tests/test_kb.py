"""KB, alias index, candidate generation, and prior baseline tests."""
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrclink.errors import InputFormatError
from mrclink.kb import (
    NIL,
    NIL_DESCRIPTION,
    Entity,
    KnowledgeBase,
    build_index,
    generate_candidates,
    load_kb,
    normalize_surface,
    prior_baseline,
    save_kb,
)


def normalize_oracle(s: str) -> str:
    """Independent straightforward reimplementation: char loop, applied to a fixpoint."""
    prev = s
    for _ in range(4):
        folded = unicodedata.normalize("NFKC", prev).casefold()
        out = []
        pending_space = False
        for ch in folded:
            if ch.isspace():
                pending_space = bool(out)
            else:
                if pending_space:
                    out.append(" ")
                    pending_space = False
                out.append(ch)
        cur = "".join(out)
        if cur == prev:
            break
        prev = cur
    return prev


def make_kb(rows):
    return KnowledgeBase(
        Entity(id=i, canonical_name=n, description="", aliases=tuple(a), popularity=p)
        for i, n, a, p in rows
    )


class TestNormalize:
    def test_case_and_whitespace_folding(self):
        assert normalize_surface("Li  Na ") == "li na"

    def test_empty_is_fixed_point(self):
        assert normalize_surface("") == ""

    def test_nfkc(self):
        assert normalize_surface("ﬁsh Ｆood") == "fish food"

    @settings(max_examples=300, derandomize=True)
    @given(st.text(max_size=40))
    def test_idempotent_and_matches_oracle(self, s):
        once = normalize_surface(s)
        assert normalize_surface(once) == once
        assert once == normalize_oracle(s)

    def test_thousand_random_strings_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(0, 20))
            s = "".join(chr(int(c)) for c in rng.integers(1, 0x2FFF, size=n))
            expect = normalize_oracle(s)
            assert normalize_surface(s) == expect
            assert normalize_surface(expect) == expect


def lookup(index, surface):
    """(entity id, popularity) pairs of ``lookup_entities``, best candidate first."""
    return [(e.id, e.popularity) for e in index.lookup_entities(surface)]


class TestBuildIndex:
    def test_sorted_by_popularity(self):
        kb = make_kb([
            ("e_a", "Li Na", ["Li Na"], 100),
            ("e_b", "Li Na (singer)", ["Li Na"], 90),
        ])
        index = build_index(kb)
        assert lookup(index, "li na") == [("e_a", 100), ("e_b", 90)]

    def test_normalization_collapses_aliases(self):
        kb = make_kb([("e1", "X", ["X", "x "], 3)])
        index = build_index(kb)
        # both aliases normalize to "x", which holds the entity once
        for surface in ("X", "x ", "x"):
            assert lookup(index, surface) == [("e1", 3)]

    def test_popularity_tie_breaks_by_id(self):
        kb = make_kb([("b", "s", ["s"], 5), ("a", "s", ["s"], 5)])
        assert lookup(build_index(kb), "s") == [("a", 5), ("b", 5)]

    def test_duplicate_entity_id_rejected(self):
        with pytest.raises(InputFormatError):
            make_kb([("e1", "a", ["a"], 1), ("e1", "b", ["b"], 2)])

    @pytest.mark.parametrize("entities", [[(NIL, "a", ["a"], 1)], [("e1", "a", ["a"], 1), (NIL, "nil", ["nil"], 0)]])
    def test_reserved_nil_id_rejected(self, entities):
        # an entity named NIL would collide with the NIL option of every candidate set
        with pytest.raises(InputFormatError, match="reserved"):
            make_kb(entities)

    def test_random_kb_matches_brute_force(self):
        rng = np.random.default_rng(11)
        kb, surfaces = _random_kb(rng, n_entities=500)
        index = build_index(kb)
        for alias in surfaces:
            assert lookup(index, alias) == _brute_force_lookup(kb, alias)


def _random_kb(rng, n_entities):
    surfaces = [f"s{int(i)}" for i in rng.integers(0, max(3, n_entities // 3), size=n_entities)]
    rows = []
    for i in range(n_entities):
        own = surfaces[int(rng.integers(0, n_entities))]
        aliases = [surfaces[i]] + ([own] if rng.random() < 0.5 else [])
        rows.append((f"e{i:04d}", aliases[0], aliases, int(rng.integers(0, 50))))
    return make_kb(rows), sorted(set(surfaces))


def _brute_force_lookup(kb, surface):
    key = normalize_surface(surface)
    hits = {}
    for ent in kb:
        if any(normalize_surface(a) == key for a in ent.aliases):
            hits[ent.id] = ent.popularity
    return sorted(hits.items(), key=lambda kv: (-kv[1], kv[0]))


class TestGenerateCandidates:
    def setup_method(self):
        pops = [100, 90, 50, 40, 10, 5]
        self.kb = make_kb([(f"e{i}", "apple", ["apple"], p) for i, p in enumerate(pops)])
        self.index = build_index(self.kb)

    def test_top_k_by_popularity(self):
        cands = generate_candidates(self.index, "apple", k=5, with_nil=False)
        assert cands.option_ids == ("e0", "e1", "e2", "e3", "e4")

    def test_nil_option_appended_last(self):
        cands = generate_candidates(self.index, "apple", k=2, with_nil=True)
        assert cands.option_ids == ("e0", "e1", NIL)
        assert cands.options[-1].description == NIL_DESCRIPTION
        assert cands.nil_index == 2

    def test_unknown_surface_gives_only_nil(self):
        cands = generate_candidates(self.index, "unknown", k=5, with_nil=True)
        assert cands.option_ids == (NIL,)
        cands = generate_candidates(self.index, "unknown", k=5, with_nil=False)
        assert cands.option_ids == ()

    def test_monotone_pruning(self):
        for k in range(1, 7):
            small = generate_candidates(self.index, "apple", k=k, with_nil=False)
            big = generate_candidates(self.index, "apple", k=k + 1, with_nil=False)
            assert big.option_ids[: len(small.option_ids)] == small.option_ids

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_candidates(self.index, "apple", k=0)


class TestPriorBaseline:
    def test_single_candidate_probability_one(self):
        index = build_index(make_kb([("e1", "solo", ["solo"], 7)]))
        assert prior_baseline(index, "solo") == ("e1", 1.0)

    def test_direct_ratio(self):
        index = build_index(make_kb([("e1", "s", ["s"], 3), ("e2", "s", ["s"], 1)]))
        entity, p = prior_baseline(index, "s")
        assert entity == "e1"
        assert p == pytest.approx(0.75)

    def test_unknown_surface_is_nil(self):
        index = build_index(make_kb([("e1", "a", ["a"], 1)]))
        assert prior_baseline(index, "zzz") == (NIL, 0.0)

    def test_random_mentions_match_brute_force(self):
        rng = np.random.default_rng(3)
        kb, surfaces = _random_kb(rng, n_entities=200)
        index = build_index(kb)
        for _ in range(100):
            surface = surfaces[int(rng.integers(0, len(surfaces)))]
            got_id, got_p = prior_baseline(index, surface)
            hits = _brute_force_lookup(kb, surface)
            if not hits:
                assert (got_id, got_p) == (NIL, 0.0)
                continue
            total = sum(p for _, p in hits)
            assert got_id == hits[0][0]
            expect = hits[0][1] / total if total else 0.0
            assert got_p == pytest.approx(expect, abs=1e-12)

    def test_probabilities_sum_to_one_over_alias(self):
        rng = np.random.default_rng(5)
        kb, surfaces = _random_kb(rng, n_entities=120)
        index = build_index(kb)
        for surface in surfaces:
            hits = lookup(index, surface)
            total = sum(p for _, p in hits)
            if not hits or total == 0:
                continue
            assert sum(p / total for _, p in hits) == pytest.approx(1.0, abs=1e-12)


class TestEntityAndIO:
    def test_aliases_default_to_canonical_name(self):
        ent = Entity(id="e", canonical_name="Some Name")
        assert ent.aliases == ("Some Name",)

    def test_negative_popularity_rejected(self):
        with pytest.raises(InputFormatError):
            Entity(id="e", canonical_name="n", popularity=-1)

    def test_kb_file_round_trip(self, tmp_path):
        kb = make_kb([
            ("e1", "Alpha", ["Alpha", "al"], 10),
            ("e2", "李娜", ["李娜", "Li Na"], 3),
        ])
        path = tmp_path / "kb.jsonl"
        save_kb(kb, str(path))
        back = load_kb(str(path))
        assert [e for e in back] == [e for e in kb]

    def test_bad_kb_record_raises(self, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text('{"id": "e1"}\n', encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_kb(str(path))

    @pytest.mark.parametrize("aliases", ['"xyz"', '{"x": 1}', "3"])
    def test_aliases_that_are_not_a_list_rejected(self, aliases, tmp_path):
        path = tmp_path / "kb.jsonl"
        path.write_text(f'{{"id": "e1", "name": "n", "aliases": {aliases}}}\n', encoding="utf-8")
        with pytest.raises(InputFormatError, match=r":1: bad KB record: aliases must be a list"):
            load_kb(str(path))
