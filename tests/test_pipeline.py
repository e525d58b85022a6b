"""Rear fusion, end-to-end linking, evaluation, and synthetic world tests."""
import json
import re

import numpy as np
import pytest

from mrclink.config import EncoderSettings, RunConfig
from mrclink.corpus import MASK, AnnotatedText, Mention, build_query, tokenize
from mrclink.encoder import EncoderConfig
from mrclink.errors import InputFormatError, SequenceOverflowError
from mrclink.kb import NIL, Entity, KnowledgeBase, build_index, generate_candidates, prior_baseline
from mrclink.local import LocalModel, build_vocabulary
from mrclink.multiturn import GlobalModel
from mrclink.pipeline import (
    LinkDecision,
    evaluate,
    link_corpus,
    link_text,
    load_decisions,
    rear_fusion,
    save_decisions,
)
from mrclink.synth import SynthSpec, generate_synthetic_world
from test_checkpoint import _mutate


class TestRearFusion:
    # Reference per-turn score columns and their rounded convex combinations.
    ROWS = [
        (0.08, 0.08, 0.08),
        (0.91, 0.89, 0.90),
        (0.28, 0.59, 0.44),
        (0.63, 0.08, 0.36),
        (0.07, 0.01, 0.04),
        (0.54, 0.97, 0.76),
        (0.30, 0.17, 0.24),
        (0.21, 0.47, 0.34),
        (0.33, 0.20, 0.27),
    ]

    def test_reference_rows_reproduced_within_rounding(self):
        for local, glob, final in self.ROWS:
            fused = rear_fusion(np.array([local]), np.array([glob]), 0.5)
            assert abs(fused[0] - final) <= 0.005 + 1e-12

    def test_beta_one_is_local(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(5), rng.random(5)
        np.testing.assert_array_equal(rear_fusion(a, b, 1.0), a)

    def test_beta_zero_is_global(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(5), rng.random(5)
        np.testing.assert_array_equal(rear_fusion(a, b, 0.0), b)

    def test_argmax_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.random(6), rng.random(6)
            assert np.argmax(rear_fusion(a, b, 1.0)) == np.argmax(a)
            assert np.argmax(rear_fusion(a, b, 0.0)) == np.argmax(b)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.random(4)
            a /= a.sum()
            b = rng.random(4)
            b /= b.sum()
            fused = rear_fusion(a, b, 0.5)
            assert abs(fused.sum() - 1.0) < 1e-9

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rear_fusion(np.zeros(3), np.zeros(4), 0.5)


def pipeline_world():
    entities = [
        Entity("e1", "alpha sport", "alpha sport ball game", ("alpha sport", "alpha"), 30),
        Entity("e2", "alpha music", "alpha music song tune", ("alpha music", "alpha"), 20),
        Entity("e3", "beta sport", "beta sport ball game", ("beta sport", "beta"), 10),
    ]
    kb = KnowledgeBase(entities)
    corpus = [
        AnnotatedText(
            "alpha meets beta here",
            (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3")),
        ),
        AnnotatedText("beta kicks ball game", (Mention(0, 4, "beta", "e3"),)),
        AnnotatedText("no mentions at all", ()),
    ]
    cfg = RunConfig(
        seed=0,
        encoder=EncoderSettings(d=8, n_layers=1, n_heads=2),
        max_len_local=32,
        max_len_global=32,
    )
    vocab = build_vocabulary(corpus, kb)
    config = EncoderConfig(vocab_size=len(vocab), max_len=32, d=8, n_layers=1, n_heads=2, seed=0)
    local = LocalModel.init(config, vocab)
    glob = GlobalModel.from_local(local)
    return kb, corpus, cfg, local, glob


class TestLinkText:
    def test_zero_mentions_give_empty_decisions(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        index = build_index(kb)
        assert link_text(corpus[2], index, local, glob, cfg) == []

    def test_single_mention_has_local_decision_only(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        index = build_index(kb)
        decisions = link_text(corpus[1], index, local, glob, cfg)
        assert len(decisions) == 1
        dec = decisions[0]
        assert dec.global_probs is None and dec.fused_probs is None
        assert dec.selected in dec.candidate_ids

    def test_first_turn_has_no_fused_column(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        index = build_index(kb)
        decisions = link_text(corpus[0], index, local, glob, cfg)
        first = [d for d in decisions if d.rank == 0]
        others = [d for d in decisions if d.rank > 0]
        assert len(first) == 1 and first[0].fused_probs is None
        for dec in others:
            assert dec.global_probs is not None and dec.fused_probs is not None
            expect = 0.5 * dec.local_probs + 0.5 * dec.global_probs
            np.testing.assert_allclose(dec.fused_probs, expect, atol=1e-12)

    def test_decisions_come_back_in_text_order(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        index = build_index(kb)
        decisions = link_text(corpus[0], index, local, glob, cfg)
        assert [d.mention for d in decisions] == list(corpus[0].mentions)

    def test_without_global_model_every_decision_is_local(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        index = build_index(kb)
        decisions = link_text(corpus[0], index, local, None, cfg)
        assert all(d.global_probs is None for d in decisions)


class TestKbTokenMemo:
    def test_memo_holds_candidate_strings_only(self):
        world = generate_synthetic_world(SynthSpec(n_entities=80, n_train_texts=20, n_test_texts=50, seed=7))
        texts = world.test
        vocab = build_vocabulary(world.train, world.kb)
        config = EncoderConfig(vocab_size=len(vocab), max_len=48, d=8, n_layers=1, n_heads=2, seed=0)
        local = LocalModel.init(config, vocab)
        glob = GlobalModel.from_local(local, max_len=64)
        cfg = RunConfig(encoder=EncoderSettings(d=8, n_layers=1, n_heads=2), max_len_local=48, max_len_global=64)
        index = build_index(world.kb)
        for text in texts:
            link_text(text, index, local, glob, cfg)

        seen = {
            s
            for text in texts
            for m in text.mentions
            for e in generate_candidates(index, m.surface, cfg.k).options
            for s in (e.description, e.canonical_name)
        }
        queries = {build_query(text, m) for text in texts for m in text.mentions}
        memo = vocab._kb_ids
        assert len(texts) == 50 and memo
        assert memo.keys() <= seen
        assert not any(MASK in s for s in memo) and not memo.keys() & queries
        assert all(ids == tuple(tokenize(s, vocab)) for s, ids in memo.items())


class TestLinkCorpus:
    def test_overlong_text_is_reported_and_the_rest_linked(self):
        kb, corpus, cfg, local, glob = pipeline_world()
        words = ["alpha"] + ["filler"] * 80  # 81 query tokens for max_len_local 32
        long_text = AnnotatedText(" ".join(words), (Mention(0, 5, "alpha", "e1"),))
        decisions, errors = link_corpus([long_text] + corpus, kb, local, glob, cfg)
        assert len(decisions) == 4 and decisions[0] == []
        assert len(errors) == 1
        index, error = errors[0]
        assert index == 0 and isinstance(error, SequenceOverflowError)
        index = build_index(kb)
        for text, decs in zip(corpus, decisions[1:]):
            want = link_text(text, index, local, glob, cfg)
            assert [d.mention for d in decs] == list(text.mentions)
            assert [d.selected for d in decs] == [d.selected for d in want]
            for got, expect in zip(decs, want):
                assert got.local_probs.tobytes() == expect.local_probs.tobytes()


    def test_texts_are_independent_of_corpus_order(self):
        """A text's decisions are ``link_text`` on that text alone, bitwise,
        wherever it sits in the corpus; an over-long text's error names its
        own index and leaves the other texts as they are."""
        world = generate_synthetic_world(SynthSpec(n_entities=80, n_train_texts=40, n_test_texts=20, seed=5))
        vocab = build_vocabulary(world.train, world.kb)
        config = EncoderConfig(vocab_size=len(vocab), max_len=48, d=8, n_layers=1, n_heads=2, seed=3)
        local = LocalModel.init(config, vocab)
        glob = GlobalModel.from_local(local, max_len=64)
        cfg = RunConfig(encoder=EncoderSettings(d=8, n_layers=1, n_heads=2), max_len_local=48, max_len_global=64)
        surface = world.test[0].mentions[0].surface
        long_text = AnnotatedText(" ".join([surface] + ["filler"] * 60), (Mention(0, len(surface), surface),))
        texts = world.test[:6] + [long_text] + world.test[6:]
        assert sum(len(t.mentions) > 1 for t in texts) >= 3
        index = build_index(world.kb)
        alone = [None if t is long_text else records(link_text(t, index, local, glob, cfg)) for t in texts]
        for order in (np.arange(len(texts)), np.random.default_rng(13).permutation(len(texts))):
            decisions, errors = link_corpus([texts[i] for i in order], world.kb, local, glob, cfg)
            at = int(np.flatnonzero(order == 6)[0])
            assert [(i, type(e)) for i, e in errors] == [(at, SequenceOverflowError)]
            for pos, i in enumerate(order):
                assert records(decisions[pos]) == (alone[i] or [])


def records(decisions):
    """The decision records of one text, their floats written exactly."""
    return [json.dumps(d.to_record(0)) for d in decisions]


def fake_decisions(corpus, selections):
    out = []
    for text, sels in zip(corpus, selections):
        decs = []
        for m, sel in zip(text.mentions, sels):
            decs.append(
                LinkDecision(
                    mention=m,
                    candidate_ids=(sel,) if sel != NIL else (NIL,),
                    local_probs=np.array([1.0]),
                    global_probs=None,
                    fused_probs=None,
                    selected=sel,
                    rank=0,
                )
            )
        out.append(decs)
    return out


class TestEvaluate:
    def corpus(self):
        return [
            AnnotatedText(
                "alpha meets beta here",
                (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3")),
            ),
            AnnotatedText("beta kicks ball game", (Mention(0, 4, "beta", NIL),)),
            AnnotatedText("alpha sings song", (Mention(0, 5, "alpha", "e2"),)),
        ]

    def test_perfect_predictions_score_one(self):
        corpus = self.corpus()
        report = evaluate(corpus, fake_decisions(corpus, [["e1", "e3"], [NIL], ["e2"]]))
        assert report.accuracy == 1.0
        assert report.nil_recall == 1.0 and report.nil_precision == 1.0

    def test_three_of_four_correct(self):
        corpus = self.corpus()
        report = evaluate(corpus, fake_decisions(corpus, [["e1", "e3"], [NIL], ["e1"]]))
        assert report.accuracy == pytest.approx(0.75)
        assert report.by_mention_count == {1: 0.5, 2: 1.0}

    def test_undefined_nil_precision_reported_as_zero_with_flag(self):
        corpus = self.corpus()
        report = evaluate(corpus, fake_decisions(corpus, [["e1", "e3"], ["e1"], ["e2"]]))
        assert report.nil_recall == 0.0 and report.nil_recall_defined
        assert report.nil_precision == 0.0 and not report.nil_precision_defined

    def test_text_without_mentions_adds_no_bucket(self):
        corpus = self.corpus()
        picks = [["e1", "e3"], [NIL], ["e1"]]
        report = evaluate(corpus, fake_decisions(corpus, picks))
        empty = AnnotatedText("no mentions here", ())
        with_empty = evaluate(corpus + [empty], fake_decisions(corpus + [empty], picks + [[]]))
        assert with_empty == report

    def test_missing_gold_rejected(self):
        corpus = [AnnotatedText("x y", (Mention(0, 1, "x"),))]
        with pytest.raises(InputFormatError):
            evaluate(corpus, fake_decisions(corpus, [["e1"]]))

    def test_misaligned_decisions_rejected(self):
        corpus = self.corpus()
        with pytest.raises(InputFormatError):
            evaluate(corpus, fake_decisions(corpus[:2], [["e1", "e3"], [NIL]]))

    def test_text_missing_decisions_is_named(self):
        corpus = self.corpus()
        decisions = fake_decisions(corpus, [["e1", "e3"], [NIL], ["e2"]])
        decisions[1] = []
        with pytest.raises(InputFormatError, match=r"^text 1: 0 decisions for 1 mentions$"):
            evaluate(corpus, decisions)


class TestDecisionsIO:
    def test_round_trip(self, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        decisions, errors = link_corpus(corpus, kb, local, glob, cfg)
        assert errors == []
        path = tmp_path / "decisions.jsonl"
        save_decisions(decisions, str(path))
        back = load_decisions(str(path), corpus)
        assert len(back) == len(decisions)
        for got_list, want_list in zip(back, decisions):
            for got, want in zip(got_list, want_list):
                assert got.selected == want.selected
                assert got.mention == want.mention
                assert got.candidate_ids == want.candidate_ids
                np.testing.assert_allclose(got.local_probs, want.local_probs, atol=0)
                if want.fused_probs is None:
                    assert got.fused_probs is None
                else:
                    np.testing.assert_allclose(got.fused_probs, want.fused_probs, atol=0)

    def test_unknown_span_rejected(self, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        path = tmp_path / "decisions.jsonl"
        path.write_text('{"text": 0, "span": [0, 3], "selected": "e1"}\n', encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_decisions(str(path), corpus)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("text", True),
            ("text", 0.0),
            ("span", "float"),
            ("selected", None),
            ("selected", 3),
            ("selected", True),
            ("selected", [0, 1]),
            ("rank", 1.5),
            ("candidates", "x"),
            ("candidates", [1, 2]),
            ("local", None),
            ("local", [0.5, "x"]),
            ("local", [0.5, True]),
            ("global", "x"),
            ("fused", [None]),
            ("nil_prob", "high"),
            ("nil_prob", [0.5]),
        ],
        ids=repr,
    )
    def test_mistyped_field_rejected(self, key, value, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        path = tmp_path / "decisions.jsonl"
        save_decisions(link_corpus(corpus, kb, local, glob, cfg)[0], str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        # floats that truncate to the record's own span, so only the type is wrong
        rec[key] = [rec["span"][0] + 0.0, rec["span"][1] + 0.9] if value == "float" else value
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=rf":1: bad decision record: .*{key}"):
            load_decisions(str(path), corpus)

    def test_text_index_out_of_range_rejected(self, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        path = tmp_path / "decisions.jsonl"
        path.write_text(
            '{"text": 0, "span": [0, 5], "selected": "e1"}\n{"text": 99, "span": [0, 5], "selected": "e1"}\n',
            encoding="utf-8",
        )
        with pytest.raises(InputFormatError, match=rf"^{re.escape(str(path))}:2: .*text index 99 out of range"):
            load_decisions(str(path), corpus)

    def test_absent_optional_fields_take_their_defaults(self, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        path = tmp_path / "decisions.jsonl"
        path.write_text(
            '{"text": 0, "span": [0, 5], "selected": "e1"}\n'
            '{"text": 0, "span": [12, 16], "selected": "NIL", "global": null, "fused": null, "nil_prob": null}\n',
            encoding="utf-8",
        )
        for dec in load_decisions(str(path), corpus)[0]:
            assert (dec.candidate_ids, dec.local_probs.shape, dec.rank) == ((), (0,), 0)
            assert dec.global_probs is None and dec.fused_probs is None and dec.nil_prob is None

    def test_fuzzed_decisions_load_and_evaluate_or_raise_input_errors(self, tmp_path):
        kb, corpus, cfg, local, glob = pipeline_world()
        path = tmp_path / "decisions.jsonl"
        save_decisions(link_corpus(corpus, kb, local, glob, cfg)[0], str(path))
        data = path.read_bytes()
        rng = np.random.default_rng(7)
        payloads = [_mutate(data, rng) for _ in range(400)]
        # every field of every record swapped for a value of each other JSON type
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        kind_of = {type(None): "null", bool: "bool", int: "number", float: "number", str: "string", list: "array"}
        samples = {"null": None, "bool": True, "number": 3, "string": "x", "array": [0, 1], "object": {"a": 1}}
        for at, rec in enumerate(records):
            for key, value in rec.items():
                for kind, sample in samples.items():
                    if kind != kind_of[type(value)]:
                        swapped = records[:at] + [rec | {key: sample}] + records[at + 1 :]
                        payloads.append("".join(json.dumps(r) + "\n" for r in swapped).encode("utf-8"))
        assert len(payloads) == 400 + 5 * sum(map(len, records))
        for payload in payloads:
            path.write_bytes(payload)
            try:
                evaluate(corpus, load_decisions(str(path), corpus))
            except InputFormatError:
                pass


class TestSyntheticWorld:
    def test_reproducible_per_seed(self):
        a = generate_synthetic_world(SynthSpec(n_entities=80, n_train_texts=40, n_test_texts=20, seed=5))
        b = generate_synthetic_world(SynthSpec(n_entities=80, n_train_texts=40, n_test_texts=20, seed=5))
        assert [e for e in a.kb] == [e for e in b.kb]
        assert a.train == b.train and a.test == b.test
        c = generate_synthetic_world(SynthSpec(n_entities=80, n_train_texts=40, n_test_texts=20, seed=6))
        assert a.train != c.train

    def test_entity_count_is_exact(self):
        for n in (80, 127, 200):
            world = generate_synthetic_world(SynthSpec(n_entities=n, n_train_texts=30, n_test_texts=10))
            assert len(world.kb) == n

    def test_nil_mention_rate_near_target(self):
        spec = SynthSpec(n_entities=120, n_train_texts=400, n_test_texts=50, nil_rate=0.15, seed=1)
        world = generate_synthetic_world(spec)
        mentions = [m for t in world.train for m in t.mentions]
        share = sum(m.gold == NIL for m in mentions) / len(mentions)
        assert abs(share - 0.15) < 0.02

    def test_nil_rate_without_room_for_cue_texts_rejected(self):
        with pytest.raises(ValueError, match="nil_rate 0.5 leaves no room for cue texts among 300 train texts"):
            SynthSpec(nil_rate=0.5)
        # 60 planted and 94 NIL texts overfill the test corpus alone
        with pytest.raises(ValueError, match="among 150 test texts"):
            SynthSpec(n_train_texts=10, nil_rate=0.45)

    def test_gold_labels_resolve_in_kb(self):
        world = generate_synthetic_world(SynthSpec(n_entities=90, n_train_texts=60, n_test_texts=30, seed=2))
        ids = {e.id for e in world.kb}
        for t in world.train + world.test:
            for m in t.mentions:
                assert m.gold == NIL or m.gold in ids

    def test_test_anchor_surfaces_unseen_in_training(self):
        world = generate_synthetic_world(SynthSpec(n_entities=90, n_train_texts=60, n_test_texts=30, seed=3))
        by_id = {e.id: e for e in world.kb}
        train_tokens = set()
        for t in world.train:
            train_tokens.update(t.text.split())
        for eid in world.info["test_anchor_ids"]:
            surface = by_id[eid].aliases[1]
            used = any(
                m.gold == eid for t in world.test for m in t.mentions
            )
            if used:
                assert surface not in train_tokens

    def test_prior_baseline_near_chance_on_planted_mentions(self):
        spec = SynthSpec(n_entities=150, n_train_texts=60, n_test_texts=300, seed=4)
        world = generate_synthetic_world(spec)
        index = build_index(world.kb)
        amb = set(world.info["ambiguous_surfaces"])
        hits = total = 0
        for text, kind in zip(world.test, world.test_kinds):
            if kind != "planted":
                continue
            for m in text.mentions:
                if m.surface in amb:
                    got, _ = prior_baseline(index, m.surface)
                    hits += got == m.gold
                    total += 1
        assert total >= 100
        chance = 1.0 / world.info["ambiguity"]
        assert abs(hits / total - chance) < 0.15
