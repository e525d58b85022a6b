"""Tokenization, query construction, and option-sequence assembly tests."""
import numpy as np
import pytest

from mrclink.corpus import (
    CLS_ID,
    MASK,
    MASK_ID,
    SEP_ID,
    UNK_ID,
    AnnotatedText,
    Mention,
    Vocabulary,
    assemble_option_sequence,
    assemble_query_sequence,
    build_query,
    load_corpus,
    save_corpus,
    split_tokens,
    tokenize,
    update_query,
)
from mrclink.errors import InputFormatError, SequenceOverflowError
from mrclink.kb import Entity


def make_text(text, spans_golds):
    mentions = tuple(
        Mention(start=s, end=e, surface=text[s:e], gold=g) for s, e, g in spans_golds
    )
    return AnnotatedText(text=text, mentions=mentions)


SHORT = "Li Na beat Cibulkova in Australian Open"
LI_NA = (0, 5)
CIBULKOVA = (11, 20)
AUS_OPEN = (24, 39)


class TestTokenize:
    def test_empty(self):
        vocab = Vocabulary.build([])
        assert tokenize("", vocab) == []

    def test_direct_lookup(self):
        vocab = Vocabulary.build(["a b"])
        assert vocab.id("a") == 5 and vocab.id("b") == 6
        assert tokenize("a b", vocab) == [5, 6]

    def test_unk_fallback(self):
        vocab = Vocabulary.build(["a b"])
        assert tokenize("a zz", vocab) == [5, UNK_ID]

    def test_character_fallback_for_unspaced_script(self):
        assert split_tokens("李娜击败") == ["李", "娜", "击", "败"]
        assert split_tokens("hello 李娜") == ["hello", "李", "娜"]

    def test_special_tokens_stay_atomic(self):
        assert split_tokens("x [MASK] y") == ["x", "[MASK]", "y"]
        assert split_tokens("击败[MASK]在") == ["击", "败", "[MASK]", "在"]
        vocab = Vocabulary.build([])
        assert tokenize("[MASK]", vocab) == [MASK_ID]

    def test_reserved_ids_fixed(self):
        vocab = Vocabulary.build(["w"])
        assert (vocab.id("[PAD]"), vocab.id("[UNK]"), vocab.id("[CLS]"),
                vocab.id("[SEP]"), vocab.id("[MASK]")) == (0, 1, 2, 3, 4)

    def test_vocab_rejects_broken_reserved_mapping(self):
        with pytest.raises(InputFormatError):
            Vocabulary({"[PAD]": 1})


class TestBuildQuery:
    def test_mask_replaces_target(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None), (*AUS_OPEN, None)])
        assert build_query(text, text.mentions[1]) == "Li Na beat [MASK] in Australian Open"

    def test_mask_at_text_start(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None)])
        assert build_query(text, text.mentions[0]) == "[MASK] beat Cibulkova in Australian Open"

    def test_full_span_replacement(self):
        text = make_text("Li Na", [(0, 5, None)])
        assert build_query(text, text.mentions[0]) == MASK

    def test_exactly_one_mask_introduced(self):
        rng = np.random.default_rng(1)
        words = ["w%d" % i for i in range(8)]
        for _ in range(50):
            k = int(rng.integers(1, 5))
            body = " ".join(words[:4 + k])
            start = int(rng.integers(0, 3))
            spans = []
            pos = 0
            for i, w in enumerate(body.split(" ")):
                if i == start:
                    spans.append((pos, pos + len(w), None))
                pos += len(w) + 1
            text = make_text(body, spans)
            out = build_query(text, text.mentions[0])
            assert out.count(MASK) == 1

    def test_target_must_belong_to_text(self):
        text = make_text(SHORT, [(*LI_NA, None)])
        with pytest.raises(ValueError):
            build_query(text, Mention(start=0, end=2, surface="Li"))


class TestUpdateQuery:
    def test_substitutes_linked_canonical_name(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None), (*AUS_OPEN, None)])
        cibulkova = Entity(id="q7", canonical_name="Dominika Cibulkova")
        out = update_query(text, text.mentions[2], {text.mentions[1]: cibulkova})
        assert out == "Li Na beat Dominika Cibulkova in [MASK]"

    def test_empty_history_equals_build_query(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            body = " ".join(f"tok{i}" for i in range(n))
            spans = []
            pos = 0
            for i in range(n):
                w = f"tok{i}"
                spans.append((pos, pos + len(w), None))
                pos += len(w) + 1
            text = make_text(body, spans)
            for target in text.mentions:
                assert update_query(text, target, {}) == build_query(text, target)

    def test_nil_history_keeps_surface(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None), (*AUS_OPEN, None)])
        out = update_query(text, text.mentions[2], {text.mentions[1]: None})
        assert out == "Li Na beat Cibulkova in [MASK]"

    def test_multiple_substitutions_right_to_left(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None), (*AUS_OPEN, None)])
        history = {
            text.mentions[0]: Entity(id="a", canonical_name="Li Na (tennis player)"),
            text.mentions[1]: Entity(id="b", canonical_name="Dominika Cibulkova"),
        }
        out = update_query(text, text.mentions[2], history)
        assert out == "Li Na (tennis player) beat Dominika Cibulkova in [MASK]"

    def test_target_in_history_rejected(self):
        text = make_text(SHORT, [(*LI_NA, None), (*CIBULKOVA, None)])
        with pytest.raises(ValueError):
            update_query(text, text.mentions[0], {text.mentions[0]: None})


class TestAssemble:
    def setup_method(self):
        self.vocab = Vocabulary.build(["d q o w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"])

    def ids(self, text):
        return tokenize(text, self.vocab)

    def test_minimal_sequence(self):
        seq = assemble_option_sequence(self.ids("d"), self.ids("q"), self.ids("o"), max_len=16)
        d, q, o = self.vocab.id("d"), self.vocab.id("q"), self.vocab.id("o")
        assert seq == (CLS_ID, d, SEP_ID, q, SEP_ID, o, SEP_ID)
        assert len(seq) == 7

    def test_description_truncated_from_end(self):
        description = " ".join(f"w{i % 10}" for i in range(1000))
        seq = assemble_option_sequence(self.ids(description), self.ids("q"), self.ids("o"), max_len=64)
        assert len(seq) == 64
        assert seq[-1] == SEP_ID
        assert seq[0] == CLS_ID
        # query and option survive intact
        q, o = self.vocab.id("q"), self.vocab.id("o")
        assert seq[-4:] == (SEP_ID, o, SEP_ID)[-3:] or seq[-2] == o
        assert q in seq

    def test_overflow_when_query_and_option_cannot_fit(self):
        with pytest.raises(SequenceOverflowError):
            assemble_option_sequence(self.ids("d"), self.ids(" ".join(["q"] * 30)), self.ids("o"), max_len=16)

    def test_max_len_floor(self):
        with pytest.raises(ValueError):
            assemble_option_sequence(self.ids("d"), self.ids("q"), self.ids("o"), max_len=7)

    def test_three_separators_one_leading_cls(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(10)]
        for _ in range(50):
            mk = lambda n: " ".join(words[int(rng.integers(0, 10))] for _ in range(n))
            seq = assemble_option_sequence(
                self.ids(mk(int(rng.integers(0, 30)))),
                self.ids(mk(int(rng.integers(1, 6)))),
                self.ids(mk(int(rng.integers(1, 3)))),
                max_len=32,
            )
            assert seq[0] == CLS_ID
            assert sum(t == SEP_ID for t in seq) == 3
            assert len(seq) <= 32

    def test_query_sequence(self):
        seq = assemble_query_sequence(self.ids("q q"), max_len=16)
        q = self.vocab.id("q")
        assert seq == (CLS_ID, q, q, SEP_ID)
        with pytest.raises(SequenceOverflowError):
            assemble_query_sequence(self.ids(" ".join(["q"] * 20)), max_len=8)


class TestAnnotatedTextValidation:
    def test_surface_must_match_span(self):
        with pytest.raises(InputFormatError):
            AnnotatedText(text="abc def", mentions=(Mention(0, 3, "xyz"),))

    def test_overlap_rejected(self):
        with pytest.raises(InputFormatError):
            AnnotatedText(
                text="abcdef",
                mentions=(Mention(0, 4, "abcd"), Mention(2, 6, "cdef")),
            )

    def test_out_of_bounds_rejected(self):
        with pytest.raises(InputFormatError):
            AnnotatedText(text="abc", mentions=(Mention(1, 9, "bc"),))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        texts = [
            make_text(SHORT, [(*LI_NA, "e1"), (*CIBULKOVA, "NIL"), (*AUS_OPEN, None)]),
            make_text("李娜 击败", [(0, 2, "e9")]),
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(texts, str(path), kinds=["a", "b"])
        back = load_corpus(str(path))
        assert back == texts

    def test_bad_record_raises_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok", "mentions": []}\n{"mentions": []}\n', encoding="utf-8")
        with pytest.raises(InputFormatError, match=":2:"):
            load_corpus(str(path))
