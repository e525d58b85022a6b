"""Annotated short texts, tokenization, and query/option sequence construction.

Every type here is an immutable value and every operation a pure function,
with one exception: each ``Vocabulary`` memoizes the token ids of the KB
strings (entity descriptions and canonical names) it has tokenized. Concurrent
readers stay safe without coordination: a memo entry is a pure function of
its key, so two threads that miss at once compute equal tuples and either
write wins, and each dict read or write is atomic under the interpreter lock.
"""
from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InputFormatError, SequenceOverflowError
from .jsonl import read_jsonl, typed, write_jsonl
from .kb import NIL, Entity

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = 0, 1, 2, 3, 4
RESERVED_TOKENS = {PAD: PAD_ID, UNK: UNK_ID, CLS: CLS_ID, SEP: SEP_ID, MASK: MASK_ID}
MIN_MAX_LEN = 8  # the least max_len an option sequence may be assembled under

_SPECIAL_RE = re.compile(r"(\[PAD\]|\[UNK\]|\[CLS\]|\[SEP\]|\[MASK\])")


def split_tokens(text: str) -> list[str]:
    """Deterministic surface tokenization.

    Whitespace-separated chunks stay whole when pure ASCII; chunks containing
    other scripts fall back to per-character tokens (covers unspaced text).
    Bracketed special tokens are always atomic.
    """
    out: list[str] = []
    for chunk in text.split():
        for piece in _SPECIAL_RE.split(chunk):
            if not piece:
                continue
            if piece in RESERVED_TOKENS or piece.isascii():
                out.append(piece)
            else:
                out.extend(piece)
    return out


class Vocabulary:
    """Token -> id mapping with fixed reserved ids for the special tokens.

    The ids must run from 0 to the size minus one, so each token has its own
    id and every id indexes an embedding row; else ``InputFormatError``."""

    def __init__(self, token_to_id: Mapping[str, int]):
        for tok, want in RESERVED_TOKENS.items():
            if token_to_id.get(tok) != want:
                raise InputFormatError(f"vocabulary must map {tok} to {want}")
        if set(token_to_id.values()) != set(range(len(token_to_id))):
            raise InputFormatError("vocabulary ids must run from 0 to its size minus one")
        self._token_to_id = dict(token_to_id)
        self._kb_ids: dict[str, tuple[int, ...]] = {}

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        """Assign ids in first-seen order over the token stream of ``texts``."""
        mapping = dict(RESERVED_TOKENS)
        next_id = max(mapping.values()) + 1
        for text in texts:
            for tok in split_tokens(text):
                if tok not in mapping:
                    mapping[tok] = next_id
                    next_id += 1
        return cls(mapping)

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def __len__(self) -> int:
        return len(self._token_to_id)

    def to_dict(self) -> dict[str, int]:
        return dict(self._token_to_id)

    def kb_ids(self, text: str) -> tuple[int, ...]:
        """``tokenize(text, self)`` as a tuple, memoized by ``text``.

        For KB strings only (entity descriptions and canonical names): the
        memo grows with every distinct string passed, so a query, which
        differs per mention, goes through ``tokenize`` instead.
        """
        ids = self._kb_ids.get(text)
        if ids is None:
            ids = self._kb_ids[text] = tuple(tokenize(text, self))
        return ids


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Token ids for a text; out-of-vocabulary tokens map to the UNK id."""
    return [vocab.id(tok) for tok in split_tokens(text)]


@dataclass(frozen=True)
class Mention:
    """A span in a short text; ``gold`` is an entity id, ``NIL``, or None at inference."""

    start: int
    end: int
    surface: str
    gold: str | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class AnnotatedText:
    text: str
    mentions: tuple[Mention, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mentions", tuple(self.mentions))
        prev_end = 0
        for m in self.mentions:
            if not (0 <= m.start < m.end <= len(self.text)):
                raise InputFormatError(f"mention span {m.span} outside text bounds")
            if m.start < prev_end:
                raise InputFormatError("mentions must be non-overlapping and in order of appearance")
            if self.text[m.start : m.end] != m.surface:
                raise InputFormatError(
                    f"surface {m.surface!r} does not match text span {self.text[m.start:m.end]!r}"
                )
            prev_end = m.end


def build_query(text: AnnotatedText, target: Mention) -> str:
    """Replace the target mention span with the mask token; everything else unchanged."""
    if target not in text.mentions:
        raise ValueError("target is not a mention of this text")
    return text.text[: target.start] + MASK + text.text[target.end :]


def update_query(
    text: AnnotatedText,
    target: Mention,
    history: Mapping[Mention, Entity | None],
) -> str:
    """Mask the target and substitute previously linked entities' canonical names.

    A history value of None marks a NIL link: that mention keeps its surface.
    Replacements apply right to left so earlier spans stay valid.
    """
    if target in history:
        raise ValueError("target mention cannot appear in the history")
    if target not in text.mentions:
        raise ValueError("target is not a mention of this text")
    repls: list[tuple[int, int, str]] = [(target.start, target.end, MASK)]
    for m, ent in history.items():
        if ent is not None:
            repls.append((m.start, m.end, ent.canonical_name))
    out = text.text
    for start, end, repl in sorted(repls, key=lambda r: r[0], reverse=True):
        out = out[:start] + repl + out[end:]
    return out


def assemble_option_sequence(
    description: Sequence[int],
    query: Sequence[int],
    option_name: Sequence[int],
    max_len: int,
) -> tuple[int, ...]:
    """Token ids of [CLS] description [SEP] query [SEP] option [SEP] from the
    token ids of its three parts, truncating only the description.

    Tokens come off the end of the description until the sequence fits
    ``max_len``; the query and option are never shortened.
    """
    if max_len < MIN_MAX_LEN:
        raise ValueError(f"max_len must be >= {MIN_MAX_LEN}")
    budget = max_len - 4 - len(query) - len(option_name)
    if budget < 0:
        raise SequenceOverflowError(
            f"query ({len(query)}) and option ({len(option_name)}) tokens cannot fit in max_len={max_len}"
        )
    return (CLS_ID, *description[:budget], SEP_ID, *query, SEP_ID, *option_name, SEP_ID)


def assemble_query_sequence(query: Sequence[int], max_len: int) -> tuple[int, ...]:
    """Token ids of [CLS] query [SEP] from the query's token ids, for query-only reading."""
    if len(query) + 2 > max_len:
        raise SequenceOverflowError(f"query ({len(query)}) tokens cannot fit in max_len={max_len}")
    return (CLS_ID, *query, SEP_ID)


def _text(rec: dict) -> AnnotatedText:
    mentions = tuple(
        Mention(
            start=typed(m, "start", int),
            end=typed(m, "end", int),
            surface=typed(m, "surface", str),
            gold=typed(m, "gold", str, None),
        )
        for m in typed(rec, "mentions", dict, [], many=True)
    )
    return AnnotatedText(text=typed(rec, "text", str), mentions=mentions)


def load_corpus(path: str) -> list[AnnotatedText]:
    """Read a line-delimited JSON corpus (text + mention spans, optional gold)."""
    return read_jsonl(path, "corpus", _text)


def save_corpus(texts: Sequence[AnnotatedText], path: str, kinds: Sequence[str] | None = None) -> None:
    """Write a corpus file; ``kinds`` adds an informational per-text tag."""
    if kinds is not None and len(kinds) != len(texts):
        raise ValueError("kinds must align with texts")
    write_jsonl(
        path,
        (
            {"text": t.text, "mentions": [{k: v for k, v in asdict(m).items() if v is not None} for m in t.mentions]}
            | ({"kind": kinds[i]} if kinds is not None else {})
            for i, t in enumerate(texts)
        ),
    )


__all__ = [
    "PAD", "UNK", "CLS", "SEP", "MASK",
    "PAD_ID", "UNK_ID", "CLS_ID", "SEP_ID", "MASK_ID",
    "Vocabulary", "Mention", "AnnotatedText",
    "split_tokens", "tokenize",
    "build_query", "update_query",
    "assemble_option_sequence", "assemble_query_sequence",
    "load_corpus", "save_corpus", "NIL",
]
