"""End-to-end linking: local pass, multi-turn global pass, rear fusion of the
two score vectors, and corpus-level evaluation.

Texts are embarrassingly parallel at inference; the evaluation reducer is an
order-independent sum.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .config import RunConfig
from .corpus import AnnotatedText, Mention
from .errors import InputFormatError, ModelConfigError
from .jsonl import read_jsonl, typed, write_jsonl
from .kb import AliasIndex, KnowledgeBase, build_index
from .local import LocalModel, label_scores, run_local_pass
from .multiturn import GlobalModel, MultiTurnResult, run_multi_turn


def rear_fusion(local_probs: np.ndarray, global_probs: np.ndarray, beta: float) -> np.ndarray:
    """Elementwise beta * local + (1 - beta) * global."""
    local_probs = np.asarray(local_probs, dtype=np.float64)
    global_probs = np.asarray(global_probs, dtype=np.float64)
    if local_probs.shape != global_probs.shape:
        raise ValueError(
            f"score vectors must have equal length, got {local_probs.shape} vs {global_probs.shape}"
        )
    return beta * local_probs + (1.0 - beta) * global_probs


@dataclass
class LinkDecision:
    """Final outcome for one mention, with every score vector that produced it."""

    mention: Mention
    candidate_ids: tuple[str, ...]
    local_probs: np.ndarray
    global_probs: np.ndarray | None
    fused_probs: np.ndarray | None
    selected: str
    rank: int
    nil_prob: float | None = None

    def to_record(self, text_index: int) -> dict:
        return {
            "text": text_index,
            "span": [self.mention.start, self.mention.end],
            "surface": self.mention.surface,
            "selected": self.selected,
            "rank": self.rank,
            "local": [float(x) for x in self.local_probs],
            "global": None if self.global_probs is None else [float(x) for x in self.global_probs],
            "fused": None if self.fused_probs is None else [float(x) for x in self.fused_probs],
            "candidates": list(self.candidate_ids),
            "nil_prob": self.nil_prob,
        }


def link_text(
    text: AnnotatedText,
    index: AliasIndex,
    local_model: LocalModel,
    global_model: GlobalModel | None,
    cfg: RunConfig,
) -> list[LinkDecision]:
    """Run the full pipeline on one text; decisions come back in text order.

    Each mention's link is ``MentionLocalResult.decide`` of its fused scores.
    The first processed mention has no global or fused scores and keeps its
    local decision. Without a global model (or with fewer than two mentions)
    every mention is decided locally.
    """
    local_results = run_local_pass(local_model, text, index, cfg)
    n = len(local_results)

    mt: MultiTurnResult | None = None
    if global_model is not None and n >= 2:
        mt = run_multi_turn(text, local_results, global_model, cfg)

    decisions: list[LinkDecision] = []
    rank_of = {}
    if mt is not None:
        rank_of = {idx: turn for turn, idx in enumerate(mt.order)}
    for i, res in enumerate(local_results):
        gscores = mt.global_scores[i] if mt is not None else None
        fused = None if gscores is None else rear_fusion(res.scores.probs, gscores.probs, cfg.beta)
        decisions.append(
            LinkDecision(
                mention=res.mention,
                candidate_ids=res.candidates.option_ids,
                local_probs=res.scores.probs,
                global_probs=None if gscores is None else gscores.probs,
                fused_probs=fused,
                selected=res.decide(fused),
                rank=rank_of.get(i, i),
                nil_prob=res.scores.nil,
            )
        )
    return decisions


def link_corpus(
    corpus: Sequence[AnnotatedText],
    kb: KnowledgeBase,
    local_model: LocalModel,
    global_model: GlobalModel | None,
    cfg: RunConfig,
) -> tuple[list[list[LinkDecision]], list[tuple[int, InputFormatError]]]:
    """Link every text of the corpus; one bad text does not stop the rest.

    Returns one decision list per text, in corpus order, and one
    ``(text index, error)`` entry per text that raised ``InputFormatError``;
    such a text gets an empty decision list.
    """
    index = build_index(kb)
    decisions: list[list[LinkDecision]] = []
    errors: list[tuple[int, InputFormatError]] = []
    for i, text in enumerate(corpus):
        try:
            decisions.append(link_text(text, index, local_model, global_model, cfg))
        except InputFormatError as exc:
            decisions.append([])
            errors.append((i, exc))
    return decisions, errors


# ----------------------------- evaluation -----------------------------


@dataclass
class EvalReport:
    accuracy: float
    nil_precision: float
    nil_recall: float
    nil_precision_defined: bool
    nil_recall_defined: bool
    by_mention_count: dict[int, float] = field(default_factory=dict)
    n_mentions: int = 0
    n_correct: int = 0

    def to_dict(self) -> dict:
        by_count = {str(k): v for k, v in sorted(self.by_mention_count.items())}
        return asdict(self) | {"by_mention_count": by_count}


def evaluate(
    corpus: Sequence[AnnotatedText],
    decisions: Sequence[Sequence[LinkDecision]],
) -> EvalReport:
    """Micro accuracy over mentions plus NIL precision/recall and a per-text-size breakdown.

    A mention counts correct iff the selected id equals its gold label (NIL
    included). The ratios are ``label_scores`` of the (selected, gold) pairs,
    overall and per text size.
    """
    if len(corpus) != len(decisions):
        raise InputFormatError("decisions do not align with the corpus")
    per_count: dict[int, list[tuple[str, str]]] = {}  # mentions per text -> (selected, gold) pairs
    for i, (text, decs) in enumerate(zip(corpus, decisions)):
        if len(text.mentions) != len(decs):
            raise InputFormatError(f"text {i}: {len(decs)} decisions for {len(text.mentions)} mentions")
        for mention, dec in zip(text.mentions, decs):
            if mention.gold is None:
                raise InputFormatError(f"mention {mention.surface!r} has no gold label")
            if dec.mention.span != mention.span:
                raise InputFormatError("decision span does not match the corpus mention")
            per_count.setdefault(len(text.mentions), []).append((dec.selected, mention.gold))
    return EvalReport(
        **label_scores([pair for pairs in per_count.values() for pair in pairs]),
        by_mention_count={k: label_scores(pairs)["accuracy"] for k, pairs in sorted(per_count.items())},
    )


# ----------------------------- decisions file I/O -----------------------------


def save_decisions(decisions: Sequence[Sequence[LinkDecision]], path: str) -> None:
    """Line-delimited JSON, one record per mention, in corpus order. A score
    that is not finite, which JSON cannot hold, raises ``ModelConfigError``
    naming the first text that has one, before the file is opened."""
    for ti, decs in enumerate(decisions):
        scores = [v for d in decs for v in (d.local_probs, d.global_probs, d.fused_probs, d.nil_prob) if v is not None]
        if not all(np.isfinite(v).all() for v in scores):
            raise ModelConfigError(f"text {ti}: the models gave scores that are not finite")
    write_jsonl(path, (dec.to_record(ti) for ti, decs in enumerate(decisions) for dec in decs))


def load_decisions(path: str, corpus: Sequence[AnnotatedText]) -> list[list[LinkDecision]]:
    """Re-attach a decisions file to its corpus, matching by text index and span."""

    def decision(rec: dict) -> tuple[int, LinkDecision]:
        ti = typed(rec, "text", int)
        start, end = typed(rec, "span", int, many=True)
        if not 0 <= ti < len(corpus):
            raise ValueError(f"text index {ti} out of range")
        mention = next((m for m in corpus[ti].mentions if m.span == (start, end)), None)
        if mention is None:
            raise ValueError(f"no mention at span ({start}, {end}) in text {ti}")
        glob, fused = (typed(rec, key, float, None, many=True) for key in ("global", "fused"))
        return ti, LinkDecision(
            mention=mention,
            candidate_ids=tuple(typed(rec, "candidates", str, [], many=True)),
            local_probs=np.asarray(typed(rec, "local", float, [], many=True), dtype=np.float64),
            global_probs=None if glob is None else np.asarray(glob, dtype=np.float64),
            fused_probs=None if fused is None else np.asarray(fused, dtype=np.float64),
            selected=typed(rec, "selected", str),
            rank=typed(rec, "rank", int, 0),
            nil_prob=typed(rec, "nil_prob", float, None),
        )

    per_text: list[list[LinkDecision]] = [[] for _ in corpus]
    for ti, dec in read_jsonl(path, "decision", decision):
        per_text[ti].append(dec)
    for ti, decs in enumerate(per_text):
        order = {m.span: i for i, m in enumerate(corpus[ti].mentions)}
        decs.sort(key=lambda d: order[d.mention.span])
    return per_text
