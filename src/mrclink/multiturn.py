"""Sequential global disambiguation: ambiguity ranking, the gated history
fusion network, per-turn global scoring, and teacher-forced training.

The turn loop inside one text is strictly sequential; texts are independent
and may run in parallel with identical per-text results.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import encoder as enc
from .config import GATE_MODES, RunConfig
from .corpus import AnnotatedText, Mention, Vocabulary, build_query, update_query
from .encoder import EncoderConfig, EncoderTape
from .errors import ModelConfigError
from .kb import NIL, CandidateSet, Entity, KnowledgeBase, build_index
from .kb import generate_candidates  # noqa: F401  (the perfbench tracer self-test checks this binding)
from .local import (
    GradViews,
    LocalModel,
    MentionLocalResult,
    Model,
    StepResult,
    _resolve_gold,
    check_vocab,
    encode_sets,
    fit,
    head_backward,
    head_softmax,
    init_head,
    naming_text,
    run_local_pass,
    training_candidates,
)


@dataclass(frozen=True)
class AmbiguityRank:
    """Mention processing order, most confident first; ties keep text order."""

    order: tuple[int, ...]
    gaps: tuple[float, ...]


def rank_mentions(prob_vectors: Sequence[np.ndarray]) -> AmbiguityRank:
    """Sort mentions by descending spread (max minus min) of their option probabilities."""
    gaps = tuple(
        float(np.max(p) - np.min(p)) if len(p) else 0.0 for p in prob_vectors
    )
    order = tuple(sorted(range(len(gaps)), key=lambda i: -gaps[i]))
    return AmbiguityRank(order=order, gaps=gaps)


def processing_order(local_results: Sequence[MentionLocalResult], cfg: RunConfig) -> tuple[int, ...]:
    """The order in which the turns of linking and training visit a text's
    mentions: ``rank_mentions`` order, or text order under ``no_rerank``.
    Either way a mention whose set holds exactly one entity and no NIL option
    moves to the front, ties keeping that order: its link is certain, though
    its spread is 0, and scoring it in a later turn would give probability 1
    and no gradient."""
    if cfg.no_rerank:
        order = range(len(local_results))
    else:
        order = rank_mentions([r.scores.probs for r in local_results]).order
    certain = [len(r.candidates.options) == 1 and not r.candidates.includes_nil for r in local_results]
    return tuple(sorted(order, key=lambda i: not certain[i]))


# ----------------------------- gated history fusion -----------------------------


def init_gate_params(d: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    return {
        "update_w": rng.uniform(-bound, bound, (d, 2 * d)),
        "fuse_w": rng.uniform(-bound, bound, (d, 2 * d)),
        "keep_cur_w": rng.uniform(-bound, bound, (d, d)),
        "keep_hist_w": rng.uniform(-bound, bound, (d, d)),
    }


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: ``1 / (1 + e)`` where ``x >= 0`` and
    ``e / (1 + e)`` elsewhere, with ``e = exp(-|x|)``. ``minimum(x, -x)`` is
    ``-|x|`` that keeps the sign of a NaN input, as ``exp(x)`` would."""
    e = np.exp(np.minimum(x, -x))
    den = 1.0 + e
    return np.where(x >= 0, 1.0 / den, e / den)


@dataclass
class GateFusion:
    """Fused vectors plus the gate diagnostics (None outside gated mode), and
    what ``gate_backward`` reads: the mode, the current vectors, the history
    and the concatenations that entered a weight matrix."""

    fused: np.ndarray
    update_gate: np.ndarray | None
    fusion: np.ndarray | None
    keep_gate: np.ndarray | None
    mode: str
    current: np.ndarray = field(repr=False)
    history: np.ndarray = field(repr=False)
    cat_vh: np.ndarray = field(repr=False)
    cat_uh_v: np.ndarray | None = field(default=None, repr=False)


def gate_fuse_batch(
    current: np.ndarray,
    history: np.ndarray,
    gate: Mapping[str, np.ndarray],
    mode: str = "gated",
) -> GateFusion:
    """Blend each current option vector with the shared history vector.

    gated:  u = sigmoid(Wu [v; h]); f = tanh(Wf [u*h; v]);
            g = sigmoid(Wc v + Wh h); fused = g*f + (1-g)*h.
    concat: fused = tanh(Wf [v; h]).
    """
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r}")
    v = np.atleast_2d(np.asarray(current, dtype=np.float64))
    h = np.asarray(history, dtype=np.float64)
    b, d = v.shape
    if h.shape != (d,):
        raise ValueError(f"history must have shape ({d},)")
    hb = np.broadcast_to(h, (b, d))
    cat_vh = np.concatenate([v, hb], axis=1)
    if mode == "concat":
        return GateFusion(np.tanh(cat_vh @ gate["fuse_w"].T), None, None, None, mode, v, h, cat_vh)
    u = _sigmoid(cat_vh @ gate["update_w"].T)
    cat_uh_v = np.concatenate([u * hb, v], axis=1)
    f = np.tanh(cat_uh_v @ gate["fuse_w"].T)
    g = _sigmoid(v @ gate["keep_cur_w"].T + h @ gate["keep_hist_w"].T)
    return GateFusion(g * f + (1.0 - g) * hb, u, f, g, mode, v, h, cat_vh, cat_uh_v)


def gate_backward(
    fusion: GateFusion,
    dfused: np.ndarray,
    gate: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Add the gate-weight gradients of the fused output into ``grads``, and
    return its gradients w.r.t. the current vectors and the history, for the
    mode the fusion was made in."""
    dfused = np.atleast_2d(np.asarray(dfused, dtype=np.float64))
    d = dfused.shape[1]
    if fusion.mode == "concat":
        ds = (1.0 - fusion.fused * fusion.fused) * dfused
        grads["fuse_w"] += ds.T @ fusion.cat_vh
        dcat = ds @ gate["fuse_w"]
        return dcat[:, :d], dcat[:, d:].sum(axis=0)

    v, h, u, f, g = fusion.current, fusion.history, fusion.update_gate, fusion.fusion, fusion.keep_gate
    b = v.shape[0]
    hb = np.broadcast_to(h, (b, d))

    dg = (f - hb) * dfused
    df = g * dfused
    dh_rows = (1.0 - g) * dfused

    # keep gate: g = sigmoid(Wc v + Wh h)
    dsg = g * (1.0 - g) * dg
    grads["keep_cur_w"] += dsg.T @ v
    grads["keep_hist_w"] += dsg.sum(axis=0)[:, None] * h[None, :]
    dv = dsg @ gate["keep_cur_w"]
    dh = dsg.sum(axis=0) @ gate["keep_hist_w"]

    # fusion: f = tanh(Wf [u*h; v])
    dsf = (1.0 - f * f) * df
    grads["fuse_w"] += dsf.T @ fusion.cat_uh_v
    dcat = dsf @ gate["fuse_w"]
    duh = dcat[:, :d]
    dv += dcat[:, d:]
    du = duh * hb
    dh_rows = dh_rows + duh * u

    # update gate: u = sigmoid(Wu [v; h])
    dsu = u * (1.0 - u) * du
    grads["update_w"] += dsu.T @ fusion.cat_vh
    dcat2 = dsu @ gate["update_w"]
    dv += dcat2[:, :d]
    dh_rows = dh_rows + dcat2[:, d:]

    dh = dh + dh_rows.sum(axis=0)
    return dv, dh


# ----------------------------- global model -----------------------------


@dataclass
class GlobalModel(Model):
    """Own encoder plus the gate network and global scoring head."""

    KIND = "global"
    GROUPS = {"enc": "enc_params", "gate": "gate", "head": "head"}
    SETTINGS = ("gate_mode",)

    gate: dict[str, np.ndarray]
    head: dict[str, np.ndarray]
    gate_mode: str = "gated"

    @classmethod
    def init(
        cls,
        config: EncoderConfig,
        vocab: Vocabulary,
        gate_mode: str = "gated",
        enc_params: dict[str, np.ndarray] | None = None,
    ) -> "GlobalModel":
        """Fresh gate and head; a fresh encoder too unless ``enc_params`` is given."""
        check_vocab(config, vocab)
        if gate_mode not in GATE_MODES:
            raise ModelConfigError(f"unknown gate mode {gate_mode!r}")
        return cls(
            config=config,
            vocab=vocab,
            enc_params=enc.init_params(config) if enc_params is None else enc_params,
            gate=init_gate_params(config.d, config.seed + 2_000_033),
            head=init_head(np.random.default_rng(config.seed + 2_000_003), config.d),
            gate_mode=gate_mode,
        )

    @classmethod
    def from_local(cls, local: LocalModel, max_len: int | None = None, gate_mode: str = "gated") -> "GlobalModel":
        """Start from the trained local encoder; the gate and head are fresh."""
        max_len = local.config.max_len if max_len is None else max_len
        config = replace(local.config, max_len=max_len)
        enc_params = dict(local.enc_params)  # the new model copies these into its own vector
        if max_len > local.config.max_len:
            rng = np.random.default_rng(config.seed + 3_000_017)
            bound = 1.0 / np.sqrt(config.d)
            extra = rng.uniform(-bound, bound, (max_len - local.config.max_len, config.d))
            enc_params["pos_emb"] = np.vstack([enc_params["pos_emb"], extra])
        elif max_len < local.config.max_len:
            enc_params["pos_emb"] = enc_params["pos_emb"][:max_len]
        return cls.init(config, local.vocab, gate_mode, enc_params)


@dataclass
class GlobalScores:
    """Per-option global probabilities, raw and fused option vectors, and what
    ``global_backward`` reads: the tape of the options' encoder batch and the
    gate fusion (its ``current`` and ``fused`` are ``raw`` and ``fused``).
    The last two are None outside ``global_score_mention``."""

    option_ids: tuple[str, ...]
    probs: np.ndarray
    raw: np.ndarray
    fused: np.ndarray
    enc_tape: EncoderTape | None = field(default=None, repr=False)
    gate_fusion: GateFusion | None = field(default=None, repr=False)


def encode_option_vector(model: GlobalModel, entity: Entity, query: str) -> np.ndarray:
    """Pooled representation of one option sequence under the global encoder."""
    [(pooled, _)] = encode_sets(model, [((entity,), query)])
    return pooled[0]


def global_score_mention(
    model: GlobalModel,
    candidates: CandidateSet,
    query: str,
    history: np.ndarray,
) -> GlobalScores:
    """Encode options against the updated query, fuse with history, and softmax."""
    [(raw, tape)] = encode_sets(model, [(candidates.options, query)])
    fusion = gate_fuse_batch(raw, history, model.gate, model.gate_mode)
    probs = head_softmax(model.head, fusion.fused)
    return GlobalScores(candidates.option_ids, probs, fusion.current, fusion.fused, tape, fusion)


def global_loss(scores: GlobalScores, gold_index: int) -> tuple[float, np.ndarray]:
    """Cross entropy over the global option probabilities."""
    return enc.cross_entropy(scores.probs, gold_index)


def global_backward(model: GlobalModel, scores: GlobalScores, dlogits: np.ndarray, grads: GradViews) -> np.ndarray:
    """Add the gradient through head, gate and encoder into ``grads``, the
    ``model.views`` of a vector, and return the history gradient."""
    dfused = head_backward(model.head, scores.fused, dlogits, grads["head"])
    draw, dhistory = gate_backward(scores.gate_fusion, dfused, model.gate, grads["gate"])
    enc.backprop_batch(scores.enc_tape, draw, grads["enc"])
    return dhistory


# ----------------------------- the turn loop -----------------------------


def walk_turns(
    model: GlobalModel,
    text: AnnotatedText,
    order: Sequence[int],
    options: Sequence[CandidateSet | None],
    pick: Callable[[int, GlobalScores | None], Entity | None],
    cfg: RunConfig,
) -> list[GlobalScores | None]:
    """Visit the mentions of ``text`` in ``order``, each turn reading the
    links of the turns before it; linking and teacher-forced training share
    this loop.

    ``pick(i, scores)`` returns the entity mention ``i`` links to, or None for
    NIL. The first turn is never scored and its ``options`` are not read:
    ``scores`` is None, and the picked entity's option vector under the
    mention's plain query seeds the history. A later turn whose ``options[i]``
    is None or empty is NIL and not scored; otherwise its options are scored
    against the history and the query rewritten with the earlier links (with
    none under ``no_query_update``), and a link makes the picked option's
    fused vector (``history_mode`` flow) or raw vector (last) the history. A
    NIL turn leaves the history unchanged and substitutes no name into later
    queries.

    Returns each mention's global scores, None where it was not scored.
    """
    history = np.zeros(model.config.d)
    linked: dict[Mention, Entity | None] = {}
    walked: list[GlobalScores | None] = [None] * len(text.mentions)
    for turn, i in enumerate(order):
        mention, cands = text.mentions[i], options[i]
        if turn == 0:
            entity = pick(i, None)
            if entity is not None:
                history = encode_option_vector(model, entity, build_query(text, mention))
        elif cands is None or not cands.options:
            entity = None
        else:
            query = update_query(text, mention, {} if cfg.no_query_update else linked)
            scores = walked[i] = global_score_mention(model, cands, query, history)
            entity = pick(i, scores)
            if entity is not None:
                vectors = scores.fused if cfg.history_mode == "flow" else scores.raw
                history = vectors[cands.index_of(entity.id)]
        linked[mention] = entity
    return walked


# ----------------------------- multi-turn inference -----------------------------


@dataclass
class MultiTurnResult:
    """Processing order and per-mention global scores (None where a mention
    was not scored)."""

    order: tuple[int, ...]
    global_scores: list[GlobalScores | None]


def run_multi_turn(
    text: AnnotatedText,
    local_results: Sequence[MentionLocalResult],
    model: GlobalModel,
    cfg: RunConfig,
) -> MultiTurnResult:
    """Process mentions in ``processing_order``, feeding each turn the previous links.

    Each turn links ``MentionLocalResult.decide`` of its global probabilities;
    the unscored first turn keeps its local decision.
    """
    order = processing_order(local_results, cfg)

    def pick(i: int, scores: GlobalScores | None) -> Entity | None:
        res = local_results[i]
        selected = res.decide(None if scores is None else scores.probs)
        return None if selected == NIL else res.candidates.options[res.candidates.index_of(selected)]

    return MultiTurnResult(order, walk_turns(model, text, order, [r.candidates for r in local_results], pick, cfg))


# ----------------------------- teacher-forced training -----------------------------


def train_global(
    corpus: Sequence[AnnotatedText],
    kb: KnowledgeBase,
    local_model: LocalModel,
    cfg: RunConfig,
    log_path: str | None = None,
) -> tuple[GlobalModel, list[dict]]:
    """Train the global pass with gold entities driving query updates and history.

    The local model stays frozen. It supplies the processing order, and its
    ``nil_verifier`` decides whether the training sets carry the NIL option,
    as at link time; the config's ``nil_verifier`` is not read. Each text is
    walked with the gold entity as every turn's pick, then each scored turn
    is backpropagated, in turn order, straight into the step's one gradient
    vector; the mean of the per-turn losses makes one Adam step, and a text
    that scores no turn makes none. Every gold label is resolved before the
    first step, and an input error in a text's rows names the text. Each
    turn's history is held fixed (a stop-gradient): ``global_backward``'s
    history gradient is dropped, so no gradient reaches the turn-0 seed
    encoding or an earlier turn's fused vector. Every epoch runs:
    ``cfg.stop_accuracy`` is read by ``train_local`` only.
    """
    index = build_index(kb)
    model = GlobalModel.from_local(local_model, max_len=cfg.max_len_global, gate_mode=cfg.gate_mode)
    with_nil = local_model.nil_verifier
    golds = [[_resolve_gold(m, kb, i) for m in t.mentions] for i, t in enumerate(corpus)]
    units = []
    for i, (text, g) in enumerate(zip(corpus, golds)):
        if len(g) >= 2:
            with naming_text(i):
                units.append((i, text, g, processing_order(run_local_pass(local_model, text, index, cfg), cfg)))

    def step(
        unit: tuple[int, AnnotatedText, list, tuple[int, ...]], grads: np.ndarray, views: GradViews
    ) -> StepResult:
        text_index, text, golds, order = unit
        targets = [training_candidates(index, m.surface, g, cfg.k, with_nil) for m, g in zip(text.mentions, golds)]
        options = [None if t is None else t[0] for t in targets]
        with naming_text(text_index):
            walked = walk_turns(model, text, order, options, lambda i, _: golds[i], cfg)
        scored = [(walked[i], targets[i][1]) for i in order if walked[i] is not None]
        if not scored:
            return None
        losses, pairs = [], []
        for scores, gold_index in scored:
            loss, dlogits = global_loss(scores, gold_index)
            losses.append(loss)
            global_backward(model, scores, dlogits, views)
            pairs.append((scores.option_ids[int(np.argmax(scores.probs))], scores.option_ids[gold_index]))
        grads *= 1.0 / len(losses)
        return float(np.mean(losses)), pairs

    logs = fit(
        model, units, step, epochs=cfg.epochs_global, lr=cfg.lr_global, warmup=cfg.warmup, seed=cfg.seed + 7,
        log_path=log_path,
    )
    return model, logs
