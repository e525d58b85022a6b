"""Per-mention disambiguation: multiple-choice option scoring, the two-stage
NIL verifier, the joint loss, and the local training step. The model
container, training loop (``fit``), option encoder, scoring head and
checkpoint codec defined here are shared with the global pass.

``encode_sets`` is the one place where encoder rows are built, padded and
batched, for the local and the global pass alike. A candidate set gets a
``[CLS] description [SEP] query [SEP] option [SEP]`` row per option, plus the
``[CLS] query [SEP]`` row that stage 1 of the verifier reads when the verifier
is on. The sets of one text share an encoder batch when their rows pad to the
same width, so every set is padded as if scored alone. Each mention's head
softmaxes over its option rows and its verifier MLP reads its query row.
Training scores one mention per batch and sends both gradients back through
one encoder backward. Rows are encoded independently; the softmax couples a
mention's options only at the end. Training sums gradients in a fixed order so
a fixed seed reproduces bitwise-identical parameters: every backward adds each
tensor's gradient into the views it is given once, whole, so a step may send
several backwards into one vector and get bitwise the sum of each run alone.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from . import encoder as enc
from .config import RunConfig
from .corpus import (
    PAD_ID,
    AnnotatedText,
    Mention,
    Vocabulary,
    assemble_option_sequence,
    assemble_query_sequence,
    build_query,
    tokenize,
)
from .encoder import EncoderConfig, EncoderTape
from .errors import InputFormatError, ModelConfigError
from .jsonl import typed, write_jsonl
from .kb import (
    NIL,
    NIL_DESCRIPTION,
    NIL_OPTION,
    AliasIndex,
    CandidateSet,
    Entity,
    KnowledgeBase,
    build_index,
    generate_candidates,
)

CHECKPOINT_FORMAT = "mrclink/1"

GradViews = dict[str, dict[str, np.ndarray]]  # Model.views of a vector: {prefix: {name: view}}


@dataclass
class LocalScores:
    """Per-option probabilities for one mention, the stage-1 verifier's
    probability that the mention is linkable, and what ``local_backward``
    reads: the tape of the encoder batch holding the set's rows, its pooled
    rows (options, then the query row) and the verifier's hidden layer. The
    verifier's are None with it off, the last three outside ``score_options``."""

    option_ids: tuple[str, ...]
    probs: np.ndarray
    nil: float | None = None
    enc_tape: EncoderTape | None = field(default=None, repr=False)
    pooled: np.ndarray | None = field(default=None, repr=False)
    nil_hidden: np.ndarray | None = field(default=None, repr=False)


@dataclass
class Model:
    """Base of the local and global models: an encoder and the tensors on top
    of it, held as named parameter groups that all live in one vector.

    ``GROUPS`` maps each parameter-name prefix to the attribute holding that
    group, in declaration order. ``flat`` is one float64 vector that holds
    every parameter in that order, each group's tensors in their own order;
    that is also the tensor order of ``parameters()`` and of a checkpoint.
    Every tensor of every group is a reshaped view of ``flat``, so one
    in-place optimizer step on ``flat`` (``step``) updates them all. ``views``
    is the one place that knows the offsets; gradient vectors share the
    layout and are split by it (or by name, through ``named``) too.
    Constructing a model copies the given tensors into a new ``flat``, so two
    models never share parameters.

    A checkpoint header stores ``KIND`` and the ``SETTINGS`` flags next to the
    config and vocabulary.
    """

    KIND: ClassVar[str]
    GROUPS: ClassVar[dict[str, str]]
    SETTINGS: ClassVar[tuple[str, ...]]

    config: EncoderConfig
    vocab: Vocabulary
    enc_params: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.flat = np.concatenate([np.ravel(t) for t in self.parameters().values()], dtype=np.float64)
        for prefix, group in self.views(self.flat).items():
            setattr(self, self.GROUPS[prefix], group)

    def views(self, vec: np.ndarray) -> GradViews:
        """Split a vector laid out like ``flat`` into ``{prefix: {name: view}}``."""
        out: GradViews = {}
        at = 0
        for prefix, attr in self.GROUPS.items():
            out[prefix] = {}
            for name, t in getattr(self, attr).items():
                out[prefix][name] = vec[at : at + t.size].reshape(t.shape)
                at += t.size
        return out

    def named(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Split a vector laid out like ``flat`` into views keyed like ``parameters()``."""
        return {f"{prefix}.{k}": v for prefix, group in self.views(vec).items() for k, v in group.items()}

    def parameters(self) -> dict[str, np.ndarray]:
        """Every tensor by ``<group>.<name>``, in the order of ``flat``."""
        return {
            f"{prefix}.{k}": v for prefix, attr in self.GROUPS.items() for k, v in getattr(self, attr).items()
        }

    def step(self, grads: np.ndarray, adam: enc.AdamState, lr: float, warmup_steps: int) -> None:
        """One in-place ``adam_step`` of ``flat``; a non-finite gradient raises
        before anything is written, naming the first tensor that holds one."""
        try:
            enc.adam_step(self.flat, grads, adam, lr, warmup_steps)
        except ValueError:
            bad = next(name for name, g in self.named(grads).items() if not np.all(np.isfinite(g)))
            raise ValueError(f"non-finite gradient for {bad!r}") from None


U = TypeVar("U")
# a step's loss and its (predicted, gold) label pairs; None when it scored nothing
StepResult = tuple[float, list[tuple[str, str]]] | None


def fit(
    model: Model, units: Sequence[U], step: Callable[[U, np.ndarray, GradViews], StepResult], *, epochs: int,
    lr: float, warmup: float, seed: int, stop_accuracy: float | None = None, log_path: str | None = None,
) -> list[dict]:
    """The training loop of the local and the global model; returns one
    record per epoch, also written to ``log_path`` when given.

    Each epoch visits ``units`` in a permutation drawn from a generator
    seeded with ``seed``. ``grads`` is one vector laid out like
    ``model.flat``, reused by every step and zeroed before each:
    ``step(unit, grads, views)`` adds the unit's gradient into it (or into
    ``views``, its ``model.views``) and returns its loss and label pairs, or
    None to make no Adam step. Warmup spans ``epochs * len(units)`` steps.
    A non-finite gradient, a diverged training, raises ``InputFormatError``
    naming the epoch and the tensor before the step writes anything.
    A record holds the mean step loss, and the ``label_scores`` answer
    accuracy and NIL precision and recall of the epoch's pairs; training
    stops after an epoch whose accuracy reaches ``stop_accuracy``.
    """
    warmup_steps = enc.warmup_steps(warmup, epochs * len(units))
    adam = enc.AdamState.zeros_like(model.flat)
    grads = np.empty_like(model.flat)
    views = model.views(grads)
    rng = np.random.default_rng(seed)
    logs: list[dict] = []
    for epoch in range(epochs):
        losses, pairs = [], []
        for i in rng.permutation(len(units)):
            grads.fill(0.0)
            result = step(units[i], grads, views)
            if result is not None:
                try:
                    model.step(grads, adam, lr, warmup_steps)
                except ValueError as exc:
                    raise InputFormatError(f"epoch {epoch}: {exc}; the training diverged") from None
                losses.append(result[0])
                pairs += result[1]
        scores = label_scores(pairs)
        logs.append({
            "epoch": epoch,
            "loss": float(np.mean(losses)) if losses else 0.0,
            "answer_accuracy": scores["accuracy"],
            "nil_precision": scores["nil_precision"],
            "nil_recall": scores["nil_recall"],
        })
        if stop_accuracy is not None and logs[-1]["answer_accuracy"] >= stop_accuracy:
            break
    if log_path is not None:
        write_jsonl(log_path, logs)
    return logs


def label_scores(pairs: Sequence[tuple[str, str]]) -> dict:
    """Accuracy, NIL precision and NIL recall of (predicted, gold) label pairs,
    each 0.0 where undefined, whether each NIL ratio is defined, and the
    counts of pairs and of correct ones: the one definition of the ratios of
    the training logs and the eval report."""
    n_correct, hit = sum(p == g for p, g in pairs), sum(p == g == NIL for p, g in pairs)
    nil_pred, nil_gold = sum(p == NIL for p, _ in pairs), sum(g == NIL for _, g in pairs)
    return {
        "accuracy": n_correct / len(pairs) if pairs else 0.0,
        "nil_precision": hit / nil_pred if nil_pred else 0.0,
        "nil_recall": hit / nil_gold if nil_gold else 0.0,
        "nil_precision_defined": nil_pred > 0,
        "nil_recall_defined": nil_gold > 0,
        "n_mentions": len(pairs),
        "n_correct": n_correct,
    }


def check_vocab(config: EncoderConfig, vocab: Vocabulary) -> None:
    """Token ids must index the embedding rows one to one."""
    if config.vocab_size != len(vocab):
        raise ModelConfigError("encoder vocab_size must match the vocabulary")
    if set(vocab.to_dict().values()) != set(range(len(vocab))):
        raise ModelConfigError("vocabulary ids must run from 0 to its size minus one")


def init_head(rng: np.random.Generator, d: int) -> dict[str, np.ndarray]:
    """Option-scoring head: one logit per pooled option vector."""
    bound = 1.0 / np.sqrt(d)
    return {"score_w": rng.uniform(-bound, bound, d), "score_b": np.zeros(1)}


@dataclass
class LocalModel(Model):
    """Encoder plus the option-scoring head and NIL-verifier MLP."""

    KIND = "local"
    GROUPS = {"enc": "enc_params", "head": "head", "nil": "nil"}
    SETTINGS = ("nil_verifier",)

    head: dict[str, np.ndarray]
    nil: dict[str, np.ndarray]
    nil_verifier: bool = True

    @classmethod
    def init(cls, config: EncoderConfig, vocab: Vocabulary, nil_verifier: bool = True) -> "LocalModel":
        check_vocab(config, vocab)
        d = config.d
        rng = np.random.default_rng(config.seed + 1_000_003)
        bound = 1.0 / np.sqrt(d)
        head = init_head(rng, d)
        nil = {
            "hidden_w": rng.uniform(-bound, bound, (d, d)),
            "hidden_b": np.zeros(d),
            "out_w": rng.uniform(-bound, bound, d),
            "out_b": np.zeros(1),
        }
        return cls(
            config=config,
            vocab=vocab,
            enc_params=enc.init_params(config),
            head=head,
            nil=nil,
            nil_verifier=nil_verifier,
        )


def encode_sets(
    model: Model, sets: Sequence[tuple[Sequence[Entity], str]], query_row: bool = False
) -> list[tuple[np.ndarray, EncoderTape]]:
    """Pooled rows of each (options, query) set and the tape of the encoder
    batch that holds them; every encoder call of linking and training is made
    here.

    A set's rows are one ``[CLS] description [SEP] query [SEP] option [SEP]``
    row per option, then its ``[CLS] query [SEP]`` row when ``query_row`` is
    set; its query is tokenized once. Sets whose longest rows are equally
    long share one padded encoder batch. A row's attention sums run over the
    batch width, and their rounding depends on it, so each set is padded
    exactly as it would be alone and gets bitwise the rows it gets alone.
    Every row is assembled, in set order, before any is encoded, which is
    also the order in which a sequence overflowing ``max_len`` is found.
    """
    vocab, max_len = model.vocab, model.config.max_len
    rows_of: list[list[tuple[int, ...]]] = []
    groups: dict[int, list[int]] = {}  # padded width -> its sets, in set order
    for options, query in sets:
        if not options:
            raise ValueError("candidate set must be non-empty")
        query_ids = tokenize(query, vocab)
        rows = [
            assemble_option_sequence(vocab.kb_ids(e.description), query_ids, vocab.kb_ids(e.canonical_name), max_len)
            for e in options
        ]
        if query_row:
            rows.append(assemble_query_sequence(query_ids, max_len))
        groups.setdefault(max(map(len, rows)), []).append(len(rows_of))
        rows_of.append(rows)
    encoded: dict[int, tuple[np.ndarray, EncoderTape]] = {}
    for width, members in groups.items():
        batch = [row for i in members for row in rows_of[i]]
        lengths = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
        ids = np.full((len(batch), width), PAD_ID, dtype=np.int64)
        ids[np.arange(width) < lengths[:, None]] = np.fromiter(chain.from_iterable(batch), np.int64)
        pooled, tape = enc.encode_batch(model.enc_params, model.config, ids, lengths)
        at = 0
        for i in members:
            encoded[i] = (pooled[at : at + len(rows_of[i])], tape)
            at += len(rows_of[i])
    return [encoded[i] for i in range(len(sets))]


def head_softmax(head: Mapping[str, np.ndarray], vectors: np.ndarray) -> np.ndarray:
    """Option probabilities: softmax over the head's logit for each vector."""
    return enc.softmax(vectors @ head["score_w"] + head["score_b"][0])


def head_backward(
    head: Mapping[str, np.ndarray], vectors: np.ndarray, dlogits: np.ndarray, grads: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Add the head gradients into ``grads``, and return the gradient w.r.t.
    ``vectors``."""
    grads["score_w"] += vectors.T @ dlogits
    grads["score_b"] += dlogits.sum()
    return np.outer(dlogits, head["score_w"])


def score_options(model: LocalModel, pairs: Sequence[tuple[CandidateSet, str]]) -> list[LocalScores]:
    """One ``LocalScores`` per (candidate set, query) pair of one text.

    The pairs are encoded by one ``encode_sets`` call, with the query row when
    the verifier is on, so each pair gets bitwise the scores it gets alone.
    A pair's head softmaxes over its option rows and its verifier judges
    linkability from its query row.
    """
    if not pairs:
        raise ValueError("no candidate set to score")
    encoded = encode_sets(model, [(c.options, query) for c, query in pairs], query_row=model.nil_verifier)
    scores = []
    for (candidates, _), (rows, enc_tape) in zip(pairs, encoded):
        n = len(candidates.options)
        nil = hidden = None
        if model.nil_verifier:
            nil, hidden = nil_stage1(model, rows[n])
        probs = head_softmax(model.head, rows[:n])
        scores.append(LocalScores(candidates.option_ids, probs, nil, enc_tape, rows, hidden))
    return scores


def answer_loss(scores: LocalScores, gold_index: int) -> tuple[float, np.ndarray]:
    """Cross entropy of the gold option; gradient is probs minus one-hot."""
    return enc.cross_entropy(scores.probs, gold_index)


def nil_stage1(model: LocalModel, pooled_query: np.ndarray) -> tuple[float, np.ndarray]:
    """Sketchy read of the query alone: sigmoid(MLP(pooled([CLS] Q [SEP]))).

    Returns the probability that the mention is linkable and the MLP's hidden
    layer, which the backward reads.
    """
    hidden = np.tanh(pooled_query @ model.nil["hidden_w"] + model.nil["hidden_b"])
    logit = float(hidden @ model.nil["out_w"] + model.nil["out_b"][0])
    return float(1.0 / (1.0 + np.exp(-logit))), hidden


def nil_loss(p: float, linkable: bool) -> tuple[float, float]:
    """Binary cross entropy of the linkable probability ``p``; returns the
    loss and the gradient w.r.t. the pre-sigmoid logit."""
    y = 1.0 if linkable else 0.0
    loss = -(y * np.log(max(p, 1e-30)) + (1.0 - y) * np.log(max(1.0 - p, 1e-30)))
    return float(loss), p - y


def joint_local_loss(ans: float, nil: float, cfg: RunConfig) -> float:
    """``alpha1`` times the answer loss plus ``alpha2`` times the NIL loss."""
    return cfg.alpha1 * ans + cfg.alpha2 * nil


def local_predict(scores: LocalScores, nil_threshold: float = 0.5) -> tuple[str, bool]:
    """Argmax over option probabilities, and whether a linkable probability
    below ``nil_threshold`` overrode it to NIL; a threshold of 0 never does."""
    if scores.nil is not None and scores.nil < nil_threshold:
        return NIL, True
    return scores.option_ids[int(np.argmax(scores.probs))], False


@dataclass
class MentionLocalResult:
    """Everything the downstream passes need about one locally scored mention."""

    mention: Mention
    candidates: CandidateSet
    scores: LocalScores
    selected: str
    overridden: bool

    def decide(self, probs: np.ndarray | None) -> str:
        """The mention's link: the local decision when ``probs`` is None or
        the verifier overrode the mention, else the option that ``probs``
        (over ``candidates``) ranks first."""
        if probs is None or self.overridden:
            return self.selected
        return self.candidates.option_ids[int(np.argmax(probs))]


def run_local_pass(
    model: LocalModel,
    text: AnnotatedText,
    index: AliasIndex,
    cfg: RunConfig,
) -> list[MentionLocalResult]:
    """Candidate generation plus local scoring and NIL verification for every
    mention; the mentions with candidates are scored in one ``score_options``
    call, and a mention without any is NIL."""
    candidates = [generate_candidates(index, m.surface, cfg.k, with_nil=model.nil_verifier) for m in text.mentions]
    pairs = [(c, build_query(text, m)) for m, c in zip(text.mentions, candidates) if c.options]
    scored = iter(score_options(model, pairs) if pairs else ())
    results = []
    for m, cands in zip(text.mentions, candidates):
        if not cands.options:
            empty = LocalScores(option_ids=(), probs=np.zeros(0))
            results.append(MentionLocalResult(m, cands, empty, selected=NIL, overridden=False))
            continue
        scores = next(scored)
        selected, overridden = local_predict(scores, cfg.nil_threshold)
        results.append(MentionLocalResult(m, cands, scores, selected, overridden))
    return results


def with_gold(candidates: CandidateSet, gold: Entity, k: int) -> CandidateSet:
    """Training-time candidate set with the gold entity guaranteed present.

    When recall misses it, the gold entity replaces the lowest-priority
    candidate, or is appended while the set is not full.
    """
    if candidates.index_of(gold.id) is not None:
        return candidates
    entities = list(candidates.entities)
    if len(entities) >= k:
        entities[-1] = gold
    else:
        entities.append(gold)
    options = tuple(entities) + ((NIL_OPTION,) if candidates.includes_nil else ())
    return CandidateSet(surface=candidates.surface, options=options, includes_nil=candidates.includes_nil)


def training_candidates(
    index: AliasIndex, surface: str, gold: Entity | None, k: int, with_nil: bool
) -> tuple[CandidateSet, int] | None:
    """The candidate set a mention trains on and the index of its target: the
    gold entity, injected by ``with_gold`` when recall misses it, or the NIL
    option for an unlinkable mention. None when the mention has no target
    (unlinkable, and the set has no NIL option)."""
    cands = generate_candidates(index, surface, k, with_nil=with_nil)
    if gold is not None:
        cands = with_gold(cands, gold, k)
        return cands, cands.index_of(gold.id)
    if cands.includes_nil:
        return cands, cands.nil_index
    return None


def local_backward(
    model: LocalModel,
    scores: LocalScores,
    dlogits: np.ndarray,
    dlogit: float,
    cfg: RunConfig,
    grads: GradViews,
) -> None:
    """Add the gradient of ``joint_local_loss`` into ``grads``, the
    ``model.views`` of a vector: ``dlogits`` is the answer-loss gradient
    w.r.t. the option logits, ``dlogit`` the NIL-loss gradient w.r.t. the
    verifier logit (ignored with the verifier off).

    The head gradient goes into the option rows and the verifier-MLP gradient
    into the query row of one ``dpooled``, sent back in one encoder backward,
    so the encoder batch of ``scores`` must hold its set's rows alone.
    """
    n = len(dlogits)
    doptions = head_backward(model.head, scores.pooled[:n], dlogits * cfg.alpha1, grads["head"])
    dpooled = np.zeros_like(scores.pooled)
    dpooled[:n] = doptions
    hidden = scores.nil_hidden
    if hidden is not None:
        nil = grads["nil"]
        dlogit = dlogit * cfg.alpha2
        dpre = (1.0 - hidden * hidden) * (dlogit * model.nil["out_w"])
        nil["out_w"] += dlogit * hidden
        nil["out_b"] += dlogit
        nil["hidden_w"] += np.outer(scores.pooled[n], dpre)
        nil["hidden_b"] += dpre
        dpooled[n] = model.nil["hidden_w"] @ dpre
    enc.backprop_batch(scores.enc_tape, dpooled, grads["enc"])


@contextmanager
def naming_text(text_index: int) -> Iterator[None]:
    """Prefix ``text <i>: `` to an input error raised while training reads text ``i``."""
    try:
        yield
    except InputFormatError as exc:
        raise InputFormatError(f"text {text_index}: {exc}") from None


def _resolve_gold(m: Mention, kb: KnowledgeBase, text_index: int) -> Entity | None:
    if m.gold is None:
        raise InputFormatError(f"text {text_index}: mention {m.surface!r} has no gold label")
    if m.gold == NIL:
        return None
    if m.gold not in kb:
        raise ModelConfigError(f"text {text_index}: gold entity {m.gold!r} missing from the KB")
    return kb.get(m.gold)


def build_vocabulary(corpus: Iterable[AnnotatedText], kb: KnowledgeBase) -> Vocabulary:
    """Vocabulary over KB names/descriptions/aliases and corpus texts, plus the NIL option."""

    def stream():
        yield NIL
        yield NIL_DESCRIPTION
        for ent in kb:
            yield ent.canonical_name
            yield ent.description
            for alias in ent.aliases:
                yield alias
        for text in corpus:
            yield text.text

    return Vocabulary.build(stream())


def train_local(
    corpus: Sequence[AnnotatedText],
    kb: KnowledgeBase,
    cfg: RunConfig,
    log_path: str | None = None,
) -> tuple[LocalModel, list[dict]]:
    """Joint answer + NIL training over all mentions, one Adam step per mention.

    Every trained mention's gold label is resolved before the first step.
    Gold entities absent from the generated candidates are injected. With the
    verifier disabled, unlinkable mentions are skipped (no defined target).
    Training stops after the first epoch whose accuracy reaches
    ``cfg.stop_accuracy``. Returns the trained model and its ``fit`` records.
    """
    index = build_index(kb)
    vocab = build_vocabulary(corpus, kb)
    econf = EncoderConfig(vocab_size=len(vocab), max_len=cfg.max_len_local, seed=cfg.seed, **asdict(cfg.encoder))
    model = LocalModel.init(econf, vocab, nil_verifier=cfg.nil_verifier)
    units = [
        (i, text, m, _resolve_gold(m, kb, i))
        for i, text in enumerate(corpus) for m in text.mentions if cfg.nil_verifier or m.gold != NIL
    ]

    def step(unit: tuple[int, AnnotatedText, Mention, Entity | None], _: np.ndarray, views: GradViews) -> StepResult:
        i, text, mention, gold_entity = unit
        cands, gold_index = training_candidates(index, mention.surface, gold_entity, cfg.k, cfg.nil_verifier)
        with naming_text(i):
            [scores] = score_options(model, [(cands, build_query(text, mention))])
        l_ans, dlogits = answer_loss(scores, gold_index)
        l_nil, dlogit = (0.0, 0.0) if scores.nil is None else nil_loss(scores.nil, gold_entity is not None)
        local_backward(model, scores, dlogits, dlogit, cfg, views)
        predicted, _ = local_predict(scores, cfg.nil_threshold)
        return joint_local_loss(l_ans, l_nil, cfg), [(predicted, cands.option_ids[gold_index])]

    logs = fit(
        model, units, step, epochs=cfg.epochs_local, lr=cfg.lr_local, warmup=cfg.warmup, seed=cfg.seed,
        stop_accuracy=cfg.stop_accuracy, log_path=log_path,
    )
    return model, logs


# ----------------------------- checkpoint I/O -----------------------------

M = TypeVar("M", bound=Model)


def save_model(model: Model, path: str) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": model.KIND,
        "encoder_config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        **{name: getattr(model, name) for name in model.SETTINGS},
    }
    enc.save_checkpoint(path, header, model.parameters())


def _check_encoder_shapes(path: str, config: EncoderConfig, tensors: Mapping[str, np.ndarray]) -> None:
    """Every stored ``enc.`` tensor must have the name and shape the header's
    config gives it, checked before a model of that config is allocated."""
    found = {name: t.shape for name, t in tensors.items() if name.startswith("enc.")}
    expected = {}
    if config.n_layers <= len(found):  # every block stores tensors; a deeper config is not listed out
        expected = {f"enc.{name}": shape for name, shape in enc.param_shapes(config).items()}
    if found != expected:
        wrong = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise ModelConfigError(
            f"{path}: encoder config {config.to_dict()} does not match the stored embeddings and blocks: {wrong}"
        )


def load_model(path: str, cls: type[M]) -> M:
    """Read a ``cls`` checkpoint.

    The file must hold exactly the tensor names and shapes of a fresh model
    of its stored config and vocabulary, every value finite; any mismatch, a
    bad header or a NaN or infinity raises ``ModelConfigError``. The shapes
    of the stored encoder tensors are checked against the header's config
    before that model is allocated.
    """
    header, tensors = enc.load_checkpoint(path)
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT or header.get("kind") != cls.KIND:
        raise ModelConfigError(f"{path}: not a {cls.KIND} model checkpoint")
    # a setting missing from the header takes the class default
    settings = {name: header.get(name, getattr(cls, name)) for name in cls.SETTINGS}
    bad = [name for name, value in settings.items() if type(value) is not type(getattr(cls, name))]
    if bad:
        raise ModelConfigError(f"{path}: bad checkpoint settings {bad}")
    try:
        config = EncoderConfig.from_dict(header["encoder_config"])
        ids = typed(header, "vocab", dict)
        vocab = Vocabulary({t: typed(ids, t, int) for t in ids})
        _check_encoder_shapes(path, config, tensors)
        model = cls.init(config, vocab, **settings)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelConfigError(f"{path}: bad checkpoint header: {exc!r}") from exc
    expected = {name: p.shape for name, p in model.parameters().items()}
    found = {name: t.shape for name, t in tensors.items()}
    if found != expected:
        missing = sorted(expected.keys() - found.keys())
        extra = sorted(found.keys() - expected.keys())
        wrong = sorted(n for n in expected.keys() & found.keys() if expected[n] != found[n])
        raise ModelConfigError(
            f"{path}: tensors do not match the {cls.KIND} model: "
            f"missing {missing}, unexpected {extra}, wrong shape {wrong}"
        )
    non_finite = [name for name, t in tensors.items() if not np.isfinite(t).all()]
    if non_finite:
        raise ModelConfigError(f"{path}: non-finite values in tensors {non_finite}")
    for name, p in model.parameters().items():
        p[...] = tensors[name]
    return model
