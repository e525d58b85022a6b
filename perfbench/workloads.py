"""The benchmark's workloads: inputs built from a seed, their set-up, and the
operations the load times.

* ``train``      a default ``SynthSpec`` world (200 entities, 300 train texts)
                 whose train corpus the seed shuffles, into a new order for
                 each of a few rounds; ``train_local`` then ``train_global``
                 for a fixed number of epochs. The only workload that runs
                 the backward passes and Adam, the write side of the encoder.
* ``link-short`` an acceptance-size world (200 entities); 1,300 test texts of
                 1-2 mentions drawn by the seed, linked text by text. Mostly
                 the local pass: at most one global turn per text, and a few
                 hundred entity descriptions reused on every pass.
* ``link-long``  a 3,000-entity world whose test texts, shuffled by the seed,
                 are joined into texts of 3-5+ mentions (the generator never
                 writes more than 2), so each text runs 2-4 global turns on
                 longer rows and each description is read only a few times.

Every workload uses the acceptance configuration (d=32, one layer, two heads,
``max_len`` 48/64) and one fixed world. The link workloads link with models
trained in set-up with a small fixed budget, and the seed draws the texts:
at that budget link accuracy moves by up to a third from one world seed to
the next, which would drown any change a later commit makes to it. On
``train`` the seed orders the train corpus, so every seed trains on the same
texts and does the same work. The loss after one epoch moves with that
order (by 5-7% of its value as one standard deviation, and by a third for an
unlucky order), so the training losses are medians over ``orders``
seed-drawn orders.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from mrclink import kb, local, multiturn, pipeline, synth
from mrclink.config import EncoderSettings, RunConfig
from mrclink.corpus import AnnotatedText


WORLD_SEED = 0  # every workload's world and model seed


@dataclass(frozen=True)
class Sizes:
    entities: int
    train_texts: int
    test_texts: int  # texts the link inputs are drawn from
    epochs_local: int
    epochs_global: int
    link_texts: int | None = None  # test texts drawn per seed; None keeps them all
    join: tuple[int, int] | None = None  # fewest mentions per joined link text, drawn from this range
    d: int = 32
    round_link_s: float = 3.0  # seconds of linking in each round of an untraced run
    min_rounds: int = 3  # rounds per untraced run at least, and no fewer than orders; setup_s is their median
    orders: int = 1  # train: seed-drawn orders of the train corpus, one per round, cycled
    min_texts: int = 256  # link calls per untraced run at least
    trace_texts: int = 260  # link texts per traced pass
    digest_texts: int = 256  # leading link texts whose decisions make the determinism digest


WORKLOADS = {
    "train": Sizes(200, 300, 150, epochs_local=1, epochs_global=1, round_link_s=0.8, orders=8),
    "link-short": Sizes(200, 300, 2600, epochs_local=1, epochs_global=1, link_texts=1300),
    "link-long": Sizes(3000, 300, 12000, epochs_local=1, epochs_global=1, join=(3, 5), round_link_s=5.0, trace_texts=300),
}

# The same workloads at a size that runs in about a second, for the self-test.
TINY = {
    name: replace(
        s, entities=60, train_texts=30, test_texts=48, d=8, round_link_s=0.0, min_rounds=2, orders=min(s.orders, 2),
        link_texts=24 if s.link_texts else None, min_texts=24, trace_texts=10, digest_texts=8,
    )
    for name, s in WORKLOADS.items()
}


def run_config(sizes: Sizes, seed: int) -> RunConfig:
    return RunConfig(
        seed=seed,
        encoder=EncoderSettings(d=sizes.d, n_layers=1, n_heads=2),
        max_len_local=48,
        max_len_global=64,
        lr_local=2e-3,
        lr_global=1e-3,
        epochs_local=sizes.epochs_local,
        epochs_global=sizes.epochs_global,
        stop_accuracy=None,
    )


def draw_texts(pool: list[AnnotatedText], sizes: Sizes, seed: int) -> list[AnnotatedText]:
    """The seed's link inputs: pool texts in a seed-drawn order, cut to
    ``link_texts`` and, for ``join``, joined into longer texts.
    """
    rng = np.random.default_rng([seed, 1])
    texts = [pool[i] for i in rng.permutation(len(pool))[: sizes.link_texts]]
    return texts if sizes.join is None else join_texts(texts, sizes.join, rng)


def shuffle_train(world: synth.SynthWorld, seed: int, variant: int) -> synth.SynthWorld:
    """The world with its train corpus in the seed's ``variant``-th order."""
    order = np.random.default_rng([seed, 2, variant]).permutation(len(world.train))
    return replace(world, train=[world.train[i] for i in order], train_kinds=[world.train_kinds[i] for i in order])


def join_texts(texts: list[AnnotatedText], mention_range: tuple[int, int], rng: np.random.Generator) -> list[AnnotatedText]:
    """Join consecutive texts, spans offset, until each joined text holds at
    least a number of mentions drawn from ``mention_range``; a trailing
    remainder below its draw is dropped.
    """
    lo, hi = mention_range
    out: list[AnnotatedText] = []
    parts: list[AnnotatedText] = []
    want = int(rng.integers(lo, hi + 1))
    for text in texts:
        parts.append(text)
        if sum(len(p.mentions) for p in parts) < want:
            continue
        pieces, mentions, offset = [], [], 0
        for p in parts:
            pieces.append(p.text)
            mentions.extend(replace(m, start=m.start + offset, end=m.end + offset) for m in p.mentions)
            offset += len(p.text) + 1
        out.append(AnnotatedText(text=" ".join(pieces), mentions=tuple(mentions)))
        parts = []
        want = int(rng.integers(lo, hi + 1))
    return out


@dataclass
class Training:
    """Models from one ``train_local`` + ``train_global`` run, with their timings."""

    local: local.LocalModel
    local_logs: list[dict]
    local_s: float
    glob: multiturn.GlobalModel
    global_logs: list[dict]
    global_s: float


@dataclass
class State:
    """What set-up leaves for the load."""

    world: synth.SynthWorld
    texts: list[AnnotatedText]  # link inputs
    index: kb.AliasIndex
    cfg: RunConfig
    training: Training | None = None

    @property
    def local_steps(self) -> int:
        """Optimizer steps of one ``train_local``: one per mention per epoch."""
        return self.cfg.epochs_local * sum(len(t.mentions) for t in self.world.train)

    @property
    def global_steps(self) -> int:
        """Optimizer steps of one ``train_global``: one per multi-mention text per epoch."""
        return self.cfg.epochs_global * sum(len(t.mentions) >= 2 for t in self.world.train)


def train(st: State) -> Training:
    """One ``train_local`` followed by ``train_global`` on the world's train corpus."""
    t0 = time.perf_counter()
    lm, local_logs = local.train_local(st.world.train, st.world.kb, st.cfg)
    t1 = time.perf_counter()
    gm, global_logs = multiturn.train_global(st.world.train, st.world.kb, lm, st.cfg)
    t2 = time.perf_counter()
    return Training(lm, local_logs, t1 - t0, gm, global_logs, t2 - t1)


def setup(name: str, sizes: Sizes, seed: int, variant: int = 0) -> State:
    """World generation, link inputs and index build; the link workloads also
    train here. ``train`` orders its train corpus by ``seed`` and ``variant``.
    """
    world = synth.generate_synthetic_world(
        synth.SynthSpec(
            n_entities=sizes.entities,
            n_train_texts=sizes.train_texts,
            n_test_texts=sizes.test_texts,
            seed=WORLD_SEED,
        )
    )
    if name == "train":
        world = shuffle_train(world, seed, variant)
    st = State(
        world=world,
        texts=draw_texts(world.test, sizes, seed),
        index=kb.build_index(world.kb),
        cfg=run_config(sizes, WORLD_SEED),
    )
    if name != "train":
        st.training = train(st)
    return st


def link(st: State, text: AnnotatedText) -> list[pipeline.LinkDecision]:
    return pipeline.link_text(text, st.index, st.training.local, st.training.glob, st.cfg)


def recall_at_k(texts: list[AnnotatedText], index: kb.AliasIndex, k: int) -> float:
    """Share of linkable mentions whose gold entity is among the generated candidates."""
    hits = total = 0
    for text in texts:
        for m in text.mentions:
            if m.gold is None or m.gold == kb.NIL:
                continue
            total += 1
            hits += m.gold in kb.generate_candidates(index, m.surface, k).option_ids
    return hits / total if total else 0.0
