"""Synthetic KB + corpus generator for desk-scale experiments.

The generated world has topical clusters with shared-surface ambiguity and
three text kinds:

* ``cue``     - one mention whose context carries cluster words, so the gold
                entity is identifiable locally;
* ``planted`` - an ambiguous mention followed by an easy anchor mention of
                the same cluster; the raw text carries no cluster words, and
                anchor canonical names spell out the cluster, so the
                ambiguous mention only becomes solvable once the linked
                anchor's canonical name enters the query;
* ``nil``     - one mention whose context words belong to clusters absent
                from the KB, so the gold label is NIL.

Test planted texts use anchors that never appear in any training text, which
keeps the planted mentions unsolvable for a model that has only memorized
surface co-occurrences. Texts carry occasional one-off rare words so unseen
tokens are in-distribution. Everything is deterministic per seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import AnnotatedText, Mention
from .kb import NIL, Entity, KnowledgeBase

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# planted texts per corpus text (NIL texts are drawn on top of them), senses
# per ambiguous surface, and the chance that a text carries one rare word
PLANTED_FRACTION = 0.4
AMBIGUITY = 3
RARE_WORD_RATE = 0.4


@dataclass(frozen=True)
class SynthSpec:
    n_entities: int = 200
    n_train_texts: int = 300
    n_test_texts: int = 150
    nil_rate: float = 0.15
    n_topics: int = 8
    anchors_per_topic: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_entities, self.n_train_texts, self.n_test_texts) < 1:
            raise ValueError("world sizes must be positive")
        if not 0.0 <= self.nil_rate < 1.0:
            raise ValueError("nil_rate must be in [0, 1)")
        for corpus, n in (("train", self.n_train_texts), ("test", self.n_test_texts)):
            if self.text_counts(n)[1] < 0:
                raise ValueError(f"nil_rate {self.nil_rate} leaves no room for cue texts among {n} {corpus} texts")
        if self.n_topics < AMBIGUITY:
            raise ValueError("need at least as many topics as the ambiguity degree")
        if self.anchors_per_topic < 2:
            raise ValueError("need at least two anchors per topic (train/test split)")
        n_anchor = self.n_topics * self.anchors_per_topic
        if n_anchor >= self.n_entities:
            raise ValueError("n_entities too small for the requested anchors")
        if (self.n_entities - n_anchor) // AMBIGUITY < 1:
            raise ValueError("n_entities too small for any ambiguous surface")

    def text_counts(self, n_texts: int) -> tuple[int, int, int]:
        """The planted, cue and NIL text counts of a corpus of ``n_texts``."""
        n_planted = int(round(PLANTED_FRACTION * n_texts))
        n_nil = int(round(self.nil_rate * (1.0 + PLANTED_FRACTION) * n_texts))
        return n_planted, n_texts - n_planted - n_nil, n_nil


@dataclass
class SynthWorld:
    kb: KnowledgeBase
    train: list[AnnotatedText]
    test: list[AnnotatedText]
    train_kinds: list[str]
    test_kinds: list[str]
    info: dict = field(default_factory=dict)


class _WordMaker:
    """Collision-free pseudo-word generator; raises ``ValueError`` once every
    word of the asked length is taken."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.used: dict[int, set[str]] = {}  # words made, by syllable count

    def word(self, n_syllables: int = 2) -> str:
        used = self.used.setdefault(n_syllables, set())
        if len(used) == (len(_CONSONANTS) * len(_VOWELS)) ** n_syllables:
            raise ValueError(f"the world needs more than the {len(used)} {n_syllables}-syllable pseudo-words")
        while True:
            w = "".join(
                self.rng.choice(list(_CONSONANTS)) + self.rng.choice(list(_VOWELS))
                for _ in range(n_syllables)
            )
            if w not in used:
                used.add(w)
                return w


def _make_text(words: list[tuple[str, str | None]]) -> AnnotatedText:
    """Join words with spaces; entries with a gold label become mentions."""
    parts: list[str] = []
    mentions: list[Mention] = []
    pos = 0
    for i, (w, gold) in enumerate(words):
        if i:
            parts.append(" ")
            pos += 1
        if gold is not None:
            mentions.append(Mention(start=pos, end=pos + len(w), surface=w, gold=gold))
        parts.append(w)
        pos += len(w)
    return AnnotatedText(text="".join(parts), mentions=tuple(mentions))


def generate_synthetic_world(spec: SynthSpec) -> SynthWorld:
    """Build the KB and train/test corpora; reproducible bit for bit per seed."""
    rng = np.random.default_rng(spec.seed)
    wm = _WordMaker(rng)

    topics = [wm.word() for _ in range(spec.n_topics)]
    topic_ctx = {t: [wm.word() for _ in range(3)] for t in topics}
    nil_ctx = [wm.word() for _ in range(6)]
    verbs = [wm.word() for _ in range(6)]
    fillers = [wm.word() for _ in range(8)]

    n_anchor = spec.n_topics * spec.anchors_per_topic
    n_amb_surfaces = (spec.n_entities - n_anchor) // AMBIGUITY
    n_extra = spec.n_entities - n_anchor - n_amb_surfaces * AMBIGUITY

    entities: list[Entity] = []
    eid = 0

    def add_entity(surface: str, topic: str, canonical: str) -> Entity:
        nonlocal eid
        ctx = topic_ctx[topic]
        ent = Entity(
            id=f"e{eid:04d}",
            canonical_name=canonical,
            description=f"{surface} {topic} {ctx[0]} {ctx[1]} {ctx[2]}",
            aliases=(canonical, surface),
            popularity=int(rng.integers(10, 1000)),
        )
        eid += 1
        entities.append(ent)
        return ent

    amb_surfaces: list[str] = []
    amb_entities: dict[str, dict[str, Entity]] = {}
    amb_by_topic: dict[str, list[str]] = {t: [] for t in topics}
    for _ in range(n_amb_surfaces):
        surface = wm.word(3)
        chosen = [topics[i] for i in rng.choice(spec.n_topics, size=AMBIGUITY, replace=False)]
        amb_surfaces.append(surface)
        amb_entities[surface] = {}
        for t in chosen:
            amb_entities[surface][t] = add_entity(surface, t, canonical=f"{surface} {t}")
            amb_by_topic[t].append(surface)

    # Anchor canonical names spell cluster vocabulary but not the surface, so a
    # query update replaces a (possibly unseen) surface with trained cluster tokens.
    # Each topic gets ``anchors_per_topic`` anchors; the leftover entities
    # become anchors too, dealt round the topics.
    anchors: dict[str, list[Entity]] = {t: [] for t in topics}
    slots = [(t, j) for t in topics for j in range(spec.anchors_per_topic)]
    slots += [(topics[i % spec.n_topics], i) for i in range(n_extra)]
    for t, j in slots:
        anchors[t].append(add_entity(wm.word(3), t, canonical=f"{t} {topic_ctx[t][j % len(topic_ctx[t])]}"))

    # Test planted texts only use anchor surfaces unseen in training.
    train_anchors = {t: lst[: max(1, len(lst) // 2)] for t, lst in anchors.items()}
    test_anchors = {t: lst[max(1, len(lst) // 2) :] or lst[:1] for t, lst in anchors.items()}

    kb = KnowledgeBase(entities)

    def pick(seq):
        return seq[int(rng.integers(0, len(seq)))]

    def noise_words(n_min: int, n_max: int) -> list[str]:
        n = int(rng.integers(n_min, n_max + 1))
        out = [pick(fillers) for _ in range(n)]
        if rng.random() < RARE_WORD_RATE:
            out[int(rng.integers(0, len(out)))] = wm.word(3)
        return out

    # Cue texts cycle through every (surface, topic) pair before repeating,
    # so training covers the pair inventory as evenly as the text budget allows.
    all_pairs = [(s, t) for s in amb_surfaces for t in sorted(amb_entities[s])]
    pair_queue: list[tuple[str, str]] = []

    def next_pair() -> tuple[str, str]:
        nonlocal pair_queue
        if not pair_queue:
            pair_queue = [all_pairs[i] for i in rng.permutation(len(all_pairs))]
        return pair_queue.pop()

    def make_context_text(surface: str, gold: str, context: list[str]) -> AnnotatedText:
        """A cue or NIL text: the mention, a verb, then two distinct
        ``context`` words and noise in shuffled order."""
        c1 = pick(context)
        c2 = pick([c for c in context if c != c1])
        tail = [c1, c2] + noise_words(1, 2)
        tail = [tail[i] for i in rng.permutation(len(tail))]
        return _make_text([(surface, gold), (pick(verbs), None)] + [(w, None) for w in tail])

    def make_planted_text(anchor_pool: dict[str, list[Entity]]) -> AnnotatedText:
        topic = pick([t for t in topics if amb_by_topic[t]])
        surface = pick(amb_by_topic[topic])
        gold = amb_entities[surface][topic]
        anchor = pick(anchor_pool[topic])
        anchor_surface = anchor.aliases[1]
        words = [(surface, gold.id), (pick(verbs), None), (anchor_surface, anchor.id)]
        words += [(w, None) for w in noise_words(1, 3)]
        return _make_text(words)

    def make_corpus(n_texts: int, anchor_pool) -> tuple[list[AnnotatedText], list[str]]:
        n_planted, n_cue, n_nil = spec.text_counts(n_texts)
        kinds = ["planted"] * n_planted + ["cue"] * n_cue + ["nil"] * n_nil
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        texts = []
        for kind in kinds:
            if kind == "planted":
                texts.append(make_planted_text(anchor_pool))
            elif kind == "cue":
                surface, topic = next_pair()
                texts.append(make_context_text(surface, amb_entities[surface][topic].id, [topic] + topic_ctx[topic]))
            else:
                texts.append(make_context_text(pick(amb_surfaces), NIL, nil_ctx))
        return texts, kinds

    train, train_kinds = make_corpus(spec.n_train_texts, train_anchors)
    test, test_kinds = make_corpus(spec.n_test_texts, test_anchors)

    info = {
        "topics": topics,
        "topic_context": topic_ctx,
        "nil_context": nil_ctx,
        "ambiguous_surfaces": amb_surfaces,
        "train_anchor_ids": sorted(e.id for lst in train_anchors.values() for e in lst),
        "test_anchor_ids": sorted(e.id for lst in test_anchors.values() for e in lst),
        "ambiguity": AMBIGUITY,
    }
    return SynthWorld(
        kb=kb, train=train, test=test, train_kinds=train_kinds, test_kinds=test_kinds, info=info
    )
