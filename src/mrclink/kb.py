"""Knowledge base storage, alias indexing, candidate generation, and the popularity prior.

The alias index is immutable after construction and safe to share across
parallel readers; construction itself is single-threaded.
"""
from __future__ import annotations

import unicodedata
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .errors import InputFormatError
from .jsonl import read_jsonl, typed, write_jsonl

NIL = "NIL"
NIL_DESCRIPTION = "This is a NIL option"


def normalize_surface(surface: str) -> str:
    """Casefold, NFKC-normalize, and collapse whitespace.

    Applied to a fixpoint so repeated normalization is a no-op.
    """
    prev = surface
    for _ in range(4):
        cur = " ".join(unicodedata.normalize("NFKC", prev).casefold().split())
        if cur == prev:
            break
        prev = cur
    return prev


@dataclass(frozen=True)
class Entity:
    """A knowledge-base entry with a canonical name and a supporting description."""

    id: str
    canonical_name: str
    description: str = ""
    aliases: tuple[str, ...] = ()
    popularity: int = 0

    def __post_init__(self) -> None:
        if self.popularity < 0:
            raise InputFormatError(f"entity {self.id!r}: popularity must be non-negative")
        if not self.aliases:
            object.__setattr__(self, "aliases", (self.canonical_name,))
        else:
            object.__setattr__(self, "aliases", tuple(self.aliases))


NIL_OPTION = Entity(id=NIL, canonical_name=NIL, description=NIL_DESCRIPTION, aliases=(NIL,))


class KnowledgeBase:
    """Entities keyed by id, in insertion order; the id ``NIL`` is reserved for the NIL option."""

    def __init__(self, entities: Iterable[Entity]):
        self._by_id: dict[str, Entity] = {}
        for ent in entities:
            if ent.id == NIL:
                raise InputFormatError(f"entity id {NIL!r} is reserved for the NIL option")
            if ent.id in self._by_id:
                raise InputFormatError(f"duplicate entity id {ent.id!r}")
            self._by_id[ent.id] = ent

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self._by_id.values())

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def get(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise KeyError(f"unknown entity id {entity_id!r}") from None


class AliasIndex:
    """Normalized alias string -> candidate entities sorted by descending popularity.

    Ties break by ascending entity id.  Lookups are read-only and safe from
    any number of concurrent workers.
    """

    __slots__ = ("_table",)

    def __init__(self, table: dict[str, tuple[Entity, ...]]):
        self._table = table

    def lookup_entities(self, surface: str) -> tuple[Entity, ...]:
        return self._table.get(normalize_surface(surface), ())


def build_index(kb: KnowledgeBase) -> AliasIndex:
    """Index every alias of every entity under its normalized form."""
    acc: dict[str, dict[str, Entity]] = {}
    for ent in kb:
        for alias in ent.aliases:
            key = normalize_surface(alias)
            acc.setdefault(key, {})[ent.id] = ent
    table = {
        key: tuple(sorted(ents.values(), key=lambda e: (-e.popularity, e.id)))
        for key, ents in acc.items()
    }
    return AliasIndex(table)


@dataclass(frozen=True)
class CandidateSet:
    """Pruned options for one mention surface.

    ``options`` holds at most K entities in lookup order; when ``includes_nil``
    is true a synthetic NIL option (description ``NIL_DESCRIPTION``) sits last.
    """

    surface: str
    options: tuple[Entity, ...]
    includes_nil: bool

    @property
    def option_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.options)

    @property
    def entities(self) -> tuple[Entity, ...]:
        return self.options[:-1] if self.includes_nil else self.options

    @property
    def nil_index(self) -> int | None:
        return len(self.options) - 1 if self.includes_nil else None

    def index_of(self, entity_id: str) -> int | None:
        for i, ent in enumerate(self.options):
            if ent.id == entity_id:
                return i
        return None


def generate_candidates(
    index: AliasIndex, mention_surface: str, k: int, with_nil: bool = True
) -> CandidateSet:
    """Top-k entities for a surface by popularity, plus the NIL option if asked.

    An unknown surface is a valid empty result (only the NIL option remains
    when ``with_nil``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    entities = index.lookup_entities(mention_surface)[:k]
    options = entities + (NIL_OPTION,) if with_nil else entities
    return CandidateSet(surface=mention_surface, options=options, includes_nil=with_nil)


def prior_baseline(index: AliasIndex, mention_surface: str) -> tuple[str, float]:
    """Most popular candidate with its popularity share of the alias total.

    Returns (NIL, 0.0) for unknown surfaces; an all-zero popularity list also
    reports probability 0.0.
    """
    entities = index.lookup_entities(mention_surface)
    if not entities:
        return NIL, 0.0
    total = sum(e.popularity for e in entities)
    best = entities[0]
    if total == 0:
        return best.id, 0.0
    return best.id, best.popularity / total


def _entity(rec: dict) -> Entity:
    return Entity(
        id=typed(rec, "id", str),
        canonical_name=typed(rec, "name", str),
        description=typed(rec, "description", str, ""),
        aliases=tuple(typed(rec, "aliases", str, [], many=True)),
        popularity=typed(rec, "popularity", int, 0),
    )


def load_kb(path: str) -> KnowledgeBase:
    """Read a line-delimited JSON KB file (fields id, name, description, aliases, popularity)."""
    entities = read_jsonl(path, "KB", _entity)
    try:
        return KnowledgeBase(entities)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save_kb(kb: KnowledgeBase, path: str) -> None:
    """Write a KB file: every entity's fields, ``canonical_name`` under the key ``name``."""
    write_jsonl(path, ({("name" if k == "canonical_name" else k): v for k, v in asdict(e).items()} for e in kb))
