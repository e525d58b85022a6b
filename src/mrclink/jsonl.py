"""Line-delimited JSON: the one reader and the one writer of every record file
(KB, corpus, decisions and training logs)."""
from __future__ import annotations

import json
import math
from typing import Any, Callable, Iterable, TypeVar

from .errors import InputFormatError

T = TypeVar("T")


def finite(value: float) -> bool:
    """``math.isfinite``, and False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_KINDS: dict[type, tuple[str, Callable[[Any], bool]]] = {  # kind -> (its name, its check)
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and finite(v)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def typed(rec: dict, key: str, kind: type, default: Any = ..., many: bool = False) -> Any:
    """``rec[key]``, which must be a ``kind`` or, with ``many``, a list of them
    (an int is never a bool; a float is a finite int or float); None passes
    where the default is None. An absent key gives ``default`` (``KeyError``
    without one); any other value raises ``TypeError``."""
    value = rec[key] if default is ... else rec.get(key, default)
    name, check = _KINDS[kind]
    ok = isinstance(value, list) and all(map(check, value)) if many else check(value)
    if not ok and not (value is None and default is None):
        want = ("null or " if default is None else "") + (f"a list of {name.split(' ', 1)[1]}s" if many else name)
        raise TypeError(f"{key} must be {want}, got {json.dumps(value)[:40]}")
    return value


def read_jsonl(path: str, what: str, build: Callable[[dict], T]) -> list[T]:
    """``build(record)`` for the JSON object on each non-blank line of a UTF-8
    file, in file order.

    A line that is not a JSON object (nested too deeply to parse counts),
    or whose ``build`` raises ``KeyError``, ``TypeError``, ``ValueError`` or
    ``OverflowError``, raises ``InputFormatError`` naming the path, the line
    and the ``what`` of the record; bytes that are not UTF-8 raise it naming
    the path.
    """
    items = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise TypeError(f"expected a JSON object, got {type(rec).__name__}")
                    items.append(build(rec))
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                    raise InputFormatError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return items


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    """One ``json.dumps`` line per record, UTF-8 with ``\\n`` line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
