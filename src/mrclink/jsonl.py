"""Line-delimited JSON: the one reader and the one writer of every record file
(KB, corpus, decisions and training logs)."""
from __future__ import annotations

import json
from typing import Callable, Iterable, TypeVar

from .errors import InputFormatError

T = TypeVar("T")


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
