"""Span tracing of mrclink's public layer functions, done from outside the package.

A ``Tracer`` replaces each traced function in every mrclink module that bound
it (``from .kb import generate_candidates`` makes a second binding in
``local`` and ``multiturn``), records one span per call in memory and puts
every original back on ``uninstall``. Nothing is patched unless ``install``
is called, so untraced runs execute the package exactly as shipped.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# layer (module) -> public functions timed as spans
TRACED = {
    "kb": ("build_index", "generate_candidates"),
    "corpus": ("assemble_option_sequence", "assemble_query_sequence", "update_query"),
    "encoder": ("encode_batch", "backprop_batch", "adam_step"),
    "local": ("score_options", "nil_stage1", "run_local_pass", "train_local"),
    "multiturn": (
        "run_multi_turn",
        "global_score_mention",
        "gate_fuse_batch",
        "gate_backward",
        "encode_option_vector",
        "train_global",
    ),
    "pipeline": ("link_text", "rear_fusion"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_encode(counts, args, kwargs, result):
    ids = _arg(args, kwargs, 2, "ids")
    lengths = _arg(args, kwargs, 3, "lengths")
    rows, width = len(ids), len(ids[0])
    counts["encoder.rows"] += rows
    counts["encoder.padded_tokens"] += rows * width
    counts["encoder.tokens"] += rows * width if lengths is None else int(sum(lengths))


def _count_sequence(counts, args, kwargs, result):
    counts["corpus.rows"] += 1
    counts["corpus.tokens"] += len(result)


def _count_candidates(counts, args, kwargs, result):
    counts["kb.mentions"] += 1
    counts["kb.options"] += len(result.options)


def _count_turns(counts, args, kwargs, result):
    counts["multiturn.turns"] += sum(s is not None for s in result.global_scores)


def _count_texts(counts, args, kwargs, result):
    counts["pipeline.texts"] += 1


# span name -> counter update from the call's arguments and result
OBSERVERS = {
    "encoder.encode_batch": _count_encode,
    "corpus.assemble_option_sequence": _count_sequence,
    "corpus.assemble_query_sequence": _count_sequence,
    "kb.generate_candidates": _count_candidates,
    "multiturn.run_multi_turn": _count_turns,
    "pipeline.link_text": _count_texts,
}


def package_modules() -> list:
    """Every loaded mrclink module, the package namespace included."""
    return [m for n, m in sorted(sys.modules.items()) if n == "mrclink" or n.startswith("mrclink.")]


def bindings() -> dict[tuple[str, str], object]:
    """(module name, attribute) -> object, for every binding of a traced function."""
    wanted = {id(getattr(sys.modules[f"mrclink.{layer}"], fn)) for layer, fns in TRACED.items() for fn in fns}
    return {
        (mod.__name__, attr): value
        for mod in package_modules()
        for attr, value in vars(mod).items()
        if id(value) in wanted
    }


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, start, end, parent, op, self_s)``: ``parent`` is
    the id of the enclosing span (-1 at the root), ``op`` the text or step the
    span belongs to, and ``self_s`` its duration minus that of its direct
    children. With ``step_boundary`` set, ``op`` advances each time a span of
    that name closes (one optimizer step per training operation).
    """

    def __init__(self, step_boundary: str | None = None):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.step_boundary = step_boundary
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                original = getattr(sys.modules[f"mrclink.{layer}"], fn)
                wrappers[id(original)] = self._wrap(f"{layer}.{fn}", original)
        for (module_name, attr), original in bindings().items():
            self._saved.append((sys.modules[module_name], attr, original))
            setattr(sys.modules[module_name], attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, name, start, end, parent, self.op, duration - frame[1]))
                if name == self.step_boundary:
                    self.op += 1
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def summarize(spans: list[tuple]) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds], zero for names never seen."""
    out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for _, name, start, end, _, _, self_s in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += self_s
    return out


def root_seconds(spans: list[tuple]) -> float:
    """Wall time covered by spans that have no traced parent."""
    return sum(end - start for _, _, start, end, parent, _, _ in spans if parent == -1)


def write_spans(path, passes: list[list[tuple]]) -> None:
    """One gzip'd JSON line per span, tagged with its traced pass."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["pass", "id", "name", "start", "end", "parent", "op", "self_s"]}) + "\n")
        for i, spans in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([i, *span]) + "\n")
