"""Output checks and determinism digests for the benchmark's runs."""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from mrclink.kb import NIL

SUM_TOLERANCE = 1e-9


def check_decisions(text, decisions) -> list[str]:
    """Ways the decisions for one text break the output contract; empty if none.

    One decision per mention in text order; every score vector finite, one
    entry per candidate and summing to 1; the selection a candidate or NIL;
    ranks a permutation; the first processed mention without global scores.
    """
    if len(decisions) != len(text.mentions):
        return [f"{len(decisions)} decisions for {len(text.mentions)} mentions"]
    problems = []
    for mention, dec in zip(text.mentions, decisions):
        where = f"mention {mention.span}"
        if dec.mention.span != mention.span:
            problems.append(f"{where}: decision is for span {dec.mention.span}")
        for label, vec in (("local", dec.local_probs), ("global", dec.global_probs), ("fused", dec.fused_probs)):
            if vec is None:
                continue
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (len(dec.candidate_ids),):
                problems.append(f"{where}: {label} has {vec.shape} entries for {len(dec.candidate_ids)} candidates")
            elif not np.all(np.isfinite(vec)):
                problems.append(f"{where}: {label} is not finite")
            elif abs(float(vec.sum()) - 1.0) > SUM_TOLERANCE:
                problems.append(f"{where}: {label} sums to {float(vec.sum())!r}")
        if dec.selected != NIL and dec.selected not in dec.candidate_ids:
            problems.append(f"{where}: selected {dec.selected!r} is neither a candidate nor NIL")
    if sorted(d.rank for d in decisions) != list(range(len(decisions))):
        problems.append(f"ranks {[d.rank for d in decisions]} are not a processing order")
    for dec in decisions:
        if dec.rank == 0 and (dec.global_probs is not None or dec.fused_probs is not None):
            problems.append(f"first processed mention {dec.mention.span} has global scores")
    return problems


def check_training(training, cfg) -> list[str]:
    """Training ran every epoch with finite losses and left finite parameters."""
    problems = []
    for label, logs, epochs, model in (
        ("train_local", training.local_logs, cfg.epochs_local, training.local),
        ("train_global", training.global_logs, cfg.epochs_global, training.glob),
    ):
        if len(logs) != epochs:
            problems.append(f"{label}: {len(logs)} epoch records for {epochs} epochs")
        for rec in logs:
            if not (math.isfinite(rec["loss"]) and rec["loss"] >= 0.0):
                problems.append(f"{label}: epoch {rec['epoch']} loss {rec['loss']!r}")
            if not 0.0 <= rec["answer_accuracy"] <= 1.0:
                problems.append(f"{label}: epoch {rec['epoch']} accuracy {rec['answer_accuracy']!r}")
        bad = [name for name, arr in model.parameters().items() if not np.all(np.isfinite(arr))]
        if bad:
            problems.append(f"{label}: non-finite parameters {bad}")
    return problems


def decision_bytes(decisions) -> bytes:
    """Exact encoding of one text's decisions: spans, choices, ranks and score bits."""
    parts = []
    for dec in decisions:
        parts.append(repr((dec.mention.span, dec.selected, dec.rank, dec.candidate_ids, dec.nil_prob)).encode())
        for vec in (dec.local_probs, dec.global_probs, dec.fused_probs):
            parts.append(b"-" if vec is None else np.ascontiguousarray(vec, dtype="<f8").tobytes())
    return b"|".join(parts)


def params_digest(*models) -> str:
    """sha256 over every parameter tensor of the models, by name."""
    h = hashlib.sha256()
    for model in models:
        for name, arr in sorted(model.parameters().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def record_digest(store: Path, key: str, digest: str) -> str | None:
    """Keep the first digest seen for ``key``; a later different one is a problem."""
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{key}.sha256"
    try:
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(digest + "\n")
        return None
    except FileExistsError:
        stored = path.read_text(encoding="utf-8").strip()
    if stored == digest:
        return None
    return f"determinism digest {digest[:16]} differs from {stored[:16]} recorded for {key}"
