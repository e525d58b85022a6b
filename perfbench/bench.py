"""Benchmark runs of the mrclink package: set-up, closed-loop load, output
checks and metrics.

An untraced run measures the end-to-end metrics with the package exactly as
shipped. A traced run repeats a fixed pass of work with every layer function
wrapped (spans.py), each time followed by the same pass unwrapped, and
reports per-layer calls, total and self time, counts, and the tracing
overhead as the traced-minus-untraced wall time of a pass.

Each workload reports every end-to-end metric. On the link workloads the
training metrics come from their set-up training. On ``train`` the link
metrics come from linking ``link-short`` texts with ``link-short``'s set-up
models, a stretch after each training: the models ``train`` makes give link
accuracies that move with the seed's order of the train corpus.
"""
from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import os
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
import workloads
from mrclink.pipeline import evaluate

ROOT = Path(__file__).resolve().parent.parent


class Outcome:
    """Operations attempted and failed, failure types, and output problems of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []


class LinkLoop:
    """Closed loop of ``link_text`` calls: one caller, the next text sent when
    the previous call returns. A text that raises counts as failed; none is
    skipped, shortened or retried.

    Latency percentiles are taken over texts, each text timed as the median
    of its calls in the run: a text met once keeps its one sample, and one
    linked many times is not ranked by the host's jitter on a single call.
    """

    def __init__(self, st: workloads.State, digest_texts: int, outcome: Outcome):
        self.st = st
        self.digest_texts = digest_texts
        self.outcome = outcome
        self.latencies: dict[int, list[float]] = {}  # corpus index -> seconds per call
        self.mentions = 0  # in texts linked without an exception
        self.correct = 0
        self.failed_mentions = 0
        self.steps = 0
        self._digest = hashlib.sha256()
        self._seen: dict[int, bytes] = {}

    def step(self, i: int) -> None:
        """Link text ``i`` (the corpus wraps around) and check the result."""
        key = i % len(self.st.texts)
        text = self.st.texts[key]
        self.outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            decisions = workloads.link(self.st, text)
        except Exception as exc:  # counted per type; the corpus goes on
            self.outcome.failed += 1
            self.outcome.failures[type(exc).__name__] += 1
            self.failed_mentions += len(text.mentions)
            encoded = f"failed:{type(exc).__name__}".encode()
        else:
            self.latencies.setdefault(key, []).append(time.perf_counter() - t0)
            problems = checks.check_decisions(text, decisions)
            self.outcome.problems.extend(f"text {key}: {p}" for p in problems)
            self.mentions += len(text.mentions)
            if not problems:
                self.correct += evaluate([text], [decisions]).n_correct
            encoded = checks.decision_bytes(decisions)
        if self.steps < self.digest_texts:
            self._digest.update(encoded)
        self.steps += 1
        text_hash = hashlib.sha256(encoded).digest()
        if self._seen.setdefault(key, text_hash) != text_hash:
            self.outcome.problems.append(f"text {key}: decisions differ from an earlier pass")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def metrics(self) -> dict[str, tuple]:
        calls = [x for v in self.latencies.values() for x in v]
        per_text = [statistics.median(v) * 1e3 for v in self.latencies.values()]
        lat_ms = {"calls": timing([x * 1e3 for x in calls]), "texts": timing(per_text)}
        return {
            "link_mentions_per_s": (self.mentions / sum(calls), "1/s", {"n": len(calls)}),
            "link_text_p50_ms": (statistics.median(per_text), "ms", lat_ms),
            "link_text_p99_ms": (float(np.percentile(per_text, 99)), "ms", lat_ms),
            "link_accuracy": (self.correct / (self.mentions + self.failed_mentions), "ratio", {"n": self.steps}),
        }


def timing(samples: list[float]) -> dict:
    """Sample count, median and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for q in (99.9, 99.0, 95.0, 90.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            out[f"p{q:g}"] = float(np.percentile(samples, q))
            break
    return out


def account_training(st: workloads.State, training: workloads.Training, outcome: Outcome) -> str:
    """Count a training run's steps, check its output, and return its parameter digest."""
    outcome.attempted += st.local_steps + st.global_steps
    outcome.problems.extend(checks.check_training(training, st.cfg))
    return checks.params_digest(training.local, training.glob)


def training_metrics(st: workloads.State, trainings: list[workloads.Training], orders: int) -> dict[str, tuple]:
    """Steps per second over all of the run's trainings, and the median
    last-epoch losses of its first ``orders`` trainings (one per corpus order).
    """
    local_s = [t.local_s for t in trainings]
    global_s = [t.global_s for t in trainings]
    local_rates = [st.local_steps / x for x in local_s]
    global_rates = [st.global_steps / x for x in global_s]
    n = len(trainings)
    local_losses = [t.local_logs[-1]["loss"] for t in trainings[:orders]]
    global_losses = [t.global_logs[-1]["loss"] for t in trainings[:orders]]
    epochs = {"epochs_local": len(trainings[0].local_logs), "epochs_global": len(trainings[0].global_logs), "orders": orders}
    return {
        "train_local_steps_per_s": (n * st.local_steps / sum(local_s), "1/s", timing(local_rates)),
        "train_global_steps_per_s": (n * st.global_steps / sum(global_s), "1/s", timing(global_rates)),
        "train_local_loss": (statistics.median(local_losses), "nats", epochs),
        "train_global_loss": (statistics.median(global_losses), "nats", epochs),
    }


def untraced(name: str, table: dict[str, workloads.Sizes], seed: int, seconds: float, outcome: Outcome):
    """End-to-end metrics; returns (metrics, digest).

    The run is a series of rounds, each a set-up, a training and a stretch of
    linking, until another round would end past ``seconds``. On a shared
    host the CPU's speed swings from one second to the next and shifts by a
    tenth or more for minutes at a time, so every metric takes its samples
    from the whole run, and throughputs are total work over total time: the
    median of a few long samples would pick one stretch of the run.
    """
    sizes = table[name]
    setup_s: list[float] = []
    trainings: list[workloads.Training] = []
    models: list[str] = []  # parameter digest of each corpus order; the first is the run's digest
    # train links link-short's texts with link-short's set-up models
    linking = workloads.setup("link-short", table["link-short"], seed) if name == "train" else None
    loop: LinkLoop | None = None
    start = time.perf_counter()
    while True:
        variant = len(trainings) % sizes.orders
        t0 = time.perf_counter()
        st = workloads.setup(name, sizes, seed, variant)
        setup_s.append(time.perf_counter() - t0)
        training = workloads.train(st) if name == "train" else st.training
        trainings.append(training)
        model = account_training(st, training, outcome)
        if len(models) == variant:
            models.append(model)
        elif models[variant] != model:
            outcome.problems.append(f"training round {len(trainings)} gave a different model from the same inputs")
        if loop is None:
            loop = LinkLoop(linking or st, sizes.digest_texts, outcome)
        elif linking is None:
            loop.st = st
        t0 = time.perf_counter()
        while loop.steps < sizes.min_texts or time.perf_counter() - t0 < sizes.round_link_s:
            loop.step(loop.steps)
        elapsed = time.perf_counter() - start
        rounds = len(setup_s)
        if rounds >= max(sizes.min_rounds, sizes.orders) and elapsed * (1 + 1 / rounds) > seconds:
            break

    metrics = {
        "setup_s": (statistics.median(setup_s), "s", timing(setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", {}),
        **training_metrics(st, trainings, sizes.orders),
        **loop.metrics(),
    }
    return metrics, (models[0] if name == "train" else loop.digest)


def traced(name: str, table: dict[str, workloads.Sizes], seed: int, seconds: float, outcome: Outcome, spans_path: Path):
    """Per-layer metrics from fixed passes, each run traced and then untraced;
    returns (metrics, digest).
    """
    sizes = table[name]
    st = workloads.setup(name, sizes, seed)
    tracer = spans.Tracer(step_boundary="encoder.adam_step" if name == "train" else None)
    if name == "train":
        recall = workloads.recall_at_k(st.world.train, st.index, st.cfg.k)
        digests: set[str] = set()

        def one_pass() -> None:
            tracer.op = 0
            digests.add(account_training(st, workloads.train(st), outcome))
    else:
        n_texts = min(sizes.trace_texts, len(st.texts))
        recall = workloads.recall_at_k([st.texts[i] for i in range(n_texts)], st.index, st.cfg.k)
        loop = LinkLoop(st, sizes.digest_texts, outcome)

        def one_pass() -> None:
            for i in range(n_texts):
                tracer.op = i
                loop.step(i)

    passes: list[tuple[list, Counter]] = []
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.install()
        try:
            t0 = time.perf_counter()
            one_pass()
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        passes.append(tracer.take())
        t0 = time.perf_counter()
        one_pass()
        plain_walls.append(time.perf_counter() - t0)

    spans.write_spans(spans_path, [p[0] for p in passes])
    per_pass = [spans.summarize(s) for s, _ in passes]
    calls = {n: agg[0] for n, agg in per_pass[0].items()}
    counts = passes[0][1]
    if any({n: agg[0] for n, agg in p.items()} != calls for p in per_pass) or any(c != counts for _, c in passes):
        outcome.problems.append("traced passes over the same inputs made different calls")

    metrics: dict[str, tuple] = {}
    for n in spans.SPAN_NAMES:
        metrics[f"{n}.calls"] = (calls[n], "count", {})
        metrics[f"{n}.total_s"] = (statistics.median(p[n][1] for p in per_pass), "s", {"n": len(per_pass)})
        metrics[f"{n}.self_s"] = (statistics.median(p[n][2] for p in per_pass), "s", {"n": len(per_pass)})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall = statistics.median(traced_walls)
    plain = statistics.median(plain_walls)
    remainder = [w - spans.root_seconds(s) for w, (s, _) in zip(traced_walls, passes)]
    metrics.update({
        "encoder.rows": (counts["encoder.rows"], "count", {}),
        "encoder.tokens": (counts["encoder.tokens"], "count", {}),
        "encoder.padded_tokens": (counts["encoder.padded_tokens"], "count", {}),
        "encoder.rows_per_call": (ratio(counts["encoder.rows"], calls["encoder.encode_batch"]), "count", {}),
        "encoder.pad_efficiency": (ratio(counts["encoder.tokens"], counts["encoder.padded_tokens"]), "ratio", {}),
        "corpus.tokens_per_row": (ratio(counts["corpus.tokens"], counts["corpus.rows"]), "count", {}),
        "kb.options_per_mention": (ratio(counts["kb.options"], counts["kb.mentions"]), "count", {}),
        "kb.recall_at_k": (recall, "ratio", {}),
        "multiturn.turns": (counts["multiturn.turns"], "count", {}),
        "multiturn.turns_per_text": (ratio(counts["multiturn.turns"], counts["pipeline.texts"]), "count", {}),
        "trace.passes": (len(passes), "count", {}),
        "trace.wall_s": (wall, "s", timing(traced_walls)),
        "trace.untraced_remainder_s": (statistics.median(remainder), "s", timing(remainder)),
        "trace.overhead_s": (wall - plain, "s", {"untraced_wall": timing(plain_walls)}),
        "trace.overhead_pct": (100.0 * ratio(wall - plain, plain), "%", {}),
    })
    if name == "train":
        if len(digests) != 1:
            outcome.problems.append(f"repeated training gave {len(digests)} different models")
        return metrics, digests.pop()
    return metrics, loop.digest


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, table: dict[str, workloads.Sizes] = workloads.WORKLOADS):
    """One benchmark run; returns (result line, full report)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    outcome = Outcome()
    before = spans.bindings()
    if trace:
        metrics, digest = traced(name, table, seed, seconds, outcome, out_dir / f"spans-{name}-seed{seed}.jsonl.gz")
    else:
        metrics, digest = untraced(name, table, seed, seconds, outcome)
    after = spans.bindings()
    if after.keys() != before.keys() or any(after[k] is not before[k] for k in before):
        outcome.problems.append("a traced function was left replaced after the run")
    mismatch = checks.record_digest(out_dir / "digests", f"{name}-seed{seed}-{env['code_sha256'][:16]}", digest)
    if mismatch:
        outcome.problems.append(mismatch)

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": dataclasses.asdict(table[name]),
        "environment": env,
        "digest": digest,
        "failures": dict(outcome.failures),
        "problems": outcome.problems[:100],
        "metrics": {k: {"value": v, "unit": unit, **detail} for k, (v, unit, detail) in metrics.items()},
        "result": result,
    }
    return result, report


# ----------------------------- environment -----------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "code_sha256": code_hash(),
    }


def blas_threads() -> int | None:
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({f[5] for f in (line.split() for line in maps.splitlines()) if len(f) >= 6 and "blas" in Path(f[5]).name.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def code_hash() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = [*(ROOT / "src" / "mrclink").rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()
