"""Run one benchmark workload against the mrclink sources under src/.

    python3 perfbench/run.py --workload {train,link-short,link-long} --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of BENCHMARK.json in an untraced run (``--trace 0``), every per-layer
metric in a traced one. The full report (environment, sample counts and
tails, determinism digest, failures) goes to perfbench/out/. Without the
package sources the script exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mrclink" / "__init__.py").is_file():
        print(f"perfbench: no mrclink package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One process with one BLAS thread (never more than nproc); numpy reads
    # these when it loads, so they are set before the imports below.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = HERE / "out"
    result, report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), out)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    produced = {name: m["unit"] for name, m in result["metrics"].items()}
    if produced != declared:
        print(f"perfbench: metrics {sorted(set(produced) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 3

    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    env = report["environment"]
    print(
        f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} blas {env['blas']} "
        f"({env['blas_threads']} threads) nproc {env['nproc']} commit {env['git_commit'][:12]}"
    )
    for name, m in report["metrics"].items():
        details = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(f"{name:44s} {m['value']:<14.6g} {m['unit']:6s} {_flat(details)}")
    for problem in report["problems"][:10]:
        print(f"PROBLEM: {problem}")
    if report["failures"]:
        print(f"failures by type: {report['failures']}")
    print(f"digest {report['digest']}  report {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _flat(details: dict, prefix: str = "") -> str:
    """``a=1 b.c=2`` for a metric's sample counts and percentiles."""
    parts = []
    for k, v in details.items():
        if isinstance(v, dict):
            parts.append(_flat(v, f"{prefix}{k}."))
        else:
            parts.append(f"{prefix}{k}={v:.6g}" if isinstance(v, float) else f"{prefix}{k}={v}")
    return " ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
