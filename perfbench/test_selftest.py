"""Self-test of the benchmark at tiny size: python3 -m pytest perfbench

Every layer function listed for a workload must show up in its traced run,
so a refactor that silently drops a span fails here; an untraced run must
leave every traced binding untouched; the output checks, failure accounting
and determinism digests must catch what they are there to catch.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mrclink.corpus import AnnotatedText, Mention  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

LINK_FUNCTIONS = {
    "kb.generate_candidates",
    "corpus.assemble_option_sequence",
    "corpus.assemble_query_sequence",
    "corpus.update_query",
    "encoder.encode_batch",
    "local.score_options",
    "local.nil_stage1",
    "local.run_local_pass",
    "multiturn.run_multi_turn",
    "multiturn.global_score_mention",
    "multiturn.gate_fuse_batch",
    "multiturn.encode_option_vector",
    "pipeline.link_text",
    "pipeline.rear_fusion",
}
TRAIN_ONLY = {
    "kb.build_index",
    "encoder.backprop_batch",
    "encoder.adam_step",
    "local.train_local",
    "multiturn.gate_backward",
    "multiturn.train_global",
}
# per-layer functions each workload's traced run must reach
EXPECTED = {
    "train": TRAIN_ONLY | LINK_FUNCTIONS - {"multiturn.run_multi_turn", "pipeline.link_text", "pipeline.rear_fusion"},
    "link-short": LINK_FUNCTIONS,
    "link-long": LINK_FUNCTIONS,
}


def test_expected_functions_are_the_traced_ones():
    assert set().union(*EXPECTED.values()) == set(spans.SPAN_NAMES)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_checked_and_traced(name, tmp_path):
    before = spans.bindings()
    result, report = bench.run(name, 0, 0, False, tmp_path, workloads.TINY)
    after = spans.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    # the traced run makes the same decisions (its digest lands in the same store)
    result, report = bench.run(name, 0, 0, True, tmp_path, workloads.TINY)
    assert result["correct"], report["problems"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    calls = {n: result["metrics"][f"{n}.calls"]["value"] for n in spans.SPAN_NAMES}
    assert {n for n, c in calls.items() if c > 0} == EXPECTED[name]
    assert (tmp_path / f"spans-{name}-seed0.jsonl.gz").is_file()


def test_tracer_replaces_every_binding_and_restores_it():
    before = spans.bindings()
    # functions bound in more than one module by ``from ... import``
    for key in (
        ("mrclink.local", "generate_candidates"),
        ("mrclink.multiturn", "generate_candidates"),
        ("mrclink.multiturn", "run_local_pass"),
        ("mrclink.pipeline", "run_local_pass"),
        ("mrclink.encoder", "encode_batch"),
    ):
        assert key in before
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(sys.modules[m], a) is not before[(m, a)] for m, a in before)
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is before[(m, a)] for m, a in before)


@pytest.fixture(scope="module")
def tiny_link():
    sizes = workloads.TINY["link-short"]
    st = workloads.setup("link-short", sizes, 0)
    text = next(t for t in st.texts if len(t.mentions) == 2)
    return st, text


def test_check_decisions_flags_each_violation(tiny_link):
    st, text = tiny_link
    good = workloads.link(st, text)
    assert checks.check_decisions(text, good) == []
    first = next(d for d in good if d.rank == 0)
    later = next(d for d in good if d.rank == 1)

    def broken(dec, **changes):
        out = list(good)
        out[good.index(dec)] = type(dec)(**{**dec.__dict__, **changes})
        return out

    assert checks.check_decisions(text, good[:1])
    assert checks.check_decisions(text, broken(first, local_probs=first.local_probs * 0.5))
    assert checks.check_decisions(text, broken(later, fused_probs=np.full_like(later.fused_probs, np.nan)))
    assert checks.check_decisions(text, broken(first, selected="no-such-entity"))
    assert checks.check_decisions(text, broken(first, global_probs=later.global_probs, fused_probs=later.fused_probs))
    assert checks.check_decisions(text, broken(later, rank=0))


def test_failing_text_is_counted_and_the_loop_goes_on(tiny_link):
    st, text = tiny_link
    surface = text.mentions[0].surface
    words = [surface] + ["filler"] * 60  # more query tokens than max_len holds
    long_text = AnnotatedText(" ".join(words), (Mention(0, len(surface), surface, text.mentions[0].gold),))
    st = workloads.State(st.world, [long_text, text], st.index, st.cfg, st.training)
    outcome = bench.Outcome()
    loop = bench.LinkLoop(st, 2, outcome)
    loop.step(0)
    loop.step(1)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.failures == {"SequenceOverflowError": 1}
    assert outcome.problems == [] and list(loop.latencies) == [1]
    assert loop.mentions == 2 and loop.failed_mentions == 1


def test_digest_store_flags_disagreement(tmp_path):
    assert checks.record_digest(tmp_path, "w-seed0-code", "aa") is None
    assert checks.record_digest(tmp_path, "w-seed0-code", "aa") is None
    assert "differs" in checks.record_digest(tmp_path, "w-seed0-code", "bb")


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
