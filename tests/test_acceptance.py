"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy training fixtures are shared across the experiment criteria. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion lines.
"""
import filecmp
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mrclink.cli import main as cli_main
from mrclink.config import EncoderSettings, RunConfig
from mrclink.encoder import EncoderConfig, softmax
from mrclink.kb import (
    NIL,
    Entity,
    KnowledgeBase,
    build_index,
    generate_candidates,
    normalize_surface,
    prior_baseline,
)
from mrclink.corpus import AnnotatedText, Mention
from mrclink.local import (
    LocalModel,
    answer_loss,
    build_vocabulary,
    joint_local_loss,
    local_backward,
    nil_loss,
    score_options,
    train_local,
)
from mrclink.multiturn import (
    GlobalModel,
    gate_fuse_batch,
    global_backward,
    global_loss,
    global_score_mention,
    init_gate_params,
    rank_mentions,
    train_global,
)
from mrclink.pipeline import evaluate, link_corpus, rear_fusion
from mrclink.synth import SynthSpec, generate_synthetic_world

SEEDS = (0, 1, 2)


def report(number: int, label: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({label}): PASS - {detail}")


def close(a: float, b: float, rtol: float = 1e-4, atol: float = 1e-8) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# criterion 1: rear fusion reproduces the reference per-turn score table
# --------------------------------------------------------------------------

REFERENCE_ROWS = [
    # (local, global, rounded final), turns 2..5
    (0.08, 0.08, 0.08),
    (0.91, 0.89, 0.90),
    (0.28, 0.59, 0.44),
    (0.63, 0.08, 0.36),
    (0.07, 0.01, 0.04),
    (0.54, 0.97, 0.76),
    (0.30, 0.17, 0.24),
    (0.21, 0.47, 0.34),
    (0.33, 0.20, 0.27),
]


def test_criterion_1_rear_fusion_reference_table():
    worst = 0.0
    for local, glob, final in REFERENCE_ROWS:
        fused = float(rear_fusion(np.array([local]), np.array([glob]), 0.5)[0])
        worst = max(worst, abs(fused - final))
        assert abs(fused - final) <= 0.005 + 1e-12, (local, glob, final, fused)
    report(1, "rear fusion table", f"{len(REFERENCE_ROWS)} rows within ±0.005 (worst {worst:.4f})")


# --------------------------------------------------------------------------
# criterion 2: gradient suite at d in {4, 8}, five seeds, rel err 1e-4
# --------------------------------------------------------------------------


def _grad_world():
    # strings kept short so every encoded sequence stays within 12 tokens
    entities = [
        Entity("e1", "alpha sport", "alpha sport ball", ("alpha sport", "alpha"), 30),
        Entity("e2", "alpha music", "alpha music song", ("alpha music", "alpha"), 20),
        Entity("e3", "beta sport", "beta sport ball", ("beta sport", "beta"), 10),
    ]
    kb = KnowledgeBase(entities)
    corpus = [AnnotatedText("alpha kicks", (Mention(0, 5, "alpha", "e1"),))]
    return kb, corpus


def _fd_check(loss_fn, tensors, analytic, rng, cap=80):
    """Central differences (step 1e-4) against analytic grads, allclose style."""
    failures = []
    n_checked = 0
    for name, arr in tensors.items():
        flat = arr.ravel()
        gflat = np.asarray(analytic.get(name, np.zeros_like(arr))).ravel()
        if flat.size <= cap:
            idxs = np.arange(flat.size)
        else:
            idxs = rng.choice(flat.size, size=cap, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + 1e-4
            up = loss_fn()
            flat[i] = orig - 1e-4
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / 2e-4
            n_checked += 1
            if not close(fd, gflat[i]):
                failures.append((name, int(i), fd, float(gflat[i])))
    return n_checked, failures


def test_criterion_2_gradient_suite():
    kb, corpus = _grad_world()
    index = build_index(kb)
    cfg = RunConfig()
    total = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)

        # answer loss gradient w.r.t. option logits
        logits = rng.normal(size=4)
        probs = softmax(logits)
        from mrclink.local import LocalScores

        _, dlogits = answer_loss(LocalScores(tuple("abcd"), probs), 1)
        for i in range(4):
            up, dn = logits.copy(), logits.copy()
            up[i] += 1e-4
            dn[i] -= 1e-4
            fd = (-math.log(softmax(up)[1]) + math.log(softmax(dn)[1])) / 2e-4
            assert close(fd, dlogits[i])
            total += 1

        for d in (4, 8):
            vocab = build_vocabulary(corpus, kb)
            config = EncoderConfig(vocab_size=len(vocab), max_len=32, d=d, n_layers=1, n_heads=2, seed=seed)
            model = LocalModel.init(config, vocab)
            cands = generate_candidates(index, "alpha", 5, with_nil=True)
            query = "[MASK] kicks"
            gold = 0

            # NIL stage-1 BCE through the verifier MLP and encoder
            def nil_loss_fn():
                [s] = score_options(model, [(cands, query)])
                return nil_loss(s.nil, True)[0]

            [scores] = score_options(model, [(cands, query)])
            _, dlogit = nil_loss(scores.nil, True)
            nil_only = RunConfig(alpha1=0.0, alpha2=1.0)
            g = np.zeros_like(model.flat)
            local_backward(model, scores, np.zeros(len(cands.options)), dlogit, nil_only, model.views(g))
            nil_grads = model.named(g)
            n, bad = _fd_check(nil_loss_fn, model.parameters(), nil_grads, rng, cap=40)
            assert not bad, bad[:3]
            total += n

            # joint local loss through both paths
            def local_loss_fn():
                [scores] = score_options(model, [(cands, query)])
                l_ans, _ = answer_loss(scores, gold)
                l_nil, _ = nil_loss(scores.nil, True)
                return joint_local_loss(l_ans, l_nil, cfg)

            [scores] = score_options(model, [(cands, query)])
            _, dl = answer_loss(scores, gold)
            _, dlogit = nil_loss(scores.nil, True)
            g = np.zeros_like(model.flat)
            local_backward(model, scores, dl, dlogit, cfg, model.views(g))
            grads = model.named(g)
            n, bad = _fd_check(local_loss_fn, model.parameters(), grads, rng, cap=60)
            assert not bad, bad[:3]
            total += n

            # global loss through head, gate (all four weight blocks), and encoder
            gmodel = GlobalModel.from_local(model)
            history = rng.normal(size=d)

            def global_loss_fn():
                s = global_score_mention(gmodel, cands, query, history)
                return global_loss(s, gold)[0]

            gscores = global_score_mention(gmodel, cands, query, history)
            _, gdl = global_loss(gscores, gold)
            g = np.zeros_like(gmodel.flat)
            dhistory = global_backward(gmodel, gscores, gdl, gmodel.views(g))
            n, bad = _fd_check(global_loss_fn, gmodel.parameters(), gmodel.named(g), rng, cap=60)
            assert not bad, bad[:3]
            total += n
            for i in range(d):
                orig = history[i]
                history[i] = orig + 1e-4
                up = global_loss_fn()
                history[i] = orig - 1e-4
                down = global_loss_fn()
                history[i] = orig
                fd = (up - down) / 2e-4
                assert close(fd, dhistory[i])
                total += 1

    report(2, "gradient suite", f"{total} coordinates within rel err 1e-4 (d in {{4,8}}, 5 seeds)")


# --------------------------------------------------------------------------
# criterion 3: gate invariants over 1e5 randomized calls
# --------------------------------------------------------------------------


def test_criterion_3_gate_invariants():
    d = 8
    rng = np.random.default_rng(42)
    batch = 1000
    n_calls = 0
    for trial in range(100):
        gate = init_gate_params(d, seed=trial)
        v = rng.normal(size=(batch, d)) * 3.0
        h = rng.normal(size=d) * 3.0
        out = gate_fuse_batch(v, h, gate)
        lo = np.minimum(out.fusion, h) - 1e-12
        hi = np.maximum(out.fusion, h) + 1e-12
        assert np.all(out.fused >= lo) and np.all(out.fused <= hi)
        assert np.all(out.keep_gate > 0) and np.all(out.keep_gate < 1)
        assert np.all(out.update_gate > 0) and np.all(out.update_gate < 1)
        n_calls += batch
    zero = {
        "update_w": np.zeros((d, 2 * d)),
        "fuse_w": np.zeros((d, 2 * d)),
        "keep_cur_w": np.zeros((d, d)),
        "keep_hist_w": np.zeros((d, d)),
    }
    h = rng.normal(size=d)
    out = gate_fuse_batch(rng.normal(size=(batch, d)), h, zero)
    assert np.max(np.abs(out.fused - 0.5 * h)) <= 1e-12
    report(3, "gate invariants", f"{n_calls} randomized calls bounded; zero-parameter form exact")


# --------------------------------------------------------------------------
# criterion 4: index, prior, and ranking agree with brute force
# --------------------------------------------------------------------------


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(7)
    n_kbs = 100
    n_surface_checks = 0
    for _ in range(n_kbs):
        n_entities = int(rng.integers(10, 1001))
        n_surfaces = max(3, n_entities // 4)
        surfaces = [f"s{j}" for j in range(n_surfaces)]
        entities = []
        for i in range(n_entities):
            own = surfaces[int(rng.integers(0, n_surfaces))]
            aliases = [own]
            if rng.random() < 0.4:
                aliases.append(surfaces[int(rng.integers(0, n_surfaces))])
            entities.append(
                Entity(f"e{i:05d}", aliases[0], "", tuple(aliases), int(rng.integers(0, 40)))
            )
        kb = KnowledgeBase(entities)
        index = build_index(kb)

        normalized = [(e, {normalize_surface(a) for a in e.aliases}) for e in kb]
        probe = [surfaces[int(i)] for i in rng.integers(0, n_surfaces, size=8)] + ["zz-unknown"]
        for surface in probe:
            key = normalize_surface(surface)
            brute = sorted(
                ((e.id, e.popularity) for e, keys in normalized if key in keys),
                key=lambda kv: (-kv[1], kv[0]),
            )
            k = int(rng.integers(1, 8))
            got = generate_candidates(index, surface, k, with_nil=False)
            assert list(got.option_ids) == [eid for eid, _ in brute[:k]]

            got_id, got_p = prior_baseline(index, surface)
            if not brute:
                assert (got_id, got_p) == (NIL, 0.0)
            else:
                total = sum(p for _, p in brute)
                assert got_id == brute[0][0]
                expect = brute[0][1] / total if total else 0.0
                assert abs(got_p - expect) <= 1e-12
            n_surface_checks += 1

    n_rank_checks = 0
    for _ in range(300):
        k = int(rng.integers(1, 8))
        p = softmax(rng.normal(size=k) * 4)
        gap = rank_mentions([p]).gaps[0]
        brute = max(abs(p[i] - p[j]) for i in range(k) for j in range(k))
        assert abs(gap - brute) <= 1e-15
        n_rank_checks += 1
    report(4, "oracle equivalence", f"{n_kbs} KBs / {n_surface_checks} lookups and {n_rank_checks} gap checks agree")


# --------------------------------------------------------------------------
# criteria 5-8 share trained models on the synthetic world
# --------------------------------------------------------------------------


def _world_and_config(seed: int):
    spec = SynthSpec(n_entities=200, n_train_texts=300, n_test_texts=260, seed=seed)
    cfg = RunConfig(
        seed=seed,
        encoder=EncoderSettings(d=32, n_layers=1, n_heads=2),
        max_len_local=48,
        max_len_global=64,
        lr_local=2e-3,
        lr_global=1e-3,
        epochs_local=50,
        epochs_global=8,
        stop_accuracy=0.97,
    )
    return generate_synthetic_world(spec), cfg


@pytest.fixture(scope="module")
def experiments():
    runs = {}
    for seed in SEEDS:
        world, cfg = _world_and_config(seed)
        local, logs = train_local(world.train, world.kb, cfg)
        glob, _ = train_global(world.train, world.kb, local, cfg)
        cfg_off = replace(cfg, nil_verifier=False)
        local_off, _ = train_local(world.train, world.kb, cfg_off)
        planted_idx = [i for i, k in enumerate(world.test_kinds) if k == "planted"]
        runs[seed] = SimpleNamespace(
            world=world,
            cfg=cfg,
            cfg_off=cfg_off,
            local=local,
            glob=glob,
            local_off=local_off,
            logs=logs,
            planted_idx=planted_idx,
        )
    return runs


def _planted_eval(run, decisions):
    planted = [run.world.test[i] for i in run.planted_idx]
    return evaluate(planted, [decisions[i] for i in run.planted_idx])


def test_criterion_5_overfit_sanity(experiments):
    details = []
    for seed in SEEDS:
        run = experiments[seed]
        best = max(rec["answer_accuracy"] for rec in run.logs)
        assert best >= 0.95, (seed, best)
        assert len(run.logs) <= 50
        details.append(f"seed {seed}: {best:.3f} in {len(run.logs)} epochs")
    # determinism at this scale: two short reruns agree bitwise
    world, cfg = _world_and_config(SEEDS[0])
    short = replace(cfg, epochs_local=2, stop_accuracy=None)
    m1, l1 = train_local(world.train, world.kb, short)
    m2, l2 = train_local(world.train, world.kb, short)
    assert l1 == l2
    assert all(m1.parameters()[k].tobytes() == m2.parameters()[k].tobytes() for k in m1.parameters())
    report(5, "overfit sanity", "; ".join(details) + "; rerun bitwise-identical")


def test_criterion_6_coherence_lift(experiments):
    details = []
    for seed in SEEDS:
        run = experiments[seed]
        dec_local, errors_local = link_corpus(run.world.test, run.world.kb, run.local, None, run.cfg)
        dec_full, errors_full = link_corpus(run.world.test, run.world.kb, run.local, run.glob, run.cfg)
        assert errors_local == [] and errors_full == []
        r_local = _planted_eval(run, dec_local)
        r_full = _planted_eval(run, dec_full)
        assert r_full.n_mentions >= 200, r_full.n_mentions
        lift = r_full.accuracy - r_local.accuracy
        assert lift >= 0.05, (seed, r_local.accuracy, r_full.accuracy)
        details.append(f"seed {seed}: {r_local.accuracy:.3f}->{r_full.accuracy:.3f} (+{lift*100:.1f}pp)")
    report(6, "coherence lift", "; ".join(details))


def test_criterion_7_nil_lift(experiments):
    details = []
    for seed in SEEDS:
        run = experiments[seed]
        dec_on, errors_on = link_corpus(run.world.test, run.world.kb, run.local, run.glob, run.cfg)
        dec_off, errors_off = link_corpus(run.world.test, run.world.kb, run.local_off, None, run.cfg_off)
        assert errors_on == [] and errors_off == []
        r_on = evaluate(run.world.test, dec_on)
        r_off = evaluate(run.world.test, dec_off)
        recall_lift = r_on.nil_recall - r_off.nil_recall
        assert recall_lift >= 0.10, (seed, r_on.nil_recall, r_off.nil_recall)
        assert r_on.accuracy >= r_off.accuracy, (seed, r_on.accuracy, r_off.accuracy)
        details.append(
            f"seed {seed}: recall {r_off.nil_recall:.2f}->{r_on.nil_recall:.2f}, "
            f"acc {r_off.accuracy:.3f}->{r_on.accuracy:.3f}"
        )
    report(7, "NIL lift", "; ".join(details))


def test_criterion_8_ablation_directions(experiments):
    details = []
    for seed in SEEDS:
        run = experiments[seed]
        dec_full, errors = link_corpus(run.world.test, run.world.kb, run.local, run.glob, run.cfg)
        assert errors == []
        base = _planted_eval(run, dec_full).accuracy
        drops = {}
        for name, kwargs in (
            ("no_rerank", dict(no_rerank=True)),
            ("no_query_update", dict(no_query_update=True)),
            ("history_last", dict(history_mode="last")),
        ):
            dec, errors = link_corpus(
                run.world.test, run.world.kb, run.local, run.glob, replace(run.cfg, **kwargs)
            )
            assert errors == []
            acc = _planted_eval(run, dec).accuracy
            drops[name] = base - acc
        # no ablation may help by more than noise, and one must strictly hurt
        assert all(drop >= -0.01 - 1e-9 for drop in drops.values()), (seed, drops)
        assert any(drop > 0 for drop in drops.values()), (seed, drops)
        details.append(
            f"seed {seed}: " + ", ".join(f"{k} -{v * 100:.1f}pp" for k, v in drops.items())
        )
    report(8, "ablation directions", "; ".join(details))


# --------------------------------------------------------------------------
# criterion 9: CLI determinism, bitwise identical outputs across two runs
# --------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "seed": 0,
        "encoder": {"d": 8, "n_layers": 1, "n_heads": 2},
        "max_len_local": 48,
        "max_len_global": 48,
        "lr_local": 2e-3,
        "lr_global": 1e-3,
        "epochs_local": 2,
        "epochs_global": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    def run_all(out):
        out.mkdir()
        assert cli_main([
            "gen-synth", "--entities", "60", "--train-texts", "30", "--test-texts", "16",
            "--topics", "4", "--anchors-per-topic", "2", "--seed", "0",
            "--kb-out", str(out / "kb.jsonl"),
            "--train-out", str(out / "train.jsonl"),
            "--test-out", str(out / "test.jsonl"),
        ]) == 0
        assert cli_main([
            "train-local", "--kb", str(out / "kb.jsonl"), "--corpus", str(out / "train.jsonl"),
            "--config", str(cfg_path), "--out", str(out / "local.ckpt"), "--log", str(out / "local.log"),
        ]) == 0
        assert cli_main([
            "train-global", "--kb", str(out / "kb.jsonl"), "--corpus", str(out / "train.jsonl"),
            "--local-model", str(out / "local.ckpt"), "--config", str(cfg_path),
            "--out", str(out / "global.ckpt"), "--log", str(out / "global.log"),
        ]) == 0
        assert cli_main([
            "link", "--kb", str(out / "kb.jsonl"), "--corpus", str(out / "test.jsonl"),
            "--local-model", str(out / "local.ckpt"), "--global-model", str(out / "global.ckpt"),
            "--config", str(cfg_path), "--out", str(out / "decisions.jsonl"),
        ]) == 0
        assert cli_main([
            "eval", "--corpus", str(out / "test.jsonl"), "--decisions", str(out / "decisions.jsonl"),
            "--out", str(out / "report.json"),
        ]) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    artifacts = [
        "kb.jsonl", "train.jsonl", "test.jsonl",
        "local.ckpt", "local.log", "global.ckpt", "global.log",
        "decisions.jsonl", "report.json",
    ]
    for name in artifacts:
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name
    report(9, "determinism", f"{len(artifacts)} artifacts bitwise identical across two runs")
