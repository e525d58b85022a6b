"""Option scoring, NIL verifier, joint loss, and local training tests."""
import math
from dataclasses import replace

import numpy as np
import pytest

from mrclink.config import EncoderSettings, RunConfig
from mrclink.encoder import EncoderConfig
from mrclink.errors import ModelConfigError
from mrclink.kb import NIL, CandidateSet, Entity, KnowledgeBase, build_index, generate_candidates
from mrclink.local import (
    LocalModel,
    LocalScores,
    NilJudgement,
    _answer_backward,
    _nil_backward,
    answer_loss,
    build_vocabulary,
    joint_local_loss,
    load_model,
    local_predict,
    nil_loss,
    nil_stage1,
    save_model,
    score_options,
    train_local,
    with_gold,
)
from mrclink.corpus import AnnotatedText, Mention
from mrclink.encoder import softmax


def tiny_world():
    entities = [
        Entity("e1", "alpha sport", "alpha sport ball game", ("alpha sport", "alpha"), 30),
        Entity("e2", "alpha music", "alpha music song tune", ("alpha music", "alpha"), 20),
        Entity("e3", "beta sport", "beta sport ball game", ("beta sport", "beta"), 10),
    ]
    kb = KnowledgeBase(entities)
    texts = [
        ("alpha kicks ball game", "e1"),
        ("alpha sings song tune", "e2"),
        ("beta kicks ball game", "e3"),
        ("alpha cooks stew pot", NIL),
    ]
    corpus = []
    for body, gold in texts:
        surface = body.split()[0]
        corpus.append(
            AnnotatedText(body, (Mention(0, len(surface), surface, gold),))
        )
    return kb, corpus


def tiny_model(kb, corpus, d=8, seed=0, nil_verifier=True, max_len=32):
    vocab = build_vocabulary(corpus, kb)
    config = EncoderConfig(vocab_size=len(vocab), max_len=max_len, d=d, n_layers=1, n_heads=2, seed=seed)
    return LocalModel.init(config, vocab, nil_verifier=nil_verifier)


class TestSoftmaxScores:
    def test_two_logit_probabilities(self):
        # exp-normalize of [2, 0], evaluated independently with math.exp
        probs = softmax(np.array([2.0, 0.0]))
        e2 = math.exp(2.0)
        assert probs[0] == pytest.approx(e2 / (e2 + 1.0), abs=1e-12)
        assert probs[0] == pytest.approx(0.8808, abs=1e-4)
        assert probs[1] == pytest.approx(0.1192, abs=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=6)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 13.7), atol=1e-12)

    def test_identical_options_score_uniformly(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        same = Entity("x", "same name", "same words here", ("same",), 1)
        cands = CandidateSet("same", (same, same, same), includes_nil=False)
        scores, _ = score_options(model, cands, "what [MASK] does")
        np.testing.assert_allclose(scores.probs, 1.0 / 3.0, atol=1e-12)

    def test_probabilities_form_a_simplex(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=True)
        scores, _ = score_options(model, cands, "[MASK] kicks ball game")
        assert abs(scores.probs.sum() - 1.0) < 1e-9
        assert np.all(scores.probs > 0) and np.all(scores.probs < 1)

    def test_permuting_candidates_permutes_scores(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        ents = tuple(kb)
        cands = CandidateSet("alpha", ents, includes_nil=False)
        perm = (2, 0, 1)
        shuffled = CandidateSet("alpha", tuple(ents[i] for i in perm), includes_nil=False)
        a, _ = score_options(model, cands, "[MASK] kicks ball game")
        b, _ = score_options(model, shuffled, "[MASK] kicks ball game")
        np.testing.assert_allclose(b.probs, a.probs[list(perm)], atol=1e-12)
        assert a.option_ids[int(np.argmax(a.probs))] == b.option_ids[int(np.argmax(b.probs))]

    def test_empty_candidate_set_rejected(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        with pytest.raises(ValueError):
            score_options(model, CandidateSet("s", (), includes_nil=False), "q")


class TestAnswerLoss:
    def test_certain_answer_has_zero_loss(self):
        scores = LocalScores(("a", "b"), np.array([1.0, 0.0]), np.zeros((2, 4)))
        loss, grad = answer_loss(scores, 0)
        assert loss == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0])

    def test_uniform_loss_is_log_k(self):
        for k in (2, 3, 5, 8):
            scores = LocalScores(tuple("abcdefgh"[:k]), np.full(k, 1.0 / k), np.zeros((k, 4)))
            loss, _ = answer_loss(scores, 0)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_gradient_matches_finite_differences_k4(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=4)
        gold = 2

        def loss_of(z):
            return -math.log(softmax(z)[gold])

        _, grad = answer_loss(LocalScores(tuple("abcd"), softmax(logits), np.zeros((4, 2))), gold)
        h = 1e-6
        for i in range(4):
            up, dn = logits.copy(), logits.copy()
            up[i] += h
            dn[i] -= h
            fd = (loss_of(up) - loss_of(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)


class TestNilVerifier:
    def test_zero_logit_gives_half(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        model.nil["out_w"] = np.zeros_like(model.nil["out_w"])
        model.nil["out_b"] = np.zeros(1)
        judgement, _ = nil_stage1(model, "[MASK] kicks ball game")
        assert judgement.prob == pytest.approx(0.5, abs=1e-12)

    def test_saturated_logit(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        model.nil["out_w"] = np.zeros_like(model.nil["out_w"])
        model.nil["out_b"] = np.array([20.0])
        judgement, _ = nil_stage1(model, "[MASK] kicks ball game")
        assert judgement.prob > 0.9999

    def test_bce_values(self):
        assert nil_loss(NilJudgement(0.5), True)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert nil_loss(NilJudgement(0.5), False)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert nil_loss(NilJudgement(1.0 - 1e-12), True)[0] == pytest.approx(0.0, abs=1e-9)

    def test_bce_matches_independent_recomputation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = float(rng.uniform(1e-6, 1 - 1e-6))
            y = bool(rng.integers(0, 2))
            loss, grad = nil_loss(NilJudgement(p), y)
            expect = -(int(y) * math.log(p) + (1 - int(y)) * math.log(1 - p))
            assert loss == pytest.approx(expect, rel=1e-12)
            assert grad == pytest.approx(p - int(y), abs=1e-12)

    def test_mlp_gradients_match_finite_differences(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        query = "[MASK] kicks ball game"

        def loss_fn():
            j, _ = nil_stage1(model, query)
            return nil_loss(j, True)[0]

        judgement, tape = nil_stage1(model, query, keep_tape=True)
        _, dlogit = nil_loss(judgement, True)
        grads = _nil_backward(model, tape, dlogit, scale=1.0)
        h = 1e-5
        for group, name in (("nil", "hidden_w"), ("nil", "hidden_b"), ("nil", "out_w"), ("nil", "out_b")):
            arr = getattr(model, group)[name]
            flat = arr.ravel()
            gflat = grads[f"{group}.{name}"].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                dn = loss_fn()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - gflat[i]) <= 1e-8 + 1e-4 * max(abs(fd), abs(gflat[i]))


class TestJointLoss:
    def test_zero_nil_weight(self):
        cfg = RunConfig(alpha1=0.75, alpha2=0.0)
        assert joint_local_loss(1.3, 99.0, cfg) == pytest.approx(0.75 * 1.3, abs=1e-15)

    def test_convex_weights_preserve_common_value(self):
        cfg = RunConfig()
        assert joint_local_loss(math.log(2), math.log(2), cfg) == pytest.approx(math.log(2), abs=1e-15)


class TestLocalPredict:
    def test_argmax_selects_nil_option(self):
        scores = LocalScores(("e1", "e2", NIL), np.array([0.1, 0.2, 0.7]), np.zeros((3, 2)))
        assert local_predict(scores, NilJudgement(0.9)) == NIL

    def test_stage_one_override(self):
        scores = LocalScores(("e1", "e2", NIL), np.array([0.8, 0.1, 0.1]), np.zeros((3, 2)))
        assert local_predict(scores, NilJudgement(0.2), nil_threshold=0.5) == NIL

    def test_confident_judgement_keeps_argmax(self):
        scores = LocalScores(("e1", "e2", NIL), np.array([0.8, 0.1, 0.1]), np.zeros((3, 2)))
        assert local_predict(scores, NilJudgement(0.9)) == "e1"

    def test_without_verifier_is_plain_argmax(self):
        scores = LocalScores(("e1", "e2"), np.array([0.4, 0.6]), np.zeros((2, 2)))
        assert local_predict(scores, None) == "e2"

    def test_tie_breaks_by_candidate_order(self):
        scores = LocalScores(("e1", "e2"), np.array([0.5, 0.5]), np.zeros((2, 2)))
        assert local_predict(scores, None) == "e1"


class TestGoldInjection:
    def test_gold_replaces_lowest_priority_when_full(self):
        ents = tuple(Entity(f"e{i}", f"n{i}", popularity=10 - i) for i in range(3))
        cands = CandidateSet("s", ents, includes_nil=False)
        gold = Entity("gold", "gold name")
        out = with_gold(cands, gold, k=3)
        assert out.option_ids == ("e0", "e1", "gold")

    def test_gold_appended_when_room(self):
        ents = (Entity("e0", "n0"),)
        cands = CandidateSet("s", ents, includes_nil=False)
        out = with_gold(cands, Entity("gold", "g"), k=5)
        assert out.option_ids == ("e0", "gold")

    def test_nil_option_stays_last(self):
        from mrclink.kb import NIL_OPTION

        cands = CandidateSet("s", (Entity("e0", "n0"), NIL_OPTION), includes_nil=True)
        out = with_gold(cands, Entity("gold", "g"), k=5)
        assert out.option_ids == ("e0", "gold", NIL)

    def test_present_gold_is_untouched(self):
        ents = (Entity("e0", "n0"), Entity("e1", "n1"))
        cands = CandidateSet("s", ents, includes_nil=False)
        assert with_gold(cands, ents[0], k=5) is cands


class TestJointGradients:
    def test_full_local_loss_matches_finite_differences(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus, d=8, seed=3)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=True)
        query = "[MASK] kicks ball game"
        cfg = RunConfig()
        gold_index = 0

        def loss_fn():
            scores, _ = score_options(model, cands, query)
            l_ans, _ = answer_loss(scores, gold_index)
            judgement, _ = nil_stage1(model, query)
            l_nil, _ = nil_loss(judgement, True)
            return joint_local_loss(l_ans, l_nil, cfg)

        scores, tape = score_options(model, cands, query, keep_tape=True)
        _, dlogits = answer_loss(scores, gold_index)
        grads = _answer_backward(model, tape, dlogits, cfg.alpha1)
        judgement, ntape = nil_stage1(model, query, keep_tape=True)
        _, dlogit = nil_loss(judgement, True)
        for k, v in _nil_backward(model, ntape, dlogit, cfg.alpha2).items():
            grads[k] = grads.get(k, 0) + v

        rng = np.random.default_rng(0)
        flat_params = model.parameters()
        h = 1e-5
        for name, arr in flat_params.items():
            flat = arr.ravel()
            gflat = np.asarray(grads.get(name, np.zeros_like(arr))).ravel()
            n_checks = min(flat.size, 40)
            for i in rng.choice(flat.size, size=n_checks, replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                dn = loss_fn()
                flat[i] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - gflat[i]) <= 1e-8 + 1e-4 * max(abs(fd), abs(gflat[i])), (name, i)


def small_cfg(seed=0, **kw):
    defaults = dict(
        seed=seed,
        encoder=EncoderSettings(d=8, n_layers=1, n_heads=2),
        max_len_local=32,
        max_len_global=32,
        lr_local=1e-3,
        lr_global=1e-3,
        epochs_local=2,
        epochs_global=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestTrainLocal:
    def test_zero_epochs_returns_initialization(self):
        kb, corpus = tiny_world()
        cfg = small_cfg(epochs_local=0)
        model, logs = train_local(corpus, kb, cfg)
        fresh = LocalModel.init(model.config, model.vocab)
        assert logs == []
        for k, v in model.parameters().items():
            assert v.tobytes() == fresh.parameters()[k].tobytes()

    def test_fixed_seed_training_is_bitwise_reproducible(self):
        kb, corpus = tiny_world()
        cfg = small_cfg(epochs_local=2)
        m1, logs1 = train_local(corpus, kb, cfg)
        m2, logs2 = train_local(corpus, kb, cfg)
        assert logs1 == logs2
        for k, v in m1.parameters().items():
            assert v.tobytes() == m2.parameters()[k].tobytes()

    def test_loss_non_increasing_on_one_example(self):
        kb, corpus = tiny_world()
        corpus = corpus[:1]
        cfg = small_cfg(lr_local=1e-3, epochs_local=15)
        _, logs = train_local(corpus, kb, cfg)
        losses = [rec["loss"] for rec in logs]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])), losses

    def test_verifier_disabled_skips_unlinkable_mentions(self):
        kb, corpus = tiny_world()
        cfg = small_cfg(nil_verifier=False, epochs_local=1)
        model, logs = train_local(corpus, kb, cfg)
        assert model.nil_verifier is False
        assert logs[0]["nil_recall"] == 0.0

    def test_missing_gold_entity_raises(self):
        kb, corpus = tiny_world()
        bad = AnnotatedText("gamma runs", (Mention(0, 5, "gamma", gold="e404"),))
        with pytest.raises(ModelConfigError):
            train_local(corpus + [bad], kb, small_cfg(epochs_local=1))

    def test_checkpoint_round_trip(self, tmp_path):
        kb, corpus = tiny_world()
        model, _ = train_local(corpus, kb, small_cfg(epochs_local=1))
        path = tmp_path / "local.ckpt"
        save_model(model, str(path))
        back = load_model(str(path), LocalModel)
        assert back.config == model.config
        assert back.vocab.to_dict() == model.vocab.to_dict()
        assert back.nil_verifier == model.nil_verifier
        for k, v in model.parameters().items():
            assert back.parameters()[k].tobytes() == v.tobytes()

    def test_training_log_schema(self, tmp_path):
        kb, corpus = tiny_world()
        log_path = tmp_path / "train.log"
        _, logs = train_local(corpus, kb, small_cfg(epochs_local=2), log_path=str(log_path))
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == len(logs) == 2
        import json

        rec = json.loads(lines[0])
        assert set(rec) == {"epoch", "loss", "answer_accuracy", "nil_precision", "nil_recall"}
