"""Option scoring, NIL verifier, joint loss, and local training tests."""
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrclink.config import EncoderSettings, RunConfig
from mrclink.encoder import EncoderConfig
from mrclink.errors import ModelConfigError, SequenceOverflowError
from mrclink.kb import NIL, CandidateSet, Entity, KnowledgeBase, build_index, generate_candidates
from mrclink.local import (
    LocalModel,
    LocalScores,
    answer_loss,
    build_vocabulary,
    encode_sets,
    fit,
    joint_local_loss,
    load_model,
    local_backward,
    local_predict,
    nil_loss,
    nil_stage1,
    run_local_pass,
    save_model,
    score_options,
    train_local,
    with_gold,
)
from mrclink import encoder as enc
from mrclink.corpus import AnnotatedText, Mention, assemble_query_sequence, build_query, tokenize
from mrclink.encoder import softmax
from mrclink.multiturn import GlobalModel, train_global


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
        [scores] = score_options(model, [(cands, "what [MASK] does")])
        np.testing.assert_allclose(scores.probs, 1.0 / 3.0, atol=1e-12)

    def test_probabilities_form_a_simplex(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=True)
        [scores] = score_options(model, [(cands, "[MASK] kicks ball game")])
        assert abs(scores.probs.sum() - 1.0) < 1e-9
        assert np.all(scores.probs > 0) and np.all(scores.probs < 1)

    def test_permuting_candidates_permutes_scores(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        ents = tuple(kb)
        cands = CandidateSet("alpha", ents, includes_nil=False)
        perm = (2, 0, 1)
        shuffled = CandidateSet("alpha", tuple(ents[i] for i in perm), includes_nil=False)
        [a] = score_options(model, [(cands, "[MASK] kicks ball game")])
        [b] = score_options(model, [(shuffled, "[MASK] kicks ball game")])
        np.testing.assert_allclose(b.probs, a.probs[list(perm)], atol=1e-12)
        assert a.option_ids[int(np.argmax(a.probs))] == b.option_ids[int(np.argmax(b.probs))]

    def test_empty_candidate_set_rejected(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        with pytest.raises(ValueError):
            score_options(model, [(CandidateSet("s", (), includes_nil=False), "q")])


class TestAnswerLoss:
    def test_certain_answer_has_zero_loss(self):
        scores = LocalScores(("a", "b"), np.array([1.0, 0.0]))
        loss, grad = answer_loss(scores, 0)
        assert loss == 0.0
        np.testing.assert_allclose(grad, [0.0, 0.0])

    def test_uniform_loss_is_log_k(self):
        for k in (2, 3, 5, 8):
            scores = LocalScores(tuple("abcdefgh"[:k]), np.full(k, 1.0 / k))
            loss, _ = answer_loss(scores, 0)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_gradient_matches_finite_differences_k4(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=4)
        gold = 2

        def loss_of(z):
            return -math.log(softmax(z)[gold])

        _, grad = answer_loss(LocalScores(tuple("abcd"), softmax(logits)), gold)
        h = 1e-6
        for i in range(4):
            up, dn = logits.copy(), logits.copy()
            up[i] += h
            dn[i] -= h
            fd = (loss_of(up) - loss_of(dn)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)


def alpha_cands(kb):
    return generate_candidates(build_index(kb), "alpha", 5, with_nil=True)


class TestNilVerifier:
    def test_zero_logit_gives_half(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        model.nil["out_w"] = np.zeros_like(model.nil["out_w"])
        model.nil["out_b"] = np.zeros(1)
        [scores] = score_options(model, [(alpha_cands(kb), "[MASK] kicks ball game")])
        assert scores.nil == pytest.approx(0.5, abs=1e-12)

    def test_saturated_logit(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        model.nil["out_w"] = np.zeros_like(model.nil["out_w"])
        model.nil["out_b"] = np.array([20.0])
        [scores] = score_options(model, [(alpha_cands(kb), "[MASK] kicks ball game")])
        assert scores.nil > 0.9999

    def test_bce_values(self):
        assert nil_loss(0.5, True)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert nil_loss(0.5, False)[0] == pytest.approx(math.log(2), abs=1e-12)
        assert nil_loss(1.0 - 1e-12, True)[0] == pytest.approx(0.0, abs=1e-9)

    def test_bce_matches_independent_recomputation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = float(rng.uniform(1e-6, 1 - 1e-6))
            y = bool(rng.integers(0, 2))
            loss, grad = nil_loss(p, y)
            expect = -(int(y) * math.log(p) + (1 - int(y)) * math.log(1 - p))
            assert loss == pytest.approx(expect, rel=1e-12)
            assert grad == pytest.approx(p - int(y), abs=1e-12)

    def test_mlp_gradients_match_finite_differences(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        cands = alpha_cands(kb)
        query = "[MASK] kicks ball game"

        def loss_fn():
            [scores] = score_options(model, [(cands, query)])
            return nil_loss(scores.nil, True)[0]

        [scores] = score_options(model, [(cands, query)])
        _, dlogit = nil_loss(scores.nil, True)
        nil_only = RunConfig(alpha1=0.0, alpha2=1.0)
        g = np.zeros_like(model.flat)
        local_backward(model, scores, np.zeros(len(cands.options)), dlogit, nil_only, model.views(g))
        grads = model.named(g)
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
        scores = LocalScores(("e1", "e2", NIL), np.array([0.1, 0.2, 0.7]), 0.9)
        assert local_predict(scores) == (NIL, False)

    def test_stage_one_override(self):
        scores = LocalScores(("e1", "e2", NIL), np.array([0.8, 0.1, 0.1]), 0.2)
        assert local_predict(scores, nil_threshold=0.5) == (NIL, True)
        assert local_predict(scores, nil_threshold=0.5, apply_override=False) == ("e1", False)

    def test_confident_judgement_keeps_argmax(self):
        scores = LocalScores(("e1", "e2", NIL), np.array([0.8, 0.1, 0.1]), 0.9)
        assert local_predict(scores) == ("e1", False)

    def test_without_verifier_is_plain_argmax(self):
        scores = LocalScores(("e1", "e2"), np.array([0.4, 0.6]))
        assert local_predict(scores) == ("e2", False)

    def test_tie_breaks_by_candidate_order(self):
        scores = LocalScores(("e1", "e2"), np.array([0.5, 0.5]))
        assert local_predict(scores) == ("e1", False)


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
            [scores] = score_options(model, [(cands, query)])
            l_ans, _ = answer_loss(scores, gold_index)
            l_nil, _ = nil_loss(scores.nil, True)
            return joint_local_loss(l_ans, l_nil, cfg)

        [scores] = score_options(model, [(cands, query)])
        _, dlogits = answer_loss(scores, gold_index)
        _, dlogit = nil_loss(scores.nil, True)
        g = np.zeros_like(model.flat)
        local_backward(model, scores, dlogits, dlogit, cfg, model.views(g))
        grads = model.named(g)

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


def counting(monkeypatch, name):
    """Wrap ``encoder.<name>`` so every call through the module is counted."""
    calls = []
    original = getattr(enc, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(enc, name, wrapper)
    return calls


class TestQueryRowRidesAlong:
    """The verifier's ``[CLS] query [SEP]`` row shares the option rows' batch
    without changing what the option rows compute."""

    def test_option_probabilities_bitwise_equal_without_verifier(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus, seed=4)
        plain = replace(model, nil_verifier=False)
        cands = alpha_cands(kb)
        for query in ("[MASK] kicks ball game", "what [MASK] does", "[MASK]"):
            [with_row] = score_options(model, [(cands, query)])
            [without] = score_options(plain, [(cands, query)])
            assert with_row.probs.tobytes() == without.probs.tobytes()
            assert without.nil is None

    def test_nil_probability_matches_query_row_encoded_alone(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus, seed=5)
        cands = alpha_cands(kb)
        for query in ("[MASK] kicks ball game", "alpha sings [MASK] tune", "[MASK]"):
            [scores] = score_options(model, [(cands, query)])
            seq = assemble_query_sequence(tokenize(query, model.vocab), model.config.max_len)
            pooled, _ = enc.encode_batch(model.enc_params, model.config, np.array([seq]))
            alone, _ = nil_stage1(model, pooled[0])
            assert abs(scores.nil - alone) <= 1e-12

    def test_one_encoder_batch_per_text(self, monkeypatch):
        kb, _ = tiny_world()
        text = AnnotatedText(
            "alpha met beta near alpha",
            (Mention(0, 5, "alpha"), Mention(10, 14, "beta"), Mention(20, 25, "alpha")),
        )
        model = tiny_model(kb, [text])
        calls = counting(monkeypatch, "encode_batch")
        results = run_local_pass(model, text, build_index(kb), small_cfg())
        assert len(results) == 3 and all(r.scores.nil is not None for r in results)
        assert len(calls) == 1

    def test_one_encoder_backward_per_training_step(self, monkeypatch):
        kb, corpus = tiny_world()
        calls = counting(monkeypatch, "backprop_batch")
        train_local(corpus, kb, small_cfg(epochs_local=2))
        assert len(calls) == 2 * len(corpus)


SURFACES = ("alpha", "beta", "alpha sport", "alpha music", "gamma")  # 2, 1, 1, 1 and 0 entities
FILLER = ("kicks", "ball", "song", "the", "near")


def text_of(words):
    """An annotated text of ``words``; each ``(surface,)`` tuple is a mention."""
    parts, mentions, at = [], [], 0
    for w in words:
        surface = w[0] if isinstance(w, tuple) else w
        if isinstance(w, tuple):
            mentions.append(Mention(at, at + len(surface), surface))
        parts.append(surface)
        at += len(surface) + 1
    return AnnotatedText(" ".join(parts), tuple(mentions))


@st.composite
def local_texts(draw):
    words = []
    for _ in range(draw(st.integers(1, 5))):
        words.extend(draw(st.lists(st.sampled_from(FILLER), max_size=2)))
        words.append((draw(st.sampled_from(SURFACES)),))
    words.extend(draw(st.lists(st.sampled_from(FILLER), max_size=2)))
    return text_of(words)


class TestPerTextBatch:
    """``run_local_pass`` scores all of a text's mentions in one batch, and
    each mention gets bitwise what a batch of its own gives it."""

    @settings(max_examples=40, deadline=None)
    @given(text=local_texts(), k=st.integers(1, 3), nil_verifier=st.booleans())
    @example(text=text_of([("alpha",), "near", ("gamma",), "the", ("beta",)]), k=2, nil_verifier=False)
    def test_matches_one_pair_calls(self, text, k, nil_verifier):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus + [text], seed=6, nil_verifier=nil_verifier)
        cfg = small_cfg(k=k, nil_verifier=nil_verifier)
        index = build_index(kb)
        results = run_local_pass(model, text, index, cfg)
        assert [r.mention for r in results] == list(text.mentions)
        for r in results:
            cands = generate_candidates(index, r.mention.surface, k, with_nil=nil_verifier)
            assert r.candidates == cands
            if not cands.options:
                assert (r.scores.probs.size, r.scores.nil, r.selected, r.overridden) == (0, None, NIL, False)
                continue
            [alone] = score_options(model, [(cands, build_query(text, r.mention))])
            assert r.scores.probs.tobytes() == alone.probs.tobytes()
            if nil_verifier:
                assert np.float64(r.scores.nil).tobytes() == np.float64(alone.nil).tobytes()
            else:
                assert r.scores.nil is None and alone.nil is None
            assert (r.selected, r.overridden) == local_predict(alone, cfg.nil_threshold, cfg.nil_override)

    def test_overflow_in_second_mention_raises_its_own_error(self):
        # 27 tokens: masking "alpha sport" leaves a 26-token query that fits
        # beside a 2-token option name in max_len 32; masking "alpha" leaves 27
        words = [("alpha sport",), "met", ("alpha",)] + ["the"] * 23
        text = text_of(words)
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus, max_len=32)
        cfg = small_cfg(k=2)
        index = build_index(kb)
        first, second = (
            (generate_candidates(index, m.surface, 2), build_query(text, m)) for m in text.mentions
        )
        score_options(model, [first])
        with pytest.raises(SequenceOverflowError) as alone:
            score_options(model, [second])
        with pytest.raises(SequenceOverflowError) as batched:
            run_local_pass(model, text, index, cfg)
        assert str(batched.value) == str(alone.value)


# descriptions of 1-8 tokens and names of 1-3, so that sets pad to many widths
SET_ENTITIES = tuple(
    Entity(f"w{n}", " ".join(["alpha", "sport", "music"][: 1 + n % 3]), " ".join(["ball"] * n), (f"w{n}",), n)
    for n in range(1, 9)
)


@pytest.fixture(scope="module")
def set_models():
    """A local model of max_len 24 and a global model of max_len 40 on top of it."""
    kb, corpus = tiny_world()
    kb = KnowledgeBase(tuple(kb) + SET_ENTITIES)
    local = tiny_model(kb, corpus, seed=7, max_len=24)
    return local, GlobalModel.from_local(local, max_len=40)


@st.composite
def option_sets(draw):
    """An (options, query) set: 1-5 options and a query of 1-31 tokens."""
    options = tuple(draw(st.lists(st.sampled_from(SET_ENTITIES), min_size=1, max_size=5)))
    query = " ".join(["[MASK]", *draw(st.lists(st.sampled_from(FILLER), max_size=30))])
    return options, query


class TestEncodeSets:
    """``encode_sets`` encodes sets of equal padded width in one batch and gives
    each set bitwise the pooled rows it gets alone. That rests on the BLAS
    library computing a row alike in batches of any height."""

    @settings(max_examples=80, deadline=None)
    @given(sets=st.lists(option_sets(), min_size=1, max_size=6), use_global=st.booleans(), query_row=st.booleans())
    def test_sets_batched_match_sets_alone(self, set_models, sets, use_global, query_row):
        model = set_models[use_global]
        with mock.patch.object(enc, "encode_batch", wraps=enc.encode_batch) as spy:
            alone, widths, errors = [], set(), []
            for one in sets:
                try:
                    [(rows, _)] = encode_sets(model, [one], query_row)
                except SequenceOverflowError as exc:
                    errors.append(str(exc))
                    continue
                alone.append(rows)
                widths.add(spy.call_args.args[2].shape[1])
            spy.reset_mock()
            if errors:
                with pytest.raises(SequenceOverflowError) as batched:
                    encode_sets(model, sets, query_row)
                assert str(batched.value) == errors[0]
                assert spy.call_count == 0
                return
            encoded = encode_sets(model, sets, query_row)
        assert spy.call_count == len(widths)
        for (options, _), (rows, _), single in zip(sets, encoded, alone):
            assert rows.shape == (len(options) + query_row, model.config.d)
            assert rows.tobytes() == single.tobytes()


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

    @pytest.mark.parametrize("training", ["local", "global"])
    def test_training_log_schema(self, training, tmp_path):
        # both trainings write the one ``fit`` record, one line per epoch
        kb, corpus = tiny_world()
        corpus.append(AnnotatedText("alpha meets beta", (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", NIL))))
        cfg = small_cfg(epochs_local=2, epochs_global=2)
        log_path = tmp_path / "train.log"
        if training == "local":
            _, logs = train_local(corpus, kb, cfg, log_path=str(log_path))
        else:
            _, logs = train_global(corpus, kb, train_local(corpus, kb, cfg)[0], cfg, log_path=str(log_path))
        lines = log_path.read_text().strip().splitlines()
        assert len(lines) == len(logs) == 2
        assert [json.loads(line) for line in lines] == logs
        for rec in logs:
            assert set(rec) == {"epoch", "loss", "answer_accuracy", "nil_precision", "nil_recall"}
            assert all(0.0 <= rec[k] <= 1.0 for k in ("answer_accuracy", "nil_precision", "nil_recall"))


class TestFit:
    """``fit`` driven by stub steps on a tiny model."""

    def test_every_step_adds_into_a_zeroed_vector(self):
        # odd units write NaN garbage and score nothing, even units add a
        # gradient and score: a vector not zeroed before a step would show
        # the garbage here, or send NaN into the Adam step
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        seen = []

        def step(unit, grads, views):
            seen.append(not grads.any())
            if unit % 2:
                grads.fill(np.nan)
                return None
            grads += 1.0
            return float(unit), [("e1", "e1")]

        logs = fit(model, range(6), step, epochs=2, lr=1e-3, warmup=0.0, seed=0)
        assert seen == [True] * 12
        assert [rec["loss"] for rec in logs] == [2.0, 2.0]  # the mean of units 0, 2 and 4 alone

    def test_unscored_steps_make_no_adam_step(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        before = model.flat.copy()

        def step(unit, grads, views):
            grads += 1.0
            return None

        logs = fit(model, range(4), step, epochs=2, lr=1e-3, warmup=0.0, seed=0)
        assert model.flat.tobytes() == before.tobytes()
        assert [rec["loss"] for rec in logs] == [0.0, 0.0]

    def test_stop_accuracy_ends_training_after_the_epoch_reaching_it(self):
        kb, corpus = tiny_world()
        model = tiny_model(kb, corpus)
        calls = []

        def step(unit, grads, views):
            calls.append(unit)
            correct = len(calls) > 3  # every step from the second epoch on
            return 0.5, [("e1", "e1" if correct else "e2")]

        logs = fit(model, range(3), step, epochs=5, lr=1e-3, warmup=0.0, seed=0, stop_accuracy=1.0)
        assert [rec["answer_accuracy"] for rec in logs] == [0.0, 1.0]
        assert len(calls) == 6
