"""Ambiguity ranking, gated history fusion, global scoring, multi-turn, and
parameter-layout tests."""
import math
from dataclasses import replace

import numpy as np
import pytest

from mrclink.config import EncoderSettings, RunConfig
from mrclink.corpus import AnnotatedText, Mention, build_query, update_query
from mrclink.encoder import AdamState, EncoderConfig, softmax
from mrclink.errors import InputFormatError, ModelConfigError
from mrclink.kb import NIL, CandidateSet, Entity, KnowledgeBase, build_index, generate_candidates
from mrclink.local import LocalModel, Model, build_vocabulary, run_local_pass, train_local
from mrclink.multiturn import (
    GlobalModel,
    _sigmoid,
    gate_backward,
    gate_fuse_batch,
    global_backward,
    global_loss,
    global_score_mention,
    init_gate_params,
    rank_mentions,
    run_multi_turn,
    train_global,
)
from mrclink import multiturn
from mrclink.local import load_model, save_model
from mrclink.pipeline import link_text


def zero_gate(d):
    return {
        "update_w": np.zeros((d, 2 * d)),
        "fuse_w": np.zeros((d, 2 * d)),
        "keep_cur_w": np.zeros((d, d)),
        "keep_hist_w": np.zeros((d, d)),
    }


class TestRankMentions:
    def test_single_mention(self):
        rank = rank_mentions([np.array([0.2, 0.8])])
        assert rank.order == (0,)

    def test_descending_gap_order(self):
        probs = [
            np.array([0.9, 0.1]),          # gap 0.8
            np.array([0.5, 0.3, 0.2]),     # gap 0.3... adjusted below
            np.array([0.6, 0.1, 0.3]),     # gap 0.5
        ]
        probs[1] = np.array([0.4, 0.4, 0.2])  # gap 0.2
        rank = rank_mentions(probs)
        assert rank.order == (0, 2, 1)
        assert rank.gaps == pytest.approx((0.8, 0.2, 0.5))

    def test_gap_equals_pairwise_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            p = softmax(rng.normal(size=k) * 3)
            gap = rank_mentions([p]).gaps[0]
            brute = max(abs(p[i] - p[j]) for i in range(k) for j in range(k))
            assert gap == pytest.approx(brute, abs=1e-15)

    def test_ties_keep_text_order(self):
        same = np.array([0.7, 0.3])
        rank = rank_mentions([same, same.copy(), same.copy()])
        assert rank.order == (0, 1, 2)

    def test_permuting_options_leaves_gap_unchanged(self):
        rng = np.random.default_rng(1)
        p = softmax(rng.normal(size=5))
        g1 = rank_mentions([p]).gaps[0]
        g2 = rank_mentions([p[rng.permutation(5)]]).gaps[0]
        assert g1 == pytest.approx(g2, abs=1e-15)


class TestSigmoid:
    @staticmethod
    def two_branch(x):
        """Reference: ``1 / (1 + exp(-x))`` on ``x >= 0``, ``exp(x) / (1 + exp(x))`` elsewhere."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_bitwise_equal_to_two_branch_reference(self):
        edge = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.nan, -np.nan, np.inf, -np.inf, 36.7, -745.2])
        normal = np.random.default_rng(11).normal(scale=8.0, size=(5, 32))
        for x in (edge, normal):
            assert _sigmoid(x).tobytes() == self.two_branch(x).tobytes()


class TestGateFuse:
    def test_zero_parameters_closed_form(self):
        d = 6
        rng = np.random.default_rng(2)
        h = rng.normal(size=d)
        v = rng.normal(size=d)
        out = gate_fuse_batch(v[None, :], h, zero_gate(d))
        np.testing.assert_allclose(out.update_gate, 0.5, atol=1e-15)
        np.testing.assert_allclose(out.fusion, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.keep_gate, 0.5, atol=1e-15)
        np.testing.assert_allclose(out.fused[0], 0.5 * h, atol=1e-12)

    def test_zero_history_zero_parameters(self):
        d = 4
        out = gate_fuse_batch(np.ones((1, d)), np.zeros(d), zero_gate(d))
        np.testing.assert_allclose(out.fused, 0.0, atol=1e-15)

    def test_matches_straight_line_recomputation_d2(self):
        rng = np.random.default_rng(7)
        d = 2
        gate = init_gate_params(d, seed=7)
        v = rng.normal(size=d)
        h = rng.normal(size=d)
        out = gate_fuse_batch(v[None, :], h, gate)

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        cat_vh = np.concatenate([v, h])
        u = sig(gate["update_w"] @ cat_vh)
        f = np.tanh(gate["fuse_w"] @ np.concatenate([u * h, v]))
        g = sig(gate["keep_cur_w"] @ v + gate["keep_hist_w"] @ h)
        expect = g * f + (1.0 - g) * h
        np.testing.assert_allclose(out.update_gate[0], u, atol=1e-12)
        np.testing.assert_allclose(out.fusion[0], f, atol=1e-12)
        np.testing.assert_allclose(out.keep_gate[0], g, atol=1e-12)
        np.testing.assert_allclose(out.fused[0], expect, atol=1e-12)

    def test_convex_combination_bound_and_ranges(self):
        rng = np.random.default_rng(3)
        d = 8
        for trial in range(50):
            gate = init_gate_params(d, seed=trial)
            v = rng.normal(size=(16, d)) * 2
            h = rng.normal(size=d) * 2
            out = gate_fuse_batch(v, h, gate)
            assert np.all(out.update_gate > 0) and np.all(out.update_gate < 1)
            assert np.all(out.keep_gate > 0) and np.all(out.keep_gate < 1)
            assert np.all(out.fusion > -1) and np.all(out.fusion < 1)
            lo = np.minimum(out.fusion, h)
            hi = np.maximum(out.fusion, h)
            assert np.all(out.fused >= lo - 1e-12)
            assert np.all(out.fused <= hi + 1e-12)

    def test_zero_history_removes_history_dependence(self):
        # with h = 0 the fused vector is g * tanh(Wf [0; v]): current mention only
        d = 5
        gate = init_gate_params(d, seed=11)
        v = np.random.default_rng(4).normal(size=d)
        out = gate_fuse_batch(v[None, :], np.zeros(d), gate)

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        g = sig(gate["keep_cur_w"] @ v)
        f = np.tanh(gate["fuse_w"] @ np.concatenate([np.zeros(d), v]))
        np.testing.assert_allclose(out.fused[0], g * f, atol=1e-12)

    def test_gru_like_is_rejected(self):
        d = 4
        with pytest.raises(InputFormatError):
            RunConfig(gate_mode="gru_like")
        with pytest.raises(ValueError):
            gate_fuse_batch(np.zeros((1, d)), np.zeros(d), zero_gate(d), mode="gru_like")

    def test_concat_mode_forward_and_backward(self):
        rng = np.random.default_rng(5)
        d = 4
        gate = init_gate_params(d, seed=5)
        v = rng.normal(size=(3, d))
        h = rng.normal(size=d)
        out = gate_fuse_batch(v, h, gate, mode="concat")
        expect = np.tanh(np.concatenate([v, np.tile(h, (3, 1))], axis=1) @ gate["fuse_w"].T)
        np.testing.assert_allclose(out.fused, expect, atol=1e-12)

        w = rng.normal(size=(3, d))
        grads = zero_gate(d)
        dv, dh = gate_backward(out, w, gate, grads)
        step = 1e-6

        def loss():
            return float((w * gate_fuse_batch(v, h, gate, mode="concat").fused).sum())

        for arr, g in [(v, dv), (h, dh), (gate["fuse_w"], grads["fuse_w"])]:
            flat, gf = arr.ravel(), np.asarray(g).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss()
                flat[i] = orig - step
                dn = loss()
                flat[i] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - gf[i]) <= 1e-8 + 1e-4 * max(abs(fd), abs(gf[i]))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        d = 5
        gate = init_gate_params(d, seed=6)
        v = rng.normal(size=(4, d))
        h = rng.normal(size=d)
        w = rng.normal(size=(4, d))
        out = gate_fuse_batch(v, h, gate)
        grads = zero_gate(d)
        dv, dh = gate_backward(out, w, gate, grads)

        def loss():
            return float((w * gate_fuse_batch(v, h, gate).fused).sum())

        step = 1e-6
        checks = [(v, dv), (h, dh)] + [(gate[k], grads[k]) for k in gate]
        for arr, g in checks:
            flat, gf = arr.ravel(), np.asarray(g).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss()
                flat[i] = orig - step
                dn = loss()
                flat[i] = orig
                fd = (up - dn) / (2 * step)
                assert abs(fd - gf[i]) <= 1e-8 + 1e-4 * max(abs(fd), abs(gf[i]))


def multi_world():
    entities = [
        Entity("e1", "alpha sport", "alpha sport ball game", ("alpha sport", "alpha"), 30),
        Entity("e2", "alpha music", "alpha music song tune", ("alpha music", "alpha"), 20),
        Entity("e3", "beta sport", "beta sport ball game", ("beta sport", "beta"), 10),
        Entity("e4", "gamma music", "gamma music song tune", ("gamma music", "gamma"), 5),
    ]
    kb = KnowledgeBase(entities)
    texts = [
        AnnotatedText(
            "alpha meets beta here",
            (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3")),
        ),
        AnnotatedText(
            "gamma meets alpha today now",
            (Mention(0, 5, "gamma", "e4"), Mention(12, 17, "alpha", "e2")),
        ),
        AnnotatedText("alpha kicks ball game", (Mention(0, 5, "alpha", "e1"),)),
    ]
    return kb, texts


def make_models(kb, corpus, d=8, seed=0, **cfg_kw):
    kwargs = dict(
        seed=seed,
        encoder=EncoderSettings(d=d, n_layers=1, n_heads=2),
        max_len_local=32,
        max_len_global=32,
        lr_local=1e-3,
        lr_global=1e-3,
        epochs_local=1,
        epochs_global=1,
    )
    kwargs.update(cfg_kw)
    cfg = RunConfig(**kwargs)
    vocab = build_vocabulary(corpus, kb)
    config = EncoderConfig(vocab_size=len(vocab), max_len=32, d=d, n_layers=1, n_heads=2, seed=seed)
    local = LocalModel.init(config, vocab, nil_verifier=cfg.nil_verifier)
    glob = GlobalModel.from_local(local)
    return cfg, local, glob


class TestGlobalScoring:
    def test_equal_option_vectors_give_equal_probabilities(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        same = Entity("x", "same name", "same words", ("same",), 1)
        cands = CandidateSet("same", (same, same, same), includes_nil=False)
        scores = global_score_mention(glob, cands, "[MASK] here", np.zeros(8))
        np.testing.assert_allclose(scores.probs, 1.0 / 3.0, atol=1e-12)

    def test_raw_and_fused_are_the_fusion_arrays_themselves(self):
        kb, corpus = multi_world()
        _, _, glob = make_models(kb, corpus)
        cands = generate_candidates(build_index(kb), "alpha", 5, with_nil=True)
        scores = global_score_mention(glob, cands, "[MASK] meets beta", np.ones(8))
        assert scores.raw is scores.gate_fusion.current and scores.fused is scores.gate_fusion.fused

    def test_suppressed_keep_gate_copies_history_and_scores_uniformly(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        d = glob.config.d
        history = np.abs(np.random.default_rng(0).normal(size=d)) + 0.5
        glob.gate["keep_cur_w"] = np.zeros((d, d))
        glob.gate["keep_hist_w"] = -1e4 * np.eye(d)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=True)
        scores = global_score_mention(glob, cands, "[MASK] meets beta", history)
        for j in range(len(cands.options)):
            np.testing.assert_allclose(scores.gate_fusion.fused[j], history, atol=1e-12)
        np.testing.assert_allclose(scores.probs, 1.0 / len(cands.options), atol=1e-12)

    def test_two_option_scores_match_straight_line_recomputation(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, seed=5)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=False)
        rng = np.random.default_rng(8)
        history = rng.normal(size=8)
        query = "[MASK] meets beta here"
        scores = global_score_mention(glob, cands, query, history)

        from mrclink import encoder as enc
        from mrclink.corpus import assemble_option_sequence, tokenize

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        logits = []
        for ent in cands.options:
            seq = assemble_option_sequence(
                tokenize(ent.description, glob.vocab), tokenize(query, glob.vocab), tokenize(ent.canonical_name, glob.vocab), 32
            )
            v = enc.encode_batch(glob.enc_params, glob.config, np.array([seq]))[0][0]
            u = sig(glob.gate["update_w"] @ np.concatenate([v, history]))
            f = np.tanh(glob.gate["fuse_w"] @ np.concatenate([u * history, v]))
            g = sig(glob.gate["keep_cur_w"] @ v + glob.gate["keep_hist_w"] @ history)
            fused = g * f + (1 - g) * history
            logits.append(float(fused @ glob.head["score_w"] + glob.head["score_b"][0]))
        expect = softmax(np.asarray(logits))
        np.testing.assert_allclose(scores.probs, expect, atol=1e-12)

    def test_global_loss_values(self):
        from mrclink.multiturn import GlobalScores

        sure = GlobalScores(("a", "b"), np.array([1.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2)))
        assert global_loss(sure, 0)[0] == 0.0
        for k in (2, 4, 6):
            uniform = GlobalScores(
                tuple("abcdef"[:k]), np.full(k, 1.0 / k), np.zeros((k, 2)), np.zeros((k, 2))
            )
            assert global_loss(uniform, 1)[0] == pytest.approx(math.log(k), abs=1e-12)

    def test_full_backward_path_matches_finite_differences_d4(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, d=4, seed=9)
        index = build_index(kb)
        cands = generate_candidates(index, "alpha", 5, with_nil=True)
        rng = np.random.default_rng(9)
        history = rng.normal(size=4)
        query = "[MASK] meets beta here"
        gold = 1

        def loss_fn():
            scores = global_score_mention(glob, cands, query, history)
            return global_loss(scores, gold)[0]

        scores = global_score_mention(glob, cands, query, history)
        _, dlogits = global_loss(scores, gold)
        g = np.zeros_like(glob.flat)
        dhistory = global_backward(glob, scores, dlogits, glob.views(g))
        grads = glob.named(g)

        h = 1e-5
        flat_params = glob.parameters()
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
        for i in range(4):
            orig = history[i]
            history[i] = orig + h
            up = loss_fn()
            history[i] = orig - h
            dn = loss_fn()
            history[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - dhistory[i]) <= 1e-8 + 1e-4 * max(abs(fd), abs(dhistory[i]))


class TestRunMultiTurn:
    def test_single_mention_runs_no_global_turn(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        index = build_index(kb)
        text = corpus[2]
        res = run_local_pass(local, text, index, cfg)
        mt = run_multi_turn(text, res, glob, cfg)
        assert mt.global_scores == [None]
        [decision] = link_text(text, index, local, glob, cfg)
        assert decision.selected == res[0].selected
        assert decision.global_probs is None

    def test_every_mention_visited_once_in_rank_order(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        index = build_index(kb)
        for text in corpus[:2]:
            res = run_local_pass(local, text, index, cfg)
            mt = run_multi_turn(text, res, glob, cfg)
            assert sorted(mt.order) == list(range(len(text.mentions)))
            expected = rank_mentions([r.scores.probs for r in res]).order
            assert mt.order == expected
            # exactly the first processed mention lacks global scores
            first = mt.order[0]
            assert mt.global_scores[first] is None
            for idx in mt.order[1:]:
                assert mt.global_scores[idx] is not None

    def test_text_order_used_when_reranking_disabled(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, no_rerank=True)
        index = build_index(kb)
        text = corpus[0]
        res = run_local_pass(local, text, index, cfg)
        mt = run_multi_turn(text, res, glob, cfg)
        assert mt.order == (0, 1)

    def test_nil_turn_keeps_history_unchanged(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        index = build_index(kb)
        text = corpus[0]
        res = run_local_pass(local, text, index, cfg)
        # force the first processed mention to be overridden to NIL
        first, second = rank_mentions([r.scores.probs for r in res]).order
        res[first].overridden = True
        res[first].selected = NIL
        mt = run_multi_turn(text, res, glob, cfg)
        query = update_query(text, text.mentions[second], {text.mentions[first]: None})
        alone = global_score_mention(glob, res[second].candidates, query, np.zeros(glob.config.d))
        assert mt.global_scores[second].probs.tobytes() == alone.probs.tobytes()

    def test_overridden_scored_turns_link_nil_and_keep_their_scores(self):
        # nil_threshold 1.0 lets the verifier override every mention, so no
        # turn links: each scored turn reads the plain query and a zero history
        kb, corpus = multi_world()
        mentions = (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3"), Mention(22, 27, "gamma", "e4"))
        text = AnnotatedText("alpha meets beta near gamma", mentions)
        cfg, local, glob = make_models(kb, corpus + [text], seed=1, nil_threshold=1.0)
        index = build_index(kb)
        decisions = link_text(text, index, local, glob, cfg)
        assert [d.selected for d in decisions] == [NIL] * 3
        later = [(m, d) for m, d in zip(mentions, decisions) if d.rank > 0]
        assert len(later) == 2
        for mention, dec in later:
            assert dec.global_probs is not None and dec.fused_probs is not None
            assert dec.candidate_ids[int(np.argmax(dec.fused_probs))] != NIL  # the override decides, not the argmax
            cands = generate_candidates(index, mention.surface, cfg.k, with_nil=True)
            alone = global_score_mention(glob, cands, build_query(text, mention), np.zeros(glob.config.d))
            assert dec.global_probs.tobytes() == alone.probs.tobytes()

    @pytest.mark.parametrize("no_rerank", [False, True])
    def test_one_entity_set_goes_first_without_the_verifier(self, no_rerank):
        # without the NIL option a one-entity set has probability 1 and spread
        # 0; scored in a later turn it would be the text's only scored turn
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, nil_verifier=False, no_rerank=no_rerank)
        index = build_index(kb)
        for text in corpus[:2]:
            res = run_local_pass(local, text, index, cfg)
            assert sorted(len(r.candidates.options) for r in res) == [1, 2]
            mt = run_multi_turn(text, res, glob, cfg)
            assert len(res[mt.order[0]].candidates.options) == 1
            assert any(s is not None and len(s.probs) >= 2 for s in mt.global_scores)
        _, logs = train_global(corpus, kb, local, cfg)
        assert logs[0]["loss"] > 0


class TestTrainGlobal:
    def test_zero_epochs_matches_fresh_initialization(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, epochs_global=0)
        trained, logs = train_global(corpus, kb, local, cfg)
        fresh = GlobalModel.from_local(local, max_len=cfg.max_len_global)
        assert logs == []
        for k, v in trained.parameters().items():
            assert v.tobytes() == fresh.parameters()[k].tobytes()

    def test_training_is_deterministic_per_seed(self):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus, epochs_global=2)
        m1, l1 = train_global(corpus, kb, local, cfg)
        m2, l2 = train_global(corpus, kb, local, cfg)
        assert l1 == l2
        for k, v in m1.parameters().items():
            assert v.tobytes() == m2.parameters()[k].tobytes()

    def test_history_mode_changes_training_trajectory(self):
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_global=2)
        # 3-mention text so flow and last diverge after the second scored turn
        text3 = AnnotatedText(
            "alpha meets beta near gamma",
            (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3"), Mention(22, 27, "gamma", "e4")),
        )
        corpus3 = corpus + [text3]
        m_flow, _ = train_global(corpus3, kb, local, cfg)
        m_last, _ = train_global(corpus3, kb, local, replace(cfg, history_mode="last"))
        diff = any(
            m_flow.parameters()[k].tobytes() != m_last.parameters()[k].tobytes()
            for k in m_flow.parameters()
        )
        assert diff

    def test_nil_option_follows_the_local_model_not_the_config(self):
        # linking builds candidate sets from the local model's flag, so
        # training must too; the config's nil_verifier is not read
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_global=2)
        assert local.nil_verifier
        default, _ = train_global(corpus, kb, local, cfg)
        told_off, _ = train_global(corpus, kb, local, replace(cfg, nil_verifier=False))
        assert told_off.flat.tobytes() == default.flat.tobytes()

    def test_stop_accuracy_is_not_read(self):
        # early stopping belongs to train_local; every global epoch runs
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_global=3)
        model, logs = train_global(corpus, kb, local, cfg)
        stopped, stopped_logs = train_global(corpus, kb, local, replace(cfg, stop_accuracy=0.0))
        assert [rec["epoch"] for rec in stopped_logs] == [0, 1, 2]
        assert stopped_logs == logs and stopped.flat.tobytes() == model.flat.tobytes()

    def test_texts_that_score_no_turn_change_no_bit(self):
        # without the verifier an unlinkable mention after the first turn has
        # no target, so these texts make no Adam step
        kb, _ = multi_world()
        corpus = [
            AnnotatedText("alpha meets zeta here", (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "zeta", NIL))),
            AnnotatedText("zeta meets beta here", (Mention(0, 4, "zeta", NIL), Mention(11, 15, "beta", NIL))),
        ]
        cfg, local, _ = make_models(kb, corpus, nil_verifier=False, epochs_global=2)
        trained, logs = train_global(corpus, kb, local, cfg)
        assert trained.flat.tobytes() == GlobalModel.from_local(local, max_len=cfg.max_len_global).flat.tobytes()
        empty = {"loss": 0.0, "answer_accuracy": 0.0, "nil_precision": 0.0, "nil_recall": 0.0}
        assert logs == [{"epoch": 0, **empty}, {"epoch": 1, **empty}]

    def test_nil_ratios_match_a_brute_force_count(self, monkeypatch):
        kb, corpus = multi_world()
        corpus += [
            AnnotatedText("alpha sings beta tune", (Mention(0, 5, "alpha", NIL), Mention(12, 16, "beta", "e3"))),
            AnnotatedText("beta meets alpha there", (Mention(0, 4, "beta", NIL), Mention(11, 16, "alpha", NIL))),
            AnnotatedText(
                "gamma and alpha and beta",
                (Mention(0, 5, "gamma", NIL), Mention(10, 15, "alpha", "e2"), Mention(20, 24, "beta", NIL)),
            ),
        ]
        cfg, local, _ = make_models(kb, corpus, seed=2)
        assert local.nil_verifier
        seen = []

        def spy(scores, gold_index):
            seen.append((scores.option_ids[int(np.argmax(scores.probs))], scores.option_ids[gold_index]))
            return global_loss(scores, gold_index)

        monkeypatch.setattr(multiturn, "global_loss", spy)
        _, [rec] = train_global(corpus, kb, local, cfg)
        hit = sum(p == NIL and g == NIL for p, g in seen)
        predicted, gold = sum(p == NIL for p, _ in seen), sum(g == NIL for _, g in seen)
        assert 0 < hit < predicted and hit < gold
        assert rec["nil_precision"] == hit / predicted and rec["nil_recall"] == hit / gold
        assert rec["answer_accuracy"] == sum(p == g for p, g in seen) / len(seen)

    def test_history_is_a_stop_gradient(self, monkeypatch):
        # the one Adam step's gradient is that of the mean turn loss with each
        # turn's query and history held fixed; no gradient reaches the turn-0
        # seed encoding or an earlier turn's fused vector
        kb, _ = multi_world()
        text = AnnotatedText(
            "alpha meets beta near gamma",
            (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e3"), Mention(22, 27, "gamma", "e4")),
        )
        cfg, local, _ = make_models(kb, [text], d=4, seed=3, gate_mode="gated", history_mode="flow")
        walks, turns, steps = [], [], []
        walk, score = multiturn.walk_turns, multiturn.global_score_mention

        def scored(model, cands, query, history):
            out = score(model, cands, query, history)
            turns.append((cands, query, out.gate_fusion.history.copy()))
            return out

        monkeypatch.setattr(multiturn, "walk_turns", lambda *args: walks.append(args) or walk(*args))
        monkeypatch.setattr(multiturn, "global_score_mention", scored)
        monkeypatch.setattr(GlobalModel, "step", lambda self, grads, *_: steps.append(grads.copy()))
        model, [rec] = train_global([text], kb, local, cfg)
        [grads], fixed = steps, list(turns)
        assert len(fixed) == 2 and all(history.any() for _, _, history in fixed)
        gold = {m.surface: m.gold for m in text.mentions}

        def fixed_loss():
            return np.mean([
                global_loss(score(model, cands, query, history), cands.index_of(gold[cands.surface]))[0]
                for cands, query, history in fixed
            ])

        def live_loss():
            walked = walk(*walks[0])
            return np.mean([global_loss(w, w.option_ids.index(gold[m.surface]))[0]
                            for m, w in zip(text.mentions, walked) if w is not None])

        def central_difference(loss, i, h=1e-5):
            orig = model.flat[i]
            model.flat[i] = orig + h
            up = loss()
            model.flat[i] = orig - h
            down = loss()
            model.flat[i] = orig
            return (up - down) / (2 * h)

        def close(fd, analytic):
            return abs(fd - analytic) <= 1e-8 + 1e-4 * max(abs(fd), abs(analytic))

        assert rec["loss"] == pytest.approx(fixed_loss(), rel=1e-12)
        rng = np.random.default_rng(0)
        moved = []
        for prefix, group in model.views(np.arange(model.flat.size)).items():
            coords = np.concatenate([v.ravel() for v in group.values()])
            coords = coords[grads[coords] != 0]
            for i in rng.choice(coords, size=min(len(coords), 16), replace=False):
                assert close(central_difference(fixed_loss, i), grads[i]), (prefix, i)
                if prefix != "head" and not close(central_difference(live_loss, i), grads[i]):
                    moved.append((prefix, i))
        assert {prefix for prefix, _ in moved} == {"enc", "gate"}

    def test_checkpoint_round_trip(self, tmp_path):
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_global=1)
        model, _ = train_global(corpus, kb, local, cfg)
        path = tmp_path / "global.ckpt"
        save_model(model, str(path))
        back = load_model(str(path), GlobalModel)
        assert back.config == model.config
        assert back.gate_mode == model.gate_mode
        for k, v in model.parameters().items():
            assert back.parameters()[k].tobytes() == v.tobytes()

    @pytest.mark.parametrize("training", ["local", "global"])
    def test_unknown_gold_fails_before_any_step(self, training, monkeypatch):
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_local=3, epochs_global=3)
        bad = AnnotatedText("alpha meets beta here", (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta", "e404")))
        steps = []
        monkeypatch.setattr(Model, "step", lambda *args: steps.append(args))
        with pytest.raises(ModelConfigError, match="text 3: gold entity 'e404' missing from the KB"):
            if training == "local":
                train_local(corpus + [bad], kb, cfg)
            else:
                train_global(corpus + [bad], kb, local, cfg)
        assert steps == []

    @pytest.mark.parametrize("n_mentions", [1, 2])
    @pytest.mark.parametrize("training", ["local", "global"])
    def test_missing_gold_is_an_input_error_before_any_step(self, training, n_mentions, monkeypatch):
        # a one-mention text trains no global step, yet its labels are checked
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus)
        bad = AnnotatedText("alpha meets beta here", (Mention(0, 5, "alpha", "e1"), Mention(12, 16, "beta"))[2 - n_mentions :])
        steps = []
        monkeypatch.setattr(Model, "step", lambda *args: steps.append(args))
        with pytest.raises(InputFormatError, match="text 3: mention 'beta' has no gold label"):
            if training == "local":
                train_local(corpus + [bad], kb, cfg)
            else:
                train_global(corpus + [bad], kb, local, cfg)
        assert steps == []


def assert_flat_layout(model):
    """Every parameter tensor is a view of ``model.flat``, and they tile it in order."""
    params = model.parameters()
    assert all(np.shares_memory(p, model.flat) for p in params.values())
    assert np.concatenate([p.ravel() for p in params.values()]).tobytes() == model.flat.tobytes()


class TestParameterLayout:
    """Each model keeps its parameters in one vector of its own, in checkpoint order."""

    def test_fresh_and_loaded_models_are_views_of_one_vector(self, tmp_path):
        kb, corpus = multi_world()
        cfg, local, glob = make_models(kb, corpus)
        plain = LocalModel.init(local.config, local.vocab, nil_verifier=False)
        concat = GlobalModel.from_local(local, max_len=40, gate_mode="concat")
        for i, model in enumerate((local, plain, glob, concat)):
            assert_flat_layout(model)
            path = tmp_path / f"model{i}.ckpt"
            save_model(model, str(path))
            back = load_model(str(path), type(model))
            assert_flat_layout(back)
            assert back.flat.tobytes() == model.flat.tobytes()

    def test_from_local_and_replace_copy_rather_than_alias(self):
        kb, corpus = multi_world()
        _, local, _ = make_models(kb, corpus)
        before = local.flat.tobytes()
        copies = [GlobalModel.from_local(local, max_len=n) for n in (16, 32, 40)]
        copies.append(replace(local, nil_verifier=False))
        assert copies[-1].flat.tobytes() == before
        for model in copies:
            assert_flat_layout(model)
            assert not np.shares_memory(model.flat, local.flat)
            np.testing.assert_array_equal(model.enc_params["tok_emb"], local.enc_params["tok_emb"])
            model.flat += 1.0
        assert local.flat.tobytes() == before

    def test_train_global_leaves_the_local_model_unchanged(self):
        kb, corpus = multi_world()
        cfg, local, _ = make_models(kb, corpus, epochs_global=2)
        before = {k: v.tobytes() for k, v in local.parameters().items()}
        trained, _ = train_global(corpus, kb, local, cfg)
        fresh = GlobalModel.from_local(local, max_len=cfg.max_len_global)
        assert trained.flat.tobytes() != fresh.flat.tobytes()
        assert {k: v.tobytes() for k, v in local.parameters().items()} == before

    def test_non_finite_step_names_the_tensor_and_writes_nothing(self):
        kb, corpus = multi_world()
        _, local, glob = make_models(kb, corpus)
        for model, name in ((local, "nil.hidden_w"), (glob, "gate.fuse_w")):
            grads = np.zeros_like(model.flat)
            model.named(grads)[name][0] = np.nan
            adam = AdamState.zeros_like(model.flat)
            before = model.flat.tobytes()
            with pytest.raises(ValueError, match=f"non-finite gradient for '{name}'"):
                model.step(grads, adam, lr=0.1, warmup_steps=0)
            assert model.flat.tobytes() == before and adam.step == 0
