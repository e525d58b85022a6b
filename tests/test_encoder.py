"""Reference encoder: forward oracle, exact gradients, Adam, checkpoints."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from mrclink import encoder as enc
from mrclink.config import RunConfig
from mrclink.encoder import (
    AdamState,
    EncoderConfig,
    adam_step,
    backprop_batch,
    encode_batch,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    softmax,
    warmup_steps,
)
from mrclink.errors import ModelConfigError


def grad_close(a, b, rtol=1e-4, atol=1e-8):
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def encode_row(params, cfg, tokens):
    """One sequence as a 1-row batch: its pooled vector and the tape."""
    pooled, tape = encode_batch(params, cfg, np.array([tokens]))
    return pooled[0], tape


def backprop(tape, pooled_grad):
    """Gradients of one backward pass, added into fresh zero tensors."""
    grads = {name: np.zeros_like(p) for name, p in tape.params.items()}
    backprop_batch(tape, pooled_grad, grads)
    return grads


def fd_grad(loss_fn, arr, i, h=1e-4):
    flat = arr.ravel()
    orig = flat[i]
    flat[i] = orig + h
    up = loss_fn()
    flat[i] = orig - h
    down = loss_fn()
    flat[i] = orig
    return (up - down) / (2.0 * h)


class TestForward:
    def test_bitwise_deterministic(self):
        cfg = EncoderConfig(vocab_size=11, max_len=10, d=8, n_layers=2, n_heads=2, seed=3)
        params = init_params(cfg)
        seq = [2, 5, 6, 7, 3]
        a, _ = encode_row(params, cfg, seq)
        b, _ = encode_row(params, cfg, seq)
        assert a.tobytes() == b.tobytes()

    def test_zero_params_give_constant_pooled(self):
        cfg = EncoderConfig(vocab_size=6, max_len=8, d=4, n_layers=1, n_heads=2, seed=0)
        params = {k: np.zeros_like(v) for k, v in init_params(cfg).items()}
        params["block0.ln1_g"] = np.ones(4)
        params["block0.ln2_g"] = np.ones(4)
        out1, _ = encode_row(params, cfg, [2, 4, 3])
        out2, _ = encode_row(params, cfg, [2, 5, 3])
        assert out1.tobytes() == out2.tobytes()
        assert np.all(np.isfinite(out1))

    def test_pad_masked_positions_do_not_leak(self):
        cfg = EncoderConfig(vocab_size=9, max_len=10, d=8, n_layers=2, n_heads=2, seed=1)
        params = init_params(cfg)
        base = np.array([[2, 5, 6, 3, 0, 0]])
        junk = np.array([[2, 5, 6, 3, 7, 8]])
        lengths = np.array([4])
        a, _ = encode_batch(params, cfg, base, lengths)
        b, _ = encode_batch(params, cfg, junk, lengths)
        assert a.tobytes() == b.tobytes()

    def test_pad_permutation_beyond_end_is_invisible(self):
        cfg = EncoderConfig(vocab_size=9, max_len=12, d=8, n_layers=1, n_heads=2, seed=1)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        for _ in range(10):
            tail = rng.integers(0, 9, size=4)
            row1 = np.concatenate([[2, 5, 3], tail])
            row2 = np.concatenate([[2, 5, 3], rng.permutation(tail)])
            a, _ = encode_batch(params, cfg, row1[None, :], np.array([3]))
            b, _ = encode_batch(params, cfg, row2[None, :], np.array([3]))
            assert a.tobytes() == b.tobytes()

    def test_single_token_matches_straight_line_recomputation(self):
        # Independent step-by-step recomputation of the same arithmetic.
        cfg = EncoderConfig(vocab_size=12, max_len=6, d=8, n_layers=1, n_heads=2, seed=17)
        params = init_params(cfg)
        token = 7
        pooled, _ = encode_row(params, cfg, [token])

        x = params["tok_emb"][token] + params["pos_emb"][0]

        def layer_norm(v, g, b):
            mu = v.mean()
            var = ((v - mu) ** 2).mean()
            return (v - mu) / np.sqrt(var + 1e-6) * g + b

        # with one position, attention weights are exactly 1 and ctx = value row
        value = x @ params["block0.wv"] + params["block0.bv"]
        attn_out = value @ params["block0.wo"] + params["block0.bo"]
        y1 = layer_norm(x + attn_out, params["block0.ln1_g"], params["block0.ln1_b"])
        pre = y1 @ params["block0.ffn_w1"] + params["block0.ffn_b1"]
        act = pre * 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
        ffn = act @ params["block0.ffn_w2"] + params["block0.ffn_b2"]
        expect = layer_norm(y1 + ffn, params["block0.ln2_g"], params["block0.ln2_b"])
        np.testing.assert_allclose(pooled, expect, rtol=0, atol=1e-12)

    def test_attention_rows_are_simplex_vectors(self):
        cfg = EncoderConfig(vocab_size=20, max_len=12, d=8, n_layers=2, n_heads=2, seed=5)
        params = init_params(cfg)
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 20, size=(3, 9))
        lengths = np.array([9, 5, 7])
        _, tape = encode_batch(params, cfg, ids, lengths)
        # every block attends from all 9 positions but the last, which attends from position 0 only
        assert [c["attn"].shape for c in tape.layer_caches] == [(3, 2, 9, 9), (3, 2, 1, 9)]
        for cache in tape.layer_caches:
            attn = cache["attn"]
            assert np.all(attn >= 0)
            for b, n in enumerate(lengths):
                rows = attn[b, :, :n, :]
                np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
                assert np.all(attn[b, :, :, n:] == 0)

    def test_token_id_out_of_range_rejected(self):
        cfg = EncoderConfig(vocab_size=5, max_len=8, d=4, n_layers=1, n_heads=2)
        params = init_params(cfg)
        with pytest.raises(ValueError):
            encode_row(params, cfg, [2, 5, 3])

    def test_over_length_sequence_rejected(self):
        cfg = EncoderConfig(vocab_size=5, max_len=3, d=4, n_layers=1, n_heads=2)
        params = init_params(cfg)
        with pytest.raises(ValueError):
            encode_row(params, cfg, [2, 1, 1, 3])


class TestBackprop:
    def test_zero_pooled_grad_gives_zero_parameter_grads(self):
        cfg = EncoderConfig(vocab_size=9, max_len=8, d=8, n_layers=1, n_heads=2, seed=2)
        params = init_params(cfg)
        _, tape = encode_row(params, cfg, [2, 5, 6, 3])
        grads = backprop(tape, np.zeros((1, 8)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_linearity_in_pooled_grad(self):
        cfg = EncoderConfig(vocab_size=9, max_len=8, d=8, n_layers=1, n_heads=2, seed=2)
        params = init_params(cfg)
        _, tape = encode_row(params, cfg, [2, 5, 6, 3])
        rng = np.random.default_rng(3)
        g1, g2 = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        sum_grads = backprop(tape, g1 + g2)
        a = backprop(tape, g1)
        b = backprop(tape, g2)
        for name in sum_grads:
            np.testing.assert_allclose(sum_grads[name], a[name] + b[name], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, seed, n_layers):
        cfg = EncoderConfig(vocab_size=13, max_len=8, d=8, n_layers=n_layers, n_heads=2, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed + 50)
        ids = rng.integers(0, 13, size=(2, 6))
        lengths = np.array([6, 4])
        w = rng.normal(size=(2, 8))

        def loss_fn():
            pooled, _ = encode_batch(params, cfg, ids, lengths)
            return float((w * pooled).sum())

        _, tape = encode_batch(params, cfg, ids, lengths)
        grads = backprop(tape, w)
        for name, arr in params.items():
            flat = arr.ravel()
            analytic = grads[name].ravel()
            n_checks = min(flat.size, 60)
            idxs = rng.choice(flat.size, size=n_checks, replace=False)
            for i in idxs:
                fd = fd_grad(loss_fn, arr, i)
                assert grad_close(fd, analytic[i]), (name, i, fd, analytic[i])

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_into_a_sum_adds_a_backward_into_zeros(self, seed, n_layers):
        # 40 ids over 12 tokens repeat, so several rows land on one tok_emb row
        cfg = EncoderConfig(vocab_size=12, max_len=10, d=8, n_layers=n_layers, n_heads=2, seed=seed)
        params = init_params(cfg)
        rng = np.random.default_rng(seed + 70)
        _, tape = encode_batch(params, cfg, rng.integers(0, 12, size=(4, 10)))
        pooled_grad = rng.normal(size=(4, 8))
        held = {name: rng.normal(size=p.shape) for name, p in params.items()}
        grads = {name: g.copy() for name, g in held.items()}
        backprop_batch(tape, pooled_grad, grads)
        fresh = backprop(tape, pooled_grad)
        for name in params:
            assert grads[name].tobytes() == (held[name] + fresh[name]).tobytes(), name

    def test_mismatched_pooled_grad_shape_rejected(self):
        cfg = EncoderConfig(vocab_size=9, max_len=8, d=8, n_layers=1, n_heads=2)
        params = init_params(cfg)
        _, tape = encode_row(params, cfg, [2, 3])
        with pytest.raises(ValueError):
            backprop(tape, np.zeros((1, 4)))


BATCH_CFG = EncoderConfig(vocab_size=13, max_len=10, d=8, n_layers=2, n_heads=2, seed=7)
BATCH_PARAMS = init_params(BATCH_CFG)


class TestBatchedEqualsPerRow:
    """A padded batch is the sum of its rows: each pooled row and the summed
    gradients match the rows encoded one at a time."""

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(0, BATCH_CFG.vocab_size - 1), min_size=1, max_size=BATCH_CFG.max_len),
            min_size=1,
            max_size=6,
        ),
        pad=st.integers(0, BATCH_CFG.vocab_size - 1),
        grad_seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_and_gradients_match_per_row_encoding(self, rows, pad, grad_seed):
        cfg, params = BATCH_CFG, BATCH_PARAMS
        lengths = np.array([len(r) for r in rows])
        ids = np.full((len(rows), lengths.max()), pad)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
        pooled_grad = np.random.default_rng(grad_seed).normal(size=(len(rows), cfg.d))

        pooled, tape = encode_batch(params, cfg, ids, lengths)
        grads = backprop(tape, pooled_grad)

        summed = {name: np.zeros_like(p) for name, p in params.items()}
        for i, r in enumerate(rows):
            row_pooled, row_tape = encode_row(params, cfg, r)
            np.testing.assert_allclose(pooled[i], row_pooled, rtol=0, atol=1e-12)
            for name, g in backprop(row_tape, pooled_grad[i : i + 1]).items():
                summed[name] += g
        for name in params:
            np.testing.assert_allclose(grads[name], summed[name], rtol=0, atol=1e-12, err_msg=name)


def _ref_layer_norm(v, g, b):
    xc = v - v.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-6)
    return xc * inv * g + b, (xc * inv, inv, g)


def _ref_layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dxhat = dy * g
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


@pytest.mark.parametrize("shape", [(3, 1, 32), (3, 7, 32)], ids=["B,1,d", "B,T,d"])
def test_layer_norm_backward_means_are_np_mean_bitwise(shape):
    rng = np.random.default_rng(5)
    x, dy = rng.normal(size=shape), rng.normal(size=shape)
    _, cache = enc._layer_norm(x, rng.normal(size=shape[-1]), rng.normal(size=shape[-1]))
    dx, dgain, dbias = enc._layer_norm_backward(dy, cache)
    xhat, inv, gain = cache
    dxhat = dy * gain
    ref = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    assert dx.tobytes() == ref.tobytes()
    assert dgain.tobytes() == (dy * xhat).sum(axis=(0, 1)).tobytes()
    assert dbias.tobytes() == dy.sum(axis=(0, 1)).tobytes()


def full_width_reference(params, cfg, tokens, pooled_grad):
    """One unpadded row run through every block at every position, head by
    head, then back again from ``pooled_grad`` at position 0: the pooled
    vector and the gradient of every parameter tensor."""
    n, n_heads = len(tokens), cfg.n_heads
    dh = cfg.d // n_heads
    heads = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    x = params["tok_emb"][tokens] + params["pos_emb"][:n]
    caches = []
    for i in range(cfg.n_layers):
        P = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(f"block{i}.")}
        q, k, v = (x @ P["w" + s] + P["b" + s] for s in "qkv")
        attn = []
        for sl in heads:
            s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            attn.append(e / e.sum(axis=-1, keepdims=True))
        ctx = np.concatenate([a @ v[:, sl] for a, sl in zip(attn, heads)], axis=1)
        y1, ln1 = _ref_layer_norm(x + ctx @ P["wo"] + P["bo"], P["ln1_g"], P["ln1_b"])
        pre = y1 @ P["ffn_w1"] + P["ffn_b1"]
        cdf = 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
        y2, ln2 = _ref_layer_norm(y1 + (pre * cdf) @ P["ffn_w2"] + P["ffn_b2"], P["ln2_g"], P["ln2_b"])
        caches.append((P, x, q, k, v, attn, ctx, ln1, y1, pre, cdf, ln2))
        x = y2

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    dx = np.zeros_like(x)
    dx[0] = pooled_grad
    for i in reversed(range(cfg.n_layers)):
        P, x_in, q, k, v, attn, ctx, ln1, y1, pre, cdf, ln2 = caches[i]
        G = {name: grads[f"block{i}.{name}"] for name in P}
        dsum2, dg, db = _ref_layer_norm_backward(dx, ln2)
        G["ln2_g"] += dg
        G["ln2_b"] += db
        G["ffn_w2"] += (pre * cdf).T @ dsum2
        G["ffn_b2"] += dsum2.sum(axis=0)
        dpre = (dsum2 @ P["ffn_w2"].T) * (cdf + pre * np.exp(-0.5 * pre * pre) / np.sqrt(2.0 * np.pi))
        G["ffn_w1"] += y1.T @ dpre
        G["ffn_b1"] += dpre.sum(axis=0)
        dsum1, dg, db = _ref_layer_norm_backward(dsum2 + dpre @ P["ffn_w1"].T, ln1)
        G["ln1_g"] += dg
        G["ln1_b"] += db
        G["wo"] += ctx.T @ dsum1
        G["bo"] += dsum1.sum(axis=0)
        dctx = dsum1 @ P["wo"].T
        dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for a, sl in zip(attn, heads):
            dv[:, sl] = a.T @ dctx[:, sl]
            da = dctx[:, sl] @ v[:, sl].T
            ds = a * (da - (da * a).sum(axis=-1, keepdims=True)) / np.sqrt(dh)
            dq[:, sl] = ds @ k[:, sl]
            dk[:, sl] = ds.T @ q[:, sl]
        dx = dsum1.copy()
        for s, dz in zip("qkv", (dq, dk, dv)):
            G["w" + s] += x_in.T @ dz
            G["b" + s] += dz.sum(axis=0)
            dx += dz @ P["w" + s].T
    for pos, token in enumerate(tokens):
        grads["tok_emb"][token] += dx[pos]
        grads["pos_emb"][pos] += dx[pos]
    return x[0], grads


class TestFullWidthReference:
    """The encoder computes the last block at position 0 only; a reference that
    runs every position through every block gives the same pooled vectors
    and gradients on ragged, padded batches."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_pooled_and_gradients_match_full_width_reference(self, n_layers):
        cfg = EncoderConfig(vocab_size=17, max_len=12, d=8, n_layers=n_layers, n_heads=2, seed=n_layers)
        rng = np.random.default_rng(40 + n_layers)
        # non-zero biases and non-unit gains, so every tensor shapes the output
        params = {k: v + rng.normal(scale=0.2, size=v.shape) for k, v in init_params(cfg).items()}
        for _ in range(5):
            lengths = rng.integers(1, 11, size=4)
            lengths[0] = 10
            ids = rng.integers(0, cfg.vocab_size, size=(4, 10))  # pad positions hold random tokens
            pooled_grad = rng.normal(size=(4, cfg.d))

            pooled, tape = encode_batch(params, cfg, ids, lengths)
            grads = backprop(tape, pooled_grad)

            summed = {name: np.zeros_like(p) for name, p in params.items()}
            for row, n in enumerate(lengths):
                ref_pooled, ref_grads = full_width_reference(params, cfg, ids[row, :n], pooled_grad[row])
                np.testing.assert_allclose(pooled[row], ref_pooled, rtol=0, atol=1e-12)
                for name, g in ref_grads.items():
                    summed[name] += g
            for name in params:
                np.testing.assert_allclose(grads[name], summed[name], rtol=0, atol=1e-12, err_msg=name)


class TestInit:
    def test_same_seed_bitwise_equal(self):
        cfg = EncoderConfig(vocab_size=30, max_len=16, d=8, n_layers=2, n_heads=2, seed=9)
        a, b = init_params(cfg), init_params(cfg)
        assert set(a) == set(b) == set(param_shapes(cfg))
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_different_seeds_differ(self):
        cfg1 = EncoderConfig(vocab_size=30, max_len=16, d=8, n_layers=1, n_heads=2, seed=1)
        cfg2 = EncoderConfig(vocab_size=30, max_len=16, d=8, n_layers=1, n_heads=2, seed=2)
        assert init_params(cfg1)["tok_emb"].tobytes() != init_params(cfg2)["tok_emb"].tobytes()

    def test_weight_matrices_within_uniform_bound(self):
        cfg = EncoderConfig(vocab_size=30, max_len=16, d=16, n_layers=1, n_heads=2, seed=4)
        params = init_params(cfg)
        bound = 1.0 / np.sqrt(16)
        for name, arr in params.items():
            if name.endswith(("_g",)):
                assert np.all(arr == 1.0)
            elif name.endswith(("_b", ".bq", ".bk", ".bv", ".bo")) or ".ffn_b" in name:
                assert np.all(arr == 0.0)
            else:
                assert np.all(np.abs(arr) <= bound)

    def test_width_must_divide_heads(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=5, max_len=4, d=6, n_layers=1, n_heads=4)


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        params = np.arange(6, dtype=np.float64)
        before = params.copy()
        adam_step(params, np.zeros(6), AdamState.zeros_like(params), lr=0.1)
        assert params.tobytes() == before.tobytes()

    def test_descends_a_quadratic(self):
        params = np.array([5.0])
        state = AdamState.zeros_like(params)
        for _ in range(200):
            adam_step(params, 2.0 * params, state, lr=0.05)
        assert abs(params[0]) < 0.1

    def test_linear_warmup_scales_first_steps(self):
        params = np.array([1.0])
        grads = np.array([1.0])
        stepped, full = params.copy(), params.copy()
        adam_step(stepped, grads, AdamState.zeros_like(params), lr=0.1, warmup_steps=10)
        adam_step(full, grads, AdamState.zeros_like(params), lr=0.1)
        # first warmup step sees lr/10, so the move is a tenth of the unwarmed move
        np.testing.assert_allclose(params - stepped, (params - full) / 10)

    def test_warmup_reaches_full_rate(self):
        warmup = warmup_steps(0.1, 100)
        assert warmup == 10
        params = np.array([1.0])
        state = AdamState.zeros_like(params)
        for _ in range(11):
            adam_step(params, np.array([0.0]), state, lr=0.1, warmup_steps=warmup)
        full_state = AdamState.zeros_like(params)
        full_state.step = state.step
        stepped, full = params.copy(), params.copy()
        adam_step(stepped, np.array([1.0]), state, lr=0.1, warmup_steps=warmup)
        adam_step(full, np.array([1.0]), full_state, lr=0.1, warmup_steps=0)
        np.testing.assert_allclose(stepped, full)

    def test_non_finite_gradients_rejected(self):
        params = np.ones(2)
        with pytest.raises(ValueError):
            adam_step(params, np.array([1.0, np.nan]), AdamState.zeros_like(params), lr=0.1)

    def test_non_finite_gradient_leaves_parameters_and_state_untouched(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.zeros_like(params)
        adam_step(params, np.array([0.5, -1.0, 2.0]), state, lr=0.1)
        saved = (params.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                adam_step(params, np.array([1.0, bad, 1.0]), state, lr=0.1)
            assert (params.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step) == saved

    def test_in_place_step_matches_the_textbook_update_bitwise(self):
        rng = np.random.default_rng(11)
        params = rng.normal(size=50)
        state = AdamState.zeros_like(params)
        p, m, v = params.copy(), np.zeros(50), np.zeros(50)
        for t in range(1, 6):
            g = rng.normal(size=50)
            adam_step(params, g, state, lr=0.01, warmup_steps=3)
            lr_t = 0.01 * min(1.0, t / 3)
            m = enc.ADAM_BETA1 * m + (1.0 - enc.ADAM_BETA1) * g
            v = enc.ADAM_BETA2 * v + (1.0 - enc.ADAM_BETA2) * g * g
            p = p - lr_t * (m / (1.0 - enc.ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - enc.ADAM_BETA2**t)) + enc.ADAM_EPS)
            assert (params.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step) == (
                p.tobytes(), m.tobytes(), v.tobytes(), t
            )

    def test_step_allocates_less_than_one_parameter_vector(self):
        # intermediates go into the state's scratch vectors; only the
        # finite-check mask (one byte per float) is allocated
        rng = np.random.default_rng(12)
        params, grads = rng.normal(size=100_000), rng.normal(size=100_000)
        state = AdamState.zeros_like(params)
        adam_step(params, grads, state, lr=0.01)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.nbytes

    def test_configured_learning_rate_defaults(self):
        cfg = RunConfig()
        assert cfg.lr_local == pytest.approx(5e-6)
        assert cfg.lr_global == pytest.approx(1e-5)
        assert cfg.warmup == pytest.approx(0.1)
        assert cfg.max_len_local == 256
        assert cfg.max_len_global == 512


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7)) * 30
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(s >= 0)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        cfg = EncoderConfig(vocab_size=14, max_len=9, d=8, n_layers=1, n_heads=2, seed=6)
        params = init_params(cfg)
        header = {"kind": "test", "encoder_config": cfg.to_dict()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), header, params)
        back_header, back = load_checkpoint(str(path))
        assert back_header == header
        assert list(back) == list(params)
        assert all(back[k].tobytes() == params[k].tobytes() for k in params)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(ModelConfigError):
            load_checkpoint(str(path))
