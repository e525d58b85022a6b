"""Trainable reference sequence encoder with exact analytic gradients.

Pure numpy, float64 end to end. The encoder is a post-layer-norm transformer:
token + positional embeddings, then per block (multi-head self-attention,
residual, layer norm, GELU feed-forward, residual, layer norm); the pooled
output is the hidden state at position 0.

Shapes: (B, T, D) = batch, sequence, model width on the key/value side,
(B, Tq, D) on the query side; (B, H, T, dh) and (B, H, Tq, dh) per head.
Every block but the last has Tq = T, because all its positions feed the next
block's keys and values. The last block runs its queries, attention output,
layer norms and feed-forward at position 0 only (Tq = 1): the pooled vector is
all that leaves the encoder, and no other position of the last block reaches
it. Its keys and values still cover all T positions.

Parameters must not change between a forward pass and its backward pass;
independent sequences may be encoded in parallel, and gradient accumulation
sums in a fixed order for bitwise reproducibility. A backward adds each
tensor's gradient into ``grads`` once, whole: ``backprop_batch`` sums each
token's embedding rows in row order before adding them to the table. So a
backward into a vector that already holds a sum gives bitwise that sum plus
the same backward into zeros.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Mapping

import numpy as np
from scipy.special import erf

from .errors import ModelConfigError
from .jsonl import typed

LN_EPS = 1e-6
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    max_len: int
    d: int
    n_layers: int
    n_heads: int
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.vocab_size, self.max_len, self.d, self.n_layers, self.n_heads) < 1:
            raise ValueError("all encoder config fields must be positive")
        if self.d % self.n_heads != 0:
            raise ValueError("hidden width d must be divisible by n_heads")

    @property
    def d_ff(self) -> int:
        return 4 * self.d

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EncoderConfig":
        """Every field must be an integer (never a bool or float); else ``TypeError``."""
        return cls(**{f.name: typed(d, f.name, int) for f in fields(cls)})


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor, in declaration order, without allocating."""
    d, dff = config.d, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d)}
    for i in range(config.n_layers):
        p = f"block{i}."
        for name in ("q", "k", "v", "o"):
            shapes[p + "w" + name] = (d, d)
            shapes[p + "b" + name] = (d,)
        shapes[p + "ln1_g"] = shapes[p + "ln1_b"] = (d,)
        shapes[p + "ffn_w1"], shapes[p + "ffn_b1"] = (d, dff), (dff,)
        shapes[p + "ffn_w2"], shapes[p + "ffn_b2"] = (dff, d), (d,)
        shapes[p + "ln2_g"] = shapes[p + "ln2_b"] = (d,)
    return shapes


def init_params(config: EncoderConfig) -> dict[str, np.ndarray]:
    """Seeded init: uniform +-1/sqrt(d) weights, zero biases, unit layer-norm
    gains; weights draw from one generator in declaration order."""
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.d)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
    return params


# ----------------------------- numeric primitives -----------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Shift-stable softmax along the last axis."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, target_index: int) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of one index plus the gradient w.r.t. the logits.

    Probabilities are floored at 1e-30 before the log so the loss is total.
    """
    if not 0 <= target_index < probs.shape[0]:
        raise ValueError(f"target index {target_index} out of range for {probs.shape[0]} options")
    loss = -float(np.log(max(float(probs[target_index]), 1e-30)))
    grad = probs.copy()
    grad[target_index] -= 1.0
    return loss, grad


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of ``x``, which it overwrites with the normalized ``xhat``.

    The means are ``sum / n``: the very operations ``np.mean`` performs,
    without its Python-level dispatch.
    """
    n = x.shape[-1]
    x -= x.sum(axis=-1, keepdims=True) / n
    var = (x * x).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    x *= inv
    y = x * gain
    y += bias
    return y, (x, inv, gain)


def _layer_norm_backward(dy: np.ndarray, cache):
    """Gradients w.r.t. the input, gain and bias; the means are ``sum / n``,
    as in ``_layer_norm``."""
    xhat, inv, gain = cache
    n = dy.shape[-1]
    dxhat = dy * gain
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    dx = (dxhat - m1 - xhat * m2) * inv
    sum_axes = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=sum_axes)
    dbias = dy.sum(axis=sum_axes)
    return dx, dgain, dbias


def _gelu(u: np.ndarray):
    cdf = u * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return u * cdf, cdf


def _gelu_grad(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    return cdf + u * np.exp(-0.5 * u * u) * _INV_SQRT_2PI


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


# ----------------------------- forward / backward -----------------------------


@dataclass
class EncoderTape:
    """Everything needed to replay the backward pass of one ``encode_batch`` call.

    ``layer_caches[i]`` holds block ``i``'s input ``x`` (B, T, D), its keys and
    values (B, H, T, dh), and its query-side tensors: ``qh`` (B, H, Tq, dh),
    ``attn`` (B, H, Tq, T), then ``ctx``, the layer-norm caches, ``y1``,
    ``pre``, ``act`` and ``gelu_cdf`` over Tq positions, where Tq is T for
    every block but the last and 1 for the last.

    ``params`` holds the parameter tensors by reference, not a copy: an
    in-place optimizer step changes what a later ``backprop_batch`` on this
    tape would read. The training loops finish every backward pass before
    they step, and no caller keeps a tape across a step.
    """

    config: EncoderConfig
    params: Mapping[str, np.ndarray]
    ids: np.ndarray
    layer_caches: list[dict] = field(default_factory=list)


def encode_batch(
    params: Mapping[str, np.ndarray],
    config: EncoderConfig,
    ids: np.ndarray,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, EncoderTape]:
    """Encode a padded batch; positions at or past each row's length are masked
    out of attention, so pad content never reaches the pooled output. The
    last block computes position 0 only, the one that is pooled.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("ids must have shape (batch, length)")
    b, t = ids.shape
    if t > config.max_len:
        raise ValueError(f"sequence length {t} exceeds max_len {config.max_len}")
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if lengths is None:
        lengths = np.full(b, t, dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (b,) or lengths.min() < 1 or lengths.max() > t:
            raise ValueError("lengths must be in [1, T] with one entry per row")

    d, n_heads = config.d, config.n_heads
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    key_mask = np.arange(t)[None, :] < lengths[:, None]          # (B, T)
    neg = np.where(key_mask[:, None, None, :], 0.0, -np.inf)     # (B, 1, 1, T)

    # Sums and scalings below run in place on fresh temporaries; each is the
    # same IEEE operation as its out-of-place form, so results are unchanged.
    x = params["tok_emb"][ids]
    x += params["pos_emb"][:t]
    tape = EncoderTape(config=config, params=params, ids=ids)

    for i in range(config.n_layers):
        p = f"block{i}."
        xq = x if i < config.n_layers - 1 else x[:, :1]          # (B, Tq, D)
        q = xq @ params[p + "wq"]
        q += params[p + "bq"]
        k = x @ params[p + "wk"]
        k += params[p + "bk"]
        v = x @ params[p + "wv"]
        v += params[p + "bv"]
        qh, kh, vh = (_split_heads(z, n_heads) for z in (q, k, v))
        attn = qh @ kh.swapaxes(-1, -2)                          # (B, H, Tq, T)
        attn *= scale
        attn += neg
        attn -= attn.max(axis=-1, keepdims=True)                 # softmax, as ``softmax`` computes it
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn @ vh)                            # (B, Tq, D)
        sum1 = ctx @ params[p + "wo"]
        sum1 += params[p + "bo"]
        sum1 += xq
        y1, ln1_cache = _layer_norm(sum1, params[p + "ln1_g"], params[p + "ln1_b"])
        pre = y1 @ params[p + "ffn_w1"]
        pre += params[p + "ffn_b1"]
        act, gelu_cdf = _gelu(pre)
        sum2 = act @ params[p + "ffn_w2"]
        sum2 += params[p + "ffn_b2"]
        sum2 += y1
        y2, ln2_cache = _layer_norm(sum2, params[p + "ln2_g"], params[p + "ln2_b"])
        tape.layer_caches.append(
            {
                "x": x, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx,
                "ln1": ln1_cache, "y1": y1, "pre": pre, "act": act,
                "gelu_cdf": gelu_cdf, "ln2": ln2_cache,
            }
        )
        x = y2

    pooled = x[:, 0, :].copy()
    return pooled, tape


def backprop_batch(tape: EncoderTape, pooled_grad: np.ndarray, grads: Mapping[str, np.ndarray]) -> None:
    """Add the exact gradients of <pooled, pooled_grad> w.r.t. every parameter
    tensor into ``grads``, which has the tape's parameter names and shapes."""
    config, params = tape.config, tape.params
    pooled_grad = np.asarray(pooled_grad, dtype=np.float64)
    b, t = tape.ids.shape
    if pooled_grad.shape != (b, config.d):
        raise ValueError("pooled_grad shape must match (batch, d) of the encode call")
    if len(tape.layer_caches) != config.n_layers:
        raise ValueError("stale or mismatched tape")

    n_heads = config.n_heads
    scale = 1.0 / np.sqrt(config.d // n_heads)

    dx = pooled_grad[:, None, :]                                 # (B, Tq=1, D) of the last block

    for i in reversed(range(config.n_layers)):
        p = f"block{i}."
        c = tape.layer_caches[i]

        dsum2, dg2, db2 = _layer_norm_backward(dx, c["ln2"])
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        dy1 = dsum2.copy()
        dffn_out = dsum2

        dact = dffn_out @ params[p + "ffn_w2"].T
        grads[p + "ffn_w2"] += c["act"].reshape(-1, config.d_ff).T @ dffn_out.reshape(-1, config.d)
        grads[p + "ffn_b2"] += dffn_out.sum(axis=(0, 1))
        dpre = dact * _gelu_grad(c["pre"], c["gelu_cdf"])
        dy1 += dpre @ params[p + "ffn_w1"].T
        grads[p + "ffn_w1"] += c["y1"].reshape(-1, config.d).T @ dpre.reshape(-1, config.d_ff)
        grads[p + "ffn_b1"] += dpre.sum(axis=(0, 1))

        dsum1, dg1, db1 = _layer_norm_backward(dy1, c["ln1"])
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        dx_res = dsum1
        dattn_out = dsum1

        dctx = dattn_out @ params[p + "wo"].T
        grads[p + "wo"] += c["ctx"].reshape(-1, config.d).T @ dattn_out.reshape(-1, config.d)
        grads[p + "bo"] += dattn_out.sum(axis=(0, 1))

        dctx_h = _split_heads(dctx, n_heads)                       # (B, H, Tq, dh)
        dattn = dctx_h @ c["vh"].swapaxes(-1, -2)                  # (B, H, Tq, T)
        dvh = c["attn"].swapaxes(-1, -2) @ dctx_h                  # (B, H, T, dh)
        a = c["attn"]
        dscores = a * (dattn - (dattn * a).sum(axis=-1, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.swapaxes(-1, -2) @ c["qh"] * scale

        dq, dk, dv = (_merge_heads(z) for z in (dqh, dkh, dvh))
        x = c["x"]
        tq = dq.shape[1]
        for name, xz, dz in (("wq", x[:, :tq], dq), ("wk", x, dk), ("wv", x, dv)):
            grads[p + name] += xz.reshape(-1, config.d).T @ dz.reshape(-1, config.d)
            grads[p + "b" + name[1]] += dz.sum(axis=(0, 1))
        dx = dk @ params[p + "wk"].T + dv @ params[p + "wv"].T     # (B, T, D)
        dx[:, :tq] += dq @ params[p + "wq"].T + dx_res

    # each token's rows summed into zeros in row order (bincount adds its
    # weights one by one), then added to the table once
    d, ids = config.d, tape.ids.reshape(-1)
    tokens = np.flatnonzero(np.bincount(ids, minlength=config.vocab_size))
    offsets = np.searchsorted(tokens, ids)[:, None] * d + np.arange(d)
    rows = np.bincount(offsets.reshape(-1), weights=dx.reshape(-1), minlength=len(tokens) * d)
    grads["tok_emb"][tokens] += rows.reshape(-1, d)
    grads["pos_emb"][:t] += dx.sum(axis=0)


# ----------------------------- Adam with linear warmup -----------------------------


@dataclass
class AdamState:
    """Step count and the first and second moment vectors, laid out like the
    parameter vector they step.

    ``denom`` and ``delta`` are scratch vectors of the same size, allocated
    once here, into which ``adam_step`` writes its intermediates, so a step
    allocates no parameter-sized temporary.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    denom: np.ndarray = field(init=False, repr=False, compare=False)
    delta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.denom = np.empty_like(self.m)
        self.delta = np.empty_like(self.m)

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        """Fresh state for stepping ``params``: zero moments, step 0."""
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def warmup_steps(warmup_fraction: float, total_steps: int) -> int:
    """Length in steps of a warmup given as a fraction of ``total_steps``."""
    return int(round(warmup_fraction * total_steps))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float, warmup_steps: int = 0) -> None:
    """One Adam update of ``params`` in place, with the learning rate ramped
    linearly over ``warmup_steps``; ``grads``, ``state.m`` and ``state.v``
    share the layout of ``params``.

    Non-finite gradients raise before anything is written. Every
    intermediate goes into the state's scratch vectors, one IEEE operation
    at a time in the order of the textbook update
    ``lr_t * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is bitwise
    that of the out-of-place form.
    """
    if not np.all(np.isfinite(grads)):
        raise ValueError("non-finite gradient")
    t = state.step + 1
    lr_t = lr * min(1.0, t / warmup_steps) if warmup_steps > 0 else lr
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v, denom, delta = state.m, state.v, state.denom, state.delta
    m *= ADAM_BETA1
    np.multiply(grads, 1.0 - ADAM_BETA1, out=denom)
    m += denom
    v *= ADAM_BETA2
    np.multiply(grads, 1.0 - ADAM_BETA2, out=denom)
    denom *= grads
    v += denom
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, bc1, out=delta)
    delta *= lr_t
    delta /= denom
    params -= delta
    state.step = t


# ----------------------------- checkpoint format -----------------------------

_CKPT_MAGIC = b"MRCL1\n"


def save_checkpoint(path: str, header: dict, tensors: Mapping[str, np.ndarray]) -> None:
    """Binary checkpoint: JSON header line, then name/shape-prefixed float64 LE tensors."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8") + b"\n")
        for name, arr in tensors.items():
            raw = np.ascontiguousarray(arr, dtype="<f8")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", raw.ndim))
            for dim in raw.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(raw.tobytes())


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a ``save_checkpoint`` file. A record that claims more bytes than
    the file has left raises ``ModelConfigError`` before anything is read, and
    so does a second record of one name."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ModelConfigError(f"{path}: not a model checkpoint")
        header_line = fh.readline().removesuffix(b"\n")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ModelConfigError(f"{path}: bad checkpoint header: {exc}") from exc
        size = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str = "tensor record") -> bytes:
            if n > size - fh.tell():
                raise ModelConfigError(f"{path}: truncated {what}")
            return fh.read(n)

        tensors: dict[str, np.ndarray] = {}
        try:
            while fh.tell() < size:
                (name_len,) = struct.unpack("<I", take(4))
                name = take(name_len).decode("utf-8")
                if name in tensors:
                    raise ModelConfigError(f"{path}: duplicated tensor record {name!r}")
                (ndim,) = struct.unpack("<I", take(4))
                shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
                raw = take(math.prod(shape) * 8, f"tensor {name!r}")
                tensors[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        except (struct.error, UnicodeDecodeError, ValueError, MemoryError) as exc:
            raise ModelConfigError(f"{path}: corrupt tensor record: {exc}") from exc
    return header, tensors
