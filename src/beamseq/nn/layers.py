"""Layers: dense, embedding, LSTM cell, global attention, dropout, softmax CE.

Parameter containers are plain dataclasses of float64 arrays. ``params_items``
/ ``zeros_like_params`` / ``accumulate_params`` give generic traversal so the
optimizer and checkpoints never need layer-specific code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericError",
    "DenseParams",
    "EmbeddingParams",
    "LSTMParams",
    "AttentionParams",
    "dense_forward",
    "dense_backward",
    "embedding_forward",
    "embedding_backward",
    "lstm_cell_forward",
    "lstm_cell_backward",
    "attention_forward",
    "attention_backward",
    "dropout_forward",
    "dropout_backward",
    "softmax",
    "softmax_cross_entropy",
    "softmax_cross_entropy_batch",
    "init_dense",
    "init_embedding",
    "init_lstm",
    "init_attention",
    "params_items",
    "zeros_like_params",
    "accumulate_params",
]


class NumericError(ArithmeticError):
    """Non-finite value produced where the math guarantees finiteness."""


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class DenseParams:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class EmbeddingParams:
    table: np.ndarray  # (vocab, dim)


@dataclass
class LSTMParams:
    """One LSTM cell with its gates fused, stacked in the order input i,
    forget f, cell g, output o: rows ``k*H:(k+1)*H`` belong to gate k."""

    wx: np.ndarray  # (4H, D)
    wh: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


@dataclass
class AttentionParams:
    """Global attention with the multiplicative (general) score."""

    w_score: np.ndarray  # (H, H), score_s = q^T W h_s
    w_combine: np.ndarray  # (H, 2H), applied to [context; query]
    b_combine: np.ndarray  # (H,)


def params_items(params, prefix: str = ""):
    """Yield (name, array) for every field of a parameter dataclass."""
    for f in dataclasses.fields(params):
        yield (prefix + f.name if prefix else f.name), getattr(params, f.name)


def zeros_like_params(params):
    return type(params)(
        **{f.name: np.zeros_like(getattr(params, f.name)) for f in dataclasses.fields(params)}
    )


def accumulate_params(dst, src) -> None:
    for f in dataclasses.fields(dst):
        getattr(dst, f.name).__iadd__(getattr(src, f.name))


# ---------------------------------------------------------------------------
# initialization: uniform U[-k, k] with k = 1/sqrt(fan_in)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


def init_dense(rng: np.random.Generator, in_dim: int, out_dim: int) -> DenseParams:
    return DenseParams(
        weight=_uniform(rng, (out_dim, in_dim), in_dim),
        bias=np.zeros(out_dim),
    )


def init_embedding(rng: np.random.Generator, vocab: int, dim: int) -> EmbeddingParams:
    return EmbeddingParams(table=_uniform(rng, (vocab, dim), dim))


def init_lstm(rng: np.random.Generator, input_dim: int, hidden: int) -> LSTMParams:
    # One draw per gate, input weights first, so a seed gives the weights of
    # per-gate draws. Forget-gate bias starts at 1.0 for a stable memory path.
    return LSTMParams(
        wx=np.concatenate([_uniform(rng, (hidden, input_dim), input_dim) for _ in "ifgo"]),
        wh=np.concatenate([_uniform(rng, (hidden, hidden), hidden) for _ in "ifgo"]),
        b=np.concatenate([np.zeros(hidden), np.ones(hidden), np.zeros(2 * hidden)]),
    )


def init_attention(rng: np.random.Generator, hidden: int) -> AttentionParams:
    return AttentionParams(
        w_score=_uniform(rng, (hidden, hidden), hidden),
        w_combine=_uniform(rng, (hidden, 2 * hidden), 2 * hidden),
        b_combine=np.zeros(hidden),
    )


# ---------------------------------------------------------------------------
# dense


def dense_forward(p: DenseParams, x: np.ndarray):
    """y = x W^T + b for x of shape (B, in)."""
    if x.ndim != 2 or x.shape[1] != p.weight.shape[1]:
        raise ValueError(f"dense expects (B, {p.weight.shape[1]}), got {x.shape}")
    y = x @ p.weight.T + p.bias
    return y, (p, x)


def dense_backward(cache, grad_y: np.ndarray):
    p, x = cache
    grads = DenseParams(weight=grad_y.T @ x, bias=grad_y.sum(axis=0))
    grad_x = grad_y @ p.weight
    return grads, grad_x


# ---------------------------------------------------------------------------
# embedding


def embedding_forward(p: EmbeddingParams, tokens: np.ndarray):
    """Row lookup for integer tokens of shape (B,)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValueError(f"tokens must be 1-D, got shape {tokens.shape}")
    if np.any(tokens < 0) or np.any(tokens >= p.table.shape[0]):
        raise ValueError(
            f"token out of range [0, {p.table.shape[0]}): {tokens.min()}..{tokens.max()}"
        )
    return p.table[tokens], (p, tokens)


def embedding_backward(cache, grad_y: np.ndarray):
    p, tokens = cache
    grads = EmbeddingParams(table=np.zeros_like(p.table))
    np.add.at(grads.table, tokens, grad_y)
    return grads


# ---------------------------------------------------------------------------
# LSTM cell


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Branch-free and overflow-free: tanh saturates where exp would overflow.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def lstm_cell_forward(p: LSTMParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One step of the standard LSTM recurrence.

    i, f, o = sigmoid(...), g = tanh(...), c = f*c_prev + i*g, h = o*tanh(c).
    """
    if x.shape[1] != p.input_size or h_prev.shape[1] != p.hidden_size:
        raise ValueError(
            f"lstm shapes: x {x.shape} vs D={p.input_size}, h {h_prev.shape} vs H={p.hidden_size}"
        )
    z_i, z_f, z_g, z_o = np.split(x @ p.wx.T + h_prev @ p.wh.T + p.b, 4, axis=1)
    i, f, g, o = _sigmoid(z_i), _sigmoid(z_f), np.tanh(z_g), _sigmoid(z_o)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite LSTM activation")
    cache = (p, x, h_prev, c_prev, i, f, g, o, tc)
    return h, c, cache


def lstm_cell_backward(cache, grad_h: np.ndarray, grad_c: np.ndarray):
    """Backward through one step; returns (param grads, dx, dh_prev, dc_prev)."""
    p, x, h_prev, c_prev, i, f, g, o, tc = cache
    dc = grad_c + grad_h * o * (1.0 - tc * tc)
    dz = np.concatenate(
        [
            dc * g * i * (1.0 - i),  # input gate
            dc * c_prev * f * (1.0 - f),  # forget gate
            dc * i * (1.0 - g * g),  # cell candidate
            grad_h * tc * o * (1.0 - o),  # output gate
        ],
        axis=1,
    )
    grads = LSTMParams(wx=dz.T @ x, wh=dz.T @ h_prev, b=dz.sum(axis=0))
    return grads, dz @ p.wx, dz @ p.wh, dc * f


# ---------------------------------------------------------------------------
# global attention (multiplicative score)


def attention_forward(p: AttentionParams, query: np.ndarray, enc_states: np.ndarray):
    """Attend over encoder states with score_s = q^T W h_s.

    query: (B, H); enc_states: (B, T, H). Returns (context (B, H),
    weights (B, T), combined (B, H), cache) where
    combined = tanh(W_c [context; query] + b).
    """
    if enc_states.ndim != 3 or enc_states.shape[1] < 1:
        raise ValueError(f"encoder states must be (B, T>=1, H), got {enc_states.shape}")
    qp = query @ p.w_score  # (B, H)
    scores = np.einsum("bh,bth->bt", qp, enc_states)
    weights = softmax(scores)
    context = np.einsum("bt,bth->bh", weights, enc_states)
    cat = np.concatenate([context, query], axis=1)
    z = cat @ p.w_combine.T + p.b_combine
    combined = np.tanh(z)
    cache = (p, query, enc_states, qp, weights, cat, combined)
    return context, weights, combined, cache


def attention_backward(cache, grad_combined: np.ndarray):
    """Backward from the combined output; returns (param grads, dquery, denc)."""
    p, query, enc_states, qp, weights, cat, combined = cache
    hidden = query.shape[1]
    dz = grad_combined * (1.0 - combined * combined)
    g_w_combine = dz.T @ cat
    g_b_combine = dz.sum(axis=0)
    dcat = dz @ p.w_combine
    dcontext = dcat[:, :hidden]
    dquery = dcat[:, hidden:].copy()

    dweights = np.einsum("bh,bth->bt", dcontext, enc_states)
    denc = weights[:, :, None] * dcontext[:, None, :]
    # softmax Jacobian applied row-wise
    dscores = weights * (dweights - np.sum(dweights * weights, axis=1, keepdims=True))
    dqp = np.einsum("bt,bth->bh", dscores, enc_states)
    denc += dscores[:, :, None] * qp[:, None, :]
    g_w_score = query.T @ dqp
    dquery += dqp @ p.w_score.T
    grads = AttentionParams(w_score=g_w_score, w_combine=g_w_combine, b_combine=g_b_combine)
    return grads, dquery, denc


# ---------------------------------------------------------------------------
# dropout


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator, training: bool):
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate). Identity when not training."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    return x * keep * scale, (keep, scale)


def dropout_backward(cache, grad_y: np.ndarray):
    if cache is None:
        return grad_y
    keep, scale = cache
    return grad_y * keep * scale


# ---------------------------------------------------------------------------
# softmax cross-entropy


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; works on 1-D or 2-D input."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_cross_entropy_batch(logits: np.ndarray, targets: np.ndarray):
    """Per-row -log softmax(logits)[target] and its gradient.

    logits: (B, X); targets: (B,) ints. Returns (losses (B,), grads (B, X)).
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ValueError(f"shape mismatch: logits {logits.shape}, targets {targets.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    if np.any(targets < 0) or np.any(targets >= logits.shape[1]):
        raise ValueError("target class out of range")
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1))
    rows = np.arange(logits.shape[0])
    losses = log_norm - shifted[rows, targets]
    grads = np.exp(shifted - log_norm[:, None])
    grads[rows, targets] -= 1.0
    return losses, grads


def softmax_cross_entropy(logits: np.ndarray, target: int):
    """Single-sample convenience wrapper; returns (loss, grad_logits)."""
    losses, grads = softmax_cross_entropy_batch(
        np.asarray(logits, dtype=np.float64)[None, :], np.asarray([target])
    )
    return float(losses[0]), grads[0]
