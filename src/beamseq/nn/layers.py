"""Layers: dense, embedding, LSTM, global attention, dropout, softmax CE.

The LSTM and attention kernels take whole sequences; see the package
docstring for why, and for their single-step slices. Their backward passes
rebuild what their forwards do not cache: ``lstm_sequence_backward`` the c
and h stacks, in one buffer, and ``attention_sequence_backward`` the keys
and values. The LSTM cache holds the gate activations and (h0, c0), not the
input: the caller passes the input to the backward, and may rebuild it from
the cache of the layer below, read with ``lstm_states`` and
``dropout_apply``, before that layer's own backward consumes it.

Parameter containers are plain dataclasses of float64 arrays. ``params_items``
and ``accumulate_params`` give generic traversal so the optimizer and
checkpoints never need layer-specific code.

Dropout is on exactly when a generator is passed: ``rng=None`` is inference.

Each forward returns its cache as a list, and the matching backward consumes
it through ``_consume``; see the package docstring. ``lstm_states`` and
``dropout_apply`` only read one.
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
    "lstm_input_product",
    "lstm_recurrence",
    "lstm_step",
    "lstm_sequence_forward",
    "lstm_sequence_backward",
    "lstm_states",
    "lstm_cell_forward",
    "lstm_cell_backward",
    "attention_memory_forward",
    "attention_attend_forward",
    "attention_sequence_forward",
    "attention_sequence_backward",
    "attention_forward",
    "attention_backward",
    "dropout_forward",
    "dropout_backward",
    "dropout_apply",
    "softmax",
    "softmax_cross_entropy_batch",
    "init_dense",
    "init_embedding",
    "init_lstm",
    "init_attention",
    "params_items",
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


def accumulate_params(dst, src) -> None:
    for f in dataclasses.fields(dst):
        getattr(dst, f.name).__iadd__(getattr(src, f.name))


def _consume(cache: list) -> tuple:
    """The entries of a forward's cache, which is left empty."""
    entries = tuple(cache)
    cache.clear()
    return entries


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
    return y, [p, x]


def dense_backward(cache, grad_y: np.ndarray):
    p, x = _consume(cache)
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
    return p.table[tokens], [p, tokens]


def embedding_backward(cache, grad_y: np.ndarray):
    p, tokens = _consume(cache)
    grads = EmbeddingParams(table=np.zeros_like(p.table))
    np.add.at(grads.table, tokens, grad_y)
    return grads


# ---------------------------------------------------------------------------
# LSTM: a time-major sequence kernel; the single-step API is its S=1 slice


def _gate_blocks(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the i, f, g, o blocks of a (B, 4H) gate array."""
    hid = a.shape[1] // 4
    return a[:, :hid], a[:, hid : 2 * hid], a[:, 2 * hid : 3 * hid], a[:, 3 * hid :]


def _cell_c(i, f, g, c_prev: np.ndarray, c: np.ndarray, tc: np.ndarray) -> None:
    """c = f*c_prev + i*g into ``c`` (which may be ``c_prev``) from the gate
    activation blocks i, f, g, with ``tc`` (B, H) as the scratch for i*g."""
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=tc)
    c += tc


def _cell_h(o, c: np.ndarray, tc: np.ndarray, h: np.ndarray) -> None:
    """h = o*tanh(c) into ``h`` (which may be ``c``) from the output gate
    block o; tanh(c) is left in ``tc`` (B, H)."""
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def lstm_step(wh_t, a, h_prev, c, tc, h_out) -> None:
    """One LSTM step in place, for the step's input products ``a`` (B, 4H)
    from ``lstm_input_product``, the previous output ``h_prev`` (B, H) and
    the recurrent weights ``wh_t`` = ``p.wh.T`` (H, 4H).

    ``a`` gets ``h_prev W_hᵀ`` added and becomes the gate activations
    [i, f, g, o]: i, f, o = sigmoid(z) = (tanh(z/2) + 1)/2 and g = tanh(z),
    with one ``np.tanh`` over the whole row (branch-free and overflow-free:
    tanh saturates where exp would overflow). Then c (B, H) is updated in
    place, c = f*c + i*g, and h = o*tanh(c) is written into ``h_out`` (B, H);
    ``tc`` (B, H) is scratch and ends holding tanh(c). Nothing is allocated
    but the product ``h_prev W_hᵀ``, and nothing is checked: the caller
    checks shapes once and finiteness once per call.
    """
    a += h_prev @ wh_t
    i, f, g, o = _gate_blocks(a)
    i_f = a[:, : 2 * c.shape[1]]
    i_f *= 0.5
    o *= 0.5
    np.tanh(a, out=a)
    i_f += 1.0
    o += 1.0
    i_f *= 0.5
    o *= 0.5
    _cell_c(i, f, g, c, c, tc)
    _cell_h(o, c, tc, h_out)


def lstm_input_product(p: LSTMParams, x: np.ndarray) -> np.ndarray:
    """The gate pre-activations that do not depend on h, ``x W_xᵀ + b`` (N, 4H),
    for input rows x (N, D).

    ``lstm_sequence_forward`` forms it as one GEMM over all S*B rows; a decoder
    fed back its own tokens can form it once per vocabulary row and index it.
    """
    z = x @ p.wx.T
    z += p.b
    return z


def lstm_recurrence(p: LSTMParams, act: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Step the LSTM over input products ``act`` (S, B, 4H) from
    ``lstm_input_product``, from the state (h0, c0) (B, H).

    i, f, o = sigmoid(...), g = tanh(...), c = f*c_prev + i*g, h = o*tanh(c).
    Each step is one ``lstm_step``, which adds only ``h W_hᵀ`` before the
    gates and the cell, and overwrites ``act`` with the gate activations. The
    buffers are allocated once per call in the parameters' dtype: the h
    stack, c as one (B, H) array, a copy of c0, and one (B, H) scratch for
    i*g and tanh(c). The output is checked for non-finite values once, after
    the last step. The cache is (h0, c0, act), h0 and c0 by reference, and
    holds no h or c stack: the backward pass rebuilds both from the gate
    activations, in one (S+1, B, H) buffer, so neither the returned h nor c
    is cached. Returns (h (S, B, H), c_S, cache).
    """
    hid = p.hidden_size
    if act.ndim != 3 or act.shape[2] != 4 * hid:
        raise ValueError(f"lstm expects input products (S, B, {4 * hid}), got {act.shape}")
    s, b, _ = act.shape
    if h0.shape != (b, hid) or c0.shape != (b, hid):
        raise ValueError(f"lstm state shapes {h0.shape}, {c0.shape} vs (B, H) = {(b, hid)}")
    h = np.empty((s, b, hid), p.wh.dtype)
    c = c0.astype(p.wh.dtype)
    tc = np.empty((b, hid), p.wh.dtype)
    wh_t = p.wh.T
    h_prev = h0
    for t in range(s):
        lstm_step(wh_t, act[t], h_prev, c, tc, h[t])
        h_prev = h[t]
    if not np.all(np.isfinite(h)):
        raise NumericError("non-finite LSTM activation")
    return h, c, (h0, c0, act)


def lstm_sequence_forward(p: LSTMParams, x: np.ndarray, h0: np.ndarray, c0: np.ndarray):
    """Run the LSTM over a time-major sequence x (S, B, D) from (h0, c0)
    (B, H): ``lstm_input_product`` over all S*B rows in one GEMM, then
    ``lstm_recurrence``. Returns (h (S, B, H), c_S (B, H), cache).

    The cache is (p, h0, c0, gate activations) and holds no input, not even
    the row copy a non-contiguous x needs for the GEMM: the caller passes x
    again to ``lstm_sequence_backward``.
    """
    if x.ndim != 3 or x.shape[2] != p.input_size:
        raise ValueError(f"lstm expects x of shape (S, B, {p.input_size}), got {x.shape}")
    s, b, d = x.shape
    act = lstm_input_product(p, x.reshape(s * b, d)).reshape(s, b, 4 * p.hidden_size)
    h, c, cache = lstm_recurrence(p, act, h0, c0)
    return h, c, [p, *cache]


def _c_stack(p: LSTMParams, act: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """c_0 … c_S (S+1, B, H) rebuilt from c0 and the gate activations ``act``
    (S, B, 4H) by the forward's own c update (``_cell_c``), in the
    parameters' dtype, so every row equals the forward's c bit for bit."""
    s, b, _ = act.shape
    ch = np.empty((s + 1, b, p.hidden_size), p.wh.dtype)
    ch[0] = c0
    tc = np.empty((b, p.hidden_size), p.wh.dtype)
    for t in range(s):
        i, f, g, _ = _gate_blocks(act[t])
        _cell_c(i, f, g, ch[t], ch[t + 1], tc)
    return ch


def _h_over_c(act: np.ndarray, ch: np.ndarray, t: int, tc: np.ndarray) -> None:
    """Write step t's output h = o_t * tanh(c_{t+1}) over c_{t+1} in the
    buffer ``ch`` from ``_c_stack`` by the forward's own h emit
    (``_cell_h``), leaving tanh(c_{t+1}) in ``tc`` (B, H)."""
    _cell_h(_gate_blocks(act[t])[3], ch[t + 1], tc, ch[t + 1])


def lstm_states(cache) -> np.ndarray:
    """The h outputs (S, B, H) of the ``lstm_sequence_forward`` that made
    ``cache``, rebuilt bit for bit from its gate activations and c0 as
    ``lstm_sequence_backward`` rebuilds them. It reads the cache and does not
    consume it, so the layer's backward can still run on it; a model uses it
    to rebuild the input of the layer above for that layer's backward."""
    p, _, c0, act = cache
    ch = _c_stack(p, act, c0)
    tc = np.empty_like(ch[0])
    for t in range(len(act)):
        _h_over_c(act, ch, t, tc)
    return ch[1:]


def _lstm_step_backward(a, tc, c_prev, dh, dc, wh):
    """Backward through one step whose gate activations [i, f, g, o] are
    ``a`` (B, 4H) and whose tanh(c) is ``tc`` (B, H). Overwrites ``a`` with
    the pre-activation gradient dz and returns (dh_prev, dc_prev)."""
    i, f, g, o = _gate_blocks(a)
    dc = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dc * f
    dz_g = dc * i * (1.0 - g * g)
    i[...] = dc * g * i * (1.0 - i)
    f[...] = dc * c_prev * f * (1.0 - f)
    o[...] = dh * tc * o * (1.0 - o)
    g[...] = dz_g
    return a @ wh, dc_prev


def lstm_sequence_backward(cache, grad_h: np.ndarray, grad_c: np.ndarray, x: np.ndarray):
    """Backward through ``lstm_sequence_forward`` from the gradients on every
    h (S, B, H) and on the final c (B, H), given the layer's input x
    (S, B, D) again, since the cache holds none; returns (param grads,
    dx (S, B, D), dh0, dc0).

    The c stack c_0 … c_S is rebuilt first, into one (S+1, B, H) buffer
    (``_c_stack``). The reverse loop recomputes tanh(c) from it one step at a
    time and, before dz overwrites o, writes h_{t+1} = o_t * tanh(c_{t+1})
    over c_{t+1}, which no later step reads (``_h_over_c``); h0 goes over
    c_0 after the loop. So the buffer ends as the recurrence inputs
    h_0 … h_{S-1} (and h_S, unread), every value equals the forward's bit for
    bit, and the gradients equal those from cached stacks. It consumes the
    cache: the activation buffer is overwritten with dz. The gradients are
    one GEMM each over all S*B rows after the loop, in the order that holds
    the least: the ``wh`` gradient from the buffer, which is then dropped,
    then the ``wx`` gradient from x, then dx.
    """
    p, h0, c0, act = _consume(cache)
    s, b, _ = act.shape
    hid = p.hidden_size
    if x.shape != (s, b, p.input_size):
        raise ValueError(f"lstm input {x.shape} is not (S, B, D) = {(s, b, p.input_size)}")
    ch = _c_stack(p, act, c0)
    del c0
    dh = np.zeros((b, hid), p.wh.dtype)
    dc = grad_c
    tc = np.empty((b, hid), p.wh.dtype)
    for t in reversed(range(s)):
        _h_over_c(act, ch, t, tc)
        dh, dc = _lstm_step_backward(act[t], tc, ch[t], grad_h[t] + dh, dc, p.wh)
    hs = ch[:s]
    hs[:1] = h0  # empty at S = 0
    del h0, ch
    dz = act.reshape(s * b, 4 * hid)
    g_wh = dz.T @ hs.reshape(s * b, hid)
    del hs
    grads = LSTMParams(wx=dz.T @ x.reshape(s * b, p.input_size), wh=g_wh, b=dz.sum(axis=0))
    return grads, (dz @ p.wx).reshape(s, b, p.input_size), dh, dc


def lstm_cell_forward(p: LSTMParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One step, (B, D) → (h, c, cache): ``lstm_sequence_forward`` at S = 1.

    No model runs the single-step slices; they stay because the benchmark's
    tracer (``perfbench/tracer.py``) wraps them by name."""
    h, c, cache = lstm_sequence_forward(p, x[None], h_prev, c_prev)
    return h[0], c, cache


def lstm_cell_backward(cache, grad_h: np.ndarray, grad_c: np.ndarray, x: np.ndarray):
    """Backward through one step from its input x (B, D); returns (param
    grads, dx, dh_prev, dc_prev). Kept only for the benchmark's tracer; see
    ``lstm_cell_forward``."""
    grads, dx, dh_prev, dc_prev = lstm_sequence_backward(cache, grad_h[None], grad_c, x[None])
    return grads, dx[0], dh_prev, dc_prev


# ---------------------------------------------------------------------------
# global attention (multiplicative score): keys and values projected from the
# encoder states, attended from any number of queries


def _state_rows(enc_states: np.ndarray) -> np.ndarray:
    """Encoder states (B, T, H) as (B*T, H) rows, after checking that T >= 1."""
    if enc_states.ndim != 3 or enc_states.shape[1] < 1:
        raise ValueError(f"encoder states must be (B, T>=1, H), got {enc_states.shape}")
    return enc_states.reshape(-1, enc_states.shape[2])


def _query_rows(query: np.ndarray, states_shape) -> np.ndarray:
    """Queries (B, K, H) as (B*K, H) rows, after checking them against
    encoder states of shape ``states_shape`` (B, T, H)."""
    if query.ndim != 3 or query.shape[::2] != states_shape[::2]:
        raise ValueError(f"query {query.shape} is not (B, K, H) for states {states_shape}")
    return query.reshape(-1, query.shape[2])


def _keys(p: AttentionParams, e2: np.ndarray, states) -> np.ndarray:
    """Keys ``e2 W_scoreᵀ`` of the state rows e2 (B*T, H), shaped ``states``
    (B, T, H), so that score_t = q·key_t = qᵀ W_score h_t; one GEMM."""
    return (e2 @ p.w_score.T).reshape(states)


def _values(p: AttentionParams, e2: np.ndarray, states) -> np.ndarray:
    """Values ``e2 W_cᵀ`` of the state rows e2 (B*T, H), shaped ``states``
    (B, T, H), with W_c the context half ``w_combine[:, :H]``, so that the
    context term of the combine layer is the weighted sum of values; one GEMM."""
    return (e2 @ p.w_combine[:, : e2.shape[1]].T).reshape(states)


def _combine(p: AttentionParams, context: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """combined = tanh(context + W_q q + b) (B*K, H), formed in place over the
    context term weights·values (B, K, H); W_q is the query half
    ``w_combine[:, H:]``, applied to the query rows q2 as one GEMM."""
    z = context.reshape(q2.shape)
    z += q2 @ p.w_combine[:, q2.shape[1] :].T
    z += p.b_combine
    return np.tanh(z, out=z)


def attention_memory_forward(p: AttentionParams, enc_states: np.ndarray):
    """Project encoder states (B, T, H) once per encoding into the attention
    memory (keys, values), each (B, T, H), for ``attention_attend_forward``.
    An inference path: it returns no cache."""
    e2 = _state_rows(enc_states)
    return _keys(p, e2, enc_states.shape), _values(p, e2, enc_states.shape)


def attention_attend_forward(p: AttentionParams, memory, query: np.ndarray):
    """Attend from K queries per sequence, query (B, K, H), over a memory from
    ``attention_memory_forward``: weights = softmax(q·keys) (B, K, T) and
    combined = tanh(weights·values + W_q q + b) (B, K, H), with W_q the query
    half ``w_combine[:, H:]``. An inference path: returns (weights, combined)
    and no cache."""
    keys, values = memory
    q2 = _query_rows(query, keys.shape)
    weights = softmax(q2.reshape(query.shape) @ keys.transpose(0, 2, 1))
    return weights, _combine(p, weights @ values, q2).reshape(query.shape)


def attention_sequence_forward(p: AttentionParams, query: np.ndarray, enc_states: np.ndarray):
    """Attend from K queries per sequence, query (B, K, H), over its encoder
    states (B, T, H), as ``attention_attend_forward`` does over the memory
    of ``attention_memory_forward``. Returns (weights (B, K, T), combined
    (B, K, H), cache); combined = tanh(W_c [context; query] + b) with
    context = weights·enc_states, which is never formed on its own.

    The keys are formed, read by the scores and dropped before the values are
    formed, and the values are dropped once their weighted sum is formed: the
    cache holds the encoder states, the query rows (a view of the query when
    it is C-contiguous, as the decoder passes it), the weights and the
    combined output, and no keys or values. The backward rebuilds each
    projection for its one read.
    """
    e2 = _state_rows(enc_states)
    q2 = _query_rows(query, enc_states.shape)
    keys = _keys(p, e2, enc_states.shape)
    weights = softmax(q2.reshape(query.shape) @ keys.transpose(0, 2, 1))
    del keys
    combined = _combine(p, weights @ _values(p, e2, enc_states.shape), q2)
    return weights, combined.reshape(query.shape), [p, e2, q2, weights, combined]


def attention_sequence_backward(cache, grad_combined: list):
    """Backward from the combined outputs' gradient (B, K, H), passed as the
    one entry of a list that is emptied like the cache; returns (param grads,
    dquery (B, K, H), denc (B, T, H)).

    dz overwrites the cached combined output, so the layer that reads it must
    have run its backward first. The upstream gradient is dropped once dz is
    formed, so a caller that holds it only in the list holds it no longer.
    The values and then the keys are rebuilt from the encoder states just
    before their one read. The work is ordered so that, once the upstream
    gradient is dropped, at most two arrays of the encoder states' size are
    live beyond the cached ones, outputs included: dk and its d_enc term are
    formed before the keys are rebuilt, the query rows are dropped after
    their last read, and dquery is formed as dscores·keys before dz·W_q is
    added, a two-term float sum, which commutes, so its bytes are those of
    the other order.
    """
    p, e2, q2, weights, dz = _consume(cache)
    (grad,) = _consume(grad_combined)
    b, k, t = weights.shape
    hid = q2.shape[1]
    states = (b, t, hid)
    # dz = grad_combined * (1 - combined * combined), formed in place
    np.multiply(dz, dz, out=dz)
    np.subtract(1.0, dz, out=dz)
    np.multiply(grad.reshape(b * k, hid), dz, out=dz)
    del grad
    dz3 = dz.reshape(b, k, hid)
    dweights = dz3 @ _values(p, e2, states).transpose(0, 2, 1)
    # softmax Jacobian applied row-wise
    dscores = weights * (dweights - np.sum(dweights * weights, axis=2, keepdims=True))
    del dweights
    # through the keys, keys = e2 W_scoreᵀ
    dk = (dscores.transpose(0, 2, 1) @ q2.reshape(b, k, hid)).reshape(b * t, hid)
    g_w_score = dk.T @ e2
    d_enc = dk @ p.w_score
    del dk
    g_w_query = dz.T @ q2
    del q2
    dquery = dscores @ _keys(p, e2, states)
    del dscores
    dquery += (dz @ p.w_combine[:, hid:]).reshape(b, k, hid)
    g_b_combine = dz.sum(axis=0)
    # through the values, values = e2 W_cᵀ
    dv = (weights.transpose(0, 2, 1) @ dz3).reshape(b * t, hid)
    del weights, dz, dz3
    d_enc += dv @ p.w_combine[:, :hid]
    grads = AttentionParams(
        w_score=g_w_score,
        w_combine=np.concatenate([dv.T @ e2, g_w_query], axis=1),
        b_combine=g_b_combine,
    )
    return grads, dquery, d_enc.reshape(b, t, hid)


def attention_forward(p: AttentionParams, query: np.ndarray, enc_states: np.ndarray):
    """One decoder step, query (B, H): ``attention_sequence_forward`` at K = 1.
    Returns (weights (B, T), combined (B, H), cache). Kept only for the
    benchmark's tracer; see ``lstm_cell_forward``."""
    weights, combined, cache = attention_sequence_forward(p, query[:, None], enc_states)
    return weights[:, 0], combined[:, 0], cache


def attention_backward(cache, grad_combined: np.ndarray):
    """Backward from the combined output (B, H); returns (param grads, dquery,
    denc). Kept only for the benchmark's tracer; see ``lstm_cell_forward``."""
    grads, dquery, denc = attention_sequence_backward(cache, [grad_combined[:, None]])
    return grads, dquery[:, 0], denc


# ---------------------------------------------------------------------------
# dropout


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator | None):
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate). Identity at inference, ``rng=None``, whose cache is None."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x, None
    cache = [rng.random(x.shape) >= rate, 1.0 / (1.0 - rate)]
    return dropout_apply(cache, x), cache


def dropout_apply(cache, x: np.ndarray) -> np.ndarray:
    """x times the mask of a ``dropout_forward`` cache, ``x * keep * scale``;
    x itself for the None cache of inference. It reads the cache and does not
    consume it, so a model can redo a dropout, bit for bit, before its
    backward runs."""
    if cache is None:
        return x
    keep, scale = cache
    return x * keep * scale


def dropout_backward(cache, grad_y: np.ndarray):
    return dropout_apply(None if cache is None else _consume(cache), grad_y)


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
