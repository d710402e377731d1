"""Layer forward/backward correctness, Adam, dropout, and checkpoints."""

import inspect
import io
import textwrap
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamseq import nn
from beamseq.nn import (
    AttentionParams,
    CheckpointError,
    DenseParams,
    EmbeddingParams,
    adam_init,
    adam_step,
    attention_backward,
    attention_forward,
    attention_sequence_backward,
    attention_sequence_forward,
    clip_global_norm,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    embedding_backward,
    embedding_forward,
    init_attention,
    init_dense,
    init_embedding,
    init_lstm,
    layers,
    load_tensors,
    lstm_cell_backward,
    lstm_cell_forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    params_items,
    save_tensors,
    softmax,
    softmax_cross_entropy_batch,
)
from beamseq.seq2seq import (
    Seq2SeqHyper,
    _batch_forward_backward,
    _decode_teacher_batch,
    _encode_batch,
    init_model,
)
from gradcheck import finite_diff_check
from oracles import (
    term_by_term_attention,
    term_by_term_attention_backward,
    term_by_term_lstm_cell,
    term_by_term_lstm_cell_backward,
)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestDense:
    def test_identity_weights(self):
        p = DenseParams(weight=np.eye(3), bias=np.zeros(3))
        x = rng_for(0).normal(size=(4, 3))
        y, _ = dense_forward(p, x)
        np.testing.assert_array_equal(y, x)

    def test_zero_upstream_grad(self):
        p = init_dense(rng_for(1), 3, 5)
        x = rng_for(2).normal(size=(2, 3))
        _, cache = dense_forward(p, x)
        grads, gx = dense_backward(cache, np.zeros((2, 5)))
        assert not np.any(grads.weight) and not np.any(grads.bias) and not np.any(gx)

    def test_finite_difference(self):
        rng = rng_for(3)
        p = init_dense(rng, 3, 5)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 5))

        def loss():
            y, _ = dense_forward(p, x)
            return float(np.sum((y - target) ** 2))

        y, cache = dense_forward(p, x)
        grads, gx = dense_backward(cache, 2.0 * (y - target))
        err = finite_diff_check(
            loss, [p.weight, p.bias, x], [grads.weight, grads.bias, gx], rng
        )
        assert err < 1e-6

    def test_shape_mismatch(self):
        p = init_dense(rng_for(4), 3, 5)
        with pytest.raises(ValueError):
            dense_forward(p, np.zeros((2, 4)))


class TestEmbedding:
    def test_lookup_returns_rows(self):
        p = init_embedding(rng_for(5), 7, 4)
        y, _ = embedding_forward(p, np.array([0, 3]))
        np.testing.assert_array_equal(y[0], p.table[0])
        np.testing.assert_array_equal(y[1], p.table[3])

    def test_repeated_token_grads_sum(self):
        p = init_embedding(rng_for(6), 5, 3)
        _, cache = embedding_forward(p, np.array([2, 2]))
        g = np.ones((2, 3))
        grads = embedding_backward(cache, g)
        np.testing.assert_array_equal(grads.table[2], 2.0 * np.ones(3))
        assert not np.any(np.delete(grads.table, 2, axis=0))

    def test_finite_difference_on_looked_up_rows(self):
        rng = rng_for(7)
        p = init_embedding(rng, 6, 4)
        tokens = np.array([1, 4, 1])
        coeff = rng.normal(size=(3, 4))

        def loss():
            y, _ = embedding_forward(p, tokens)
            return float(np.sum(coeff * y))

        _, cache = embedding_forward(p, tokens)
        grads = embedding_backward(cache, coeff)
        err = finite_diff_check(loss, [p.table], [grads.table], rng, max_probes_per_tensor=24)
        assert err < 1e-6

    def test_token_out_of_range(self):
        p = init_embedding(rng_for(8), 5, 3)
        with pytest.raises(ValueError):
            embedding_forward(p, np.array([5]))


class TestLstmCell:
    def test_all_zero_params_fixpoint(self):
        p = init_lstm(rng_for(9), 3, 4)
        for _, arr in params_items(p):
            arr[...] = 0.0
        x = rng_for(10).normal(size=(2, 3))
        h, c, _ = lstm_cell_forward(p, x, np.zeros((2, 4)), np.zeros((2, 4)))
        # g = tanh(0) = 0 forces c = 0 and therefore h = 0
        np.testing.assert_array_equal(h, np.zeros((2, 4)))
        np.testing.assert_array_equal(c, np.zeros((2, 4)))

    def test_saturated_forget_gate_preserves_cell(self):
        p = init_lstm(rng_for(11), 3, 4)
        for _, arr in params_items(p):
            arr[...] = 0.0
        hidden = p.hidden_size
        p.b[hidden : 2 * hidden] = 20.0  # forget block; sigmoid(20) ~ 1 - 2e-9
        c_prev = rng_for(12).normal(size=(2, 4))
        _, c, _ = lstm_cell_forward(p, np.zeros((2, 3)), np.zeros((2, 4)), c_prev)
        np.testing.assert_allclose(c, c_prev, rtol=1e-6)

    def test_init_stacks_one_draw_per_gate(self):
        # Rows are gates i, f, g, o; all input weights are drawn before the
        # recurrent ones, so a seed gives the weights of per-gate draws.
        p = init_lstm(rng_for(14), 3, 4)
        rng = rng_for(14)
        wx = [rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=(4, 3)) for _ in "ifgo"]
        wh = [rng.uniform(-1 / np.sqrt(4), 1 / np.sqrt(4), size=(4, 4)) for _ in "ifgo"]
        np.testing.assert_array_equal(p.wx, np.concatenate(wx))
        np.testing.assert_array_equal(p.wh, np.concatenate(wh))
        np.testing.assert_array_equal(p.b, np.repeat([0.0, 1.0, 0.0, 0.0], 4))
        assert [name for name, _ in params_items(p)] == ["wx", "wh", "b"]

    def test_full_backward_finite_difference(self):
        rng = rng_for(13)
        p = init_lstm(rng, 3, 4)
        x = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        wh = rng.normal(size=(2, 4))
        wc = rng.normal(size=(2, 4))

        def loss():
            h, c, _ = lstm_cell_forward(p, x, h0, c0)
            return float(np.sum(wh * h) + np.sum(wc * c))

        h, c, cache = lstm_cell_forward(p, x, h0, c0)
        grads, dx, dh0, dc0 = lstm_cell_backward(cache, wh, wc, x)
        tensors = [arr for _, arr in params_items(p)] + [x, h0, c0]
        analytic = [arr for _, arr in params_items(grads)] + [dx, dh0, dc0]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=32)
        assert err < 1e-5


class TestLstmSequence:
    def test_full_backward_finite_difference(self):
        rng = rng_for(31)
        p = init_lstm(rng, 3, 4)
        x = rng.normal(size=(5, 2, 3))
        h0 = rng.normal(size=(2, 4))
        c0 = rng.normal(size=(2, 4))
        wh = rng.normal(size=(5, 2, 4))
        wc = rng.normal(size=(2, 4))

        def loss():
            h, c, _ = lstm_sequence_forward(p, x, h0, c0)
            return float(np.sum(wh * h) + np.sum(wc * c))

        _, _, cache = lstm_sequence_forward(p, x, h0, c0)
        grads, dx, dh0, dc0 = lstm_sequence_backward(cache, wh, wc, x)
        tensors = [arr for _, arr in params_items(p)] + [x, h0, c0]
        analytic = [arr for _, arr in params_items(grads)] + [dx, dh0, dc0]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=32)
        assert err < 1e-5

    def test_cache_holds_no_tanh_c_stack(self, traced_memory):
        # input products (4 units of S*B*H floats) and the h and c stacks
        # (S+1 steps each); tanh(c) is recomputed by the backward pass
        s, b, hid = 30, 16, 64
        rng = rng_for(35)
        p = init_lstm(rng, hid, hid)
        x = rng.normal(size=(s, b, hid))
        zeros = np.zeros((b, hid))
        _, retained, _ = traced_memory(lambda: lstm_sequence_forward(p, x, zeros, zeros))
        assert retained < 6.5 * s * b * hid * 8

    def test_forward_retains_no_h_or_c_stack(self, traced_memory):
        # the input products (4 units of S*B*H floats) and the returned h (1
        # unit); the backward pass rebuilds the h and c stacks, which would
        # add (S+1)/S units each
        s, b, hid = 30, 16, 64
        rng = rng_for(36)
        p = init_lstm(rng, hid, hid)
        x = rng.normal(size=(s, b, hid))
        zeros = np.zeros((b, hid))
        _, retained, _ = traced_memory(lambda: lstm_sequence_forward(p, x, zeros, zeros))
        assert retained < 5.5 * s * b * hid * 8

    def test_backward_rebuilds_c_and_h_in_one_stack(self, traced_memory):
        # The backward rebuilds c_0 … c_S and writes each h over the c row no
        # step reads any more, so its peak above entry is one (S+1, B, H)
        # stack and (B, H) temporaries; separate h and c stacks would make it
        # two. B*H is large against the weights, so the gradients and dx
        # formed after the buffer is dropped stay under the stack.
        s, b, hid = 32, 64, 16
        rng = rng_for(58)
        p = init_lstm(rng, hid, hid)
        x = rng.normal(size=(s, b, hid))
        zeros = np.zeros((b, hid))
        _, _, cache = lstm_sequence_forward(p, x, zeros, zeros)
        grad_h = rng.normal(size=(s, b, hid))
        _, retained, above = traced_memory(
            lambda: lstm_sequence_backward(cache, grad_h, zeros, x)
        )
        assert retained + above < 1.5 * (s + 1) * b * hid * 8

    def test_backward_never_holds_the_buffer_and_both_weight_gradients(self, traced_memory):
        # The weights are large against B*H here. The wh gradient is formed
        # from the rebuilt buffer, which is then dropped before the wx
        # gradient and dx are formed, so the peak above entry is the buffer
        # and the wh gradient, or the returned gradients, plus (B, H)
        # temporaries. Holding the buffer and both weight gradients at once
        # would add a wx gradient on top of the first.
        s, b, hid, d = 32, 4, 64, 16
        rng = rng_for(59)
        p = init_lstm(rng, d, hid)
        x = rng.normal(size=(s, b, d))
        zeros = np.zeros((b, hid))
        _, _, cache = lstm_sequence_forward(p, x, zeros, zeros)
        grad_h = rng.normal(size=(s, b, hid))
        _, retained, above = traced_memory(
            lambda: lstm_sequence_backward(cache, grad_h, zeros, x)
        )
        buffer, wx, wh = (s + 1) * b * hid * 8, p.wx.nbytes, p.wh.nbytes
        assert retained + above < buffer + wh + wx / 2

    def test_forward_retains_no_copy_of_a_non_contiguous_input(self, traced_memory):
        # A time-major view of batch-major rows, as the encoder passes its
        # projected features, needs a row copy for the input GEMM. The cache
        # holds no input, so the forward retains the input products (4 units
        # of S*B*H floats) and the returned h (1 unit) and not that copy.
        s, b, hid = 30, 16, 64
        rng = rng_for(60)
        p = init_lstm(rng, hid, hid)
        x = rng.normal(size=(b * s, hid)).reshape(b, s, hid).transpose(1, 0, 2)
        zeros = np.zeros((b, hid))
        _, retained, _ = traced_memory(lambda: lstm_sequence_forward(p, x, zeros, zeros))
        assert retained < 5.5 * s * b * hid * 8

    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_states_rebuild_the_forward_h_and_leave_the_cache_usable(self, s):
        rng = rng_for(61)
        p = init_lstm(rng, 3, 4)
        p.b[...] = rng.normal(size=16)
        x = rng.normal(size=(s, 2, 3))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        grad_h, grad_c = rng.normal(size=(s, 2, 4)), rng.normal(size=(2, 4))
        runs = []
        for read_states in (False, True):
            h, _, cache = lstm_sequence_forward(p, x, h0, c0)
            if read_states:
                states = nn.lstm_states(cache)
                assert states.shape == h.shape
                assert states.tobytes() == h.tobytes()
            grads, *inputs = lstm_sequence_backward(cache, grad_h, grad_c, x)
            runs.append([arr.tobytes() for arr in [*inputs, grads.wx, grads.wh, grads.b]])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_returned_c_never_aliases_c0(self, s):
        rng = rng_for(37)
        p = init_lstm(rng, 3, 4)
        c0 = rng.normal(size=(2, 4))
        kept = c0.copy()
        x = rng.normal(size=(s, 2, 3))
        _, c, cache = lstm_sequence_forward(p, x, np.zeros((2, 4)), c0)
        assert not np.shares_memory(c, c0)
        c += 1.0
        lstm_sequence_backward(cache, np.ones((s, 2, 4)), np.ones((2, 4)), x)
        np.testing.assert_array_equal(c0, kept)

    def test_steps_give_the_sequence_bytes(self):
        # lstm_step over the input products one step at a time, as a greedy
        # decoder runs it, on an h stack whose row 0 is h0
        rng = rng_for(62)
        p = init_lstm(rng, 3, 4)
        p.b[...] = rng.normal(size=16)
        x = rng.normal(size=(4, 2, 3))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        h, c, cache = lstm_sequence_forward(p, x, h0, c0)
        act = nn.lstm_input_product(p, x.reshape(8, 3)).reshape(4, 2, 16)
        hs, cs, tc = np.empty((5, 2, 4)), c0.copy(), np.empty((2, 4))
        hs[0] = h0
        for t in range(4):
            nn.lstm_step(p.wh.T, act[t], hs[t], cs, tc, hs[t + 1])
            assert tc.tobytes() == np.tanh(cs).tobytes()
        assert act.tobytes() == cache[3].tobytes()  # the gate activations
        assert hs[1:].tobytes() == h.tobytes() and cs.tobytes() == c.tobytes()

    def test_float32_parameters_keep_every_buffer_in_float32(self):
        rng = rng_for(63)
        f32 = np.float32
        p = init_lstm(rng, 3, 4)
        p = nn.LSTMParams(wx=p.wx.astype(f32), wh=p.wh.astype(f32), b=p.b.astype(f32))
        x = rng.normal(size=(5, 2, 3)).astype(f32)
        h0, c0 = rng.normal(size=(2, 4)).astype(f32), rng.normal(size=(2, 4)).astype(f32)
        h, c, cache = lstm_sequence_forward(p, x, h0, c0)
        arrays = {"h": h, "c": c, "states": nn.lstm_states(cache)}
        arrays.update({f"cache[{k}]": entry for k, entry in enumerate(cache[1:], 1)})
        grad_h, grad_c = rng.normal(size=(5, 2, 4)).astype(f32), np.ones((2, 4), f32)
        grads, dx, dh0, dc0 = lstm_sequence_backward(cache, grad_h, grad_c, x)
        arrays.update(dx=dx, dh0=dh0, dc0=dc0)
        arrays.update({f"grad {name}": arr for name, arr in params_items(grads)})
        a, cs, tc, h1 = rng.normal(size=(2, 16)).astype(f32), c0.copy(), np.empty_like(c0), c0 * 0
        nn.lstm_step(p.wh.T, a, h0, cs, tc, h1)
        arrays.update({"step a": a, "step c": cs, "step tc": tc, "step h": h1})
        assert {name: arr.dtype for name, arr in arrays.items()} == dict.fromkeys(arrays, f32)

    def test_non_finite_activation_raises(self):
        p = init_lstm(rng_for(33), 3, 4)
        x = np.zeros((3, 2, 3))
        x[1, 0, 0] = np.nan
        with pytest.raises(nn.NumericError):
            lstm_sequence_forward(p, x, np.zeros((2, 4)), np.zeros((2, 4)))

    def test_state_shape_mismatch(self):
        p = init_lstm(rng_for(34), 3, 4)
        with pytest.raises(ValueError):
            lstm_sequence_forward(p, np.zeros((3, 2, 3)), np.zeros((1, 4)), np.zeros((2, 4)))


class TestAttention:
    def test_identical_states_give_uniform_weights(self):
        rng = rng_for(14)
        p = init_attention(rng, 4)
        state = rng.normal(size=4)
        enc = np.tile(state, (1, 5, 1))
        q = rng.normal(size=(1, 4))
        weights, combined, _ = attention_forward(p, q, enc)
        np.testing.assert_allclose(weights, np.full((1, 5), 0.2), atol=1e-12, rtol=0)
        # the context, weights·states, is the shared state itself
        want = np.tanh(p.w_combine @ np.concatenate([state, q[0]]) + p.b_combine)
        np.testing.assert_allclose(combined[0], want, atol=1e-12, rtol=0)

    def test_single_state(self):
        rng = rng_for(15)
        p = init_attention(rng, 4)
        enc = rng.normal(size=(2, 1, 4))
        q = rng.normal(size=(2, 4))
        weights, combined, _ = attention_forward(p, q, enc)
        np.testing.assert_allclose(weights, np.ones((2, 1)), atol=1e-15, rtol=0)
        # the context is the one state; summed in the kernel's order
        w_context, w_query = np.split(p.w_combine, 2, axis=1)
        want = np.tanh(enc[:, 0] @ w_context.T + q @ w_query.T + p.b_combine)
        np.testing.assert_allclose(combined, want, atol=1e-15, rtol=0)

    def test_backward_finite_difference(self):
        rng = rng_for(16)
        p = init_attention(rng, 4)
        q = rng.normal(size=(3, 4))
        enc = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(3, 4))

        def loss():
            _, combined, _ = attention_forward(p, q, enc)
            return float(np.sum(w * combined))

        _, _, cache = attention_forward(p, q, enc)
        grads, dq, denc = attention_backward(cache, w)
        tensors = [p.w_score, p.w_combine, p.b_combine, q, enc]
        analytic = [grads.w_score, grads.w_combine, grads.b_combine, dq, denc]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=12)
        assert err < 1e-5

    def test_empty_sequence_rejected(self):
        p = init_attention(rng_for(17), 4)
        with pytest.raises(ValueError):
            attention_forward(p, np.zeros((1, 4)), np.zeros((1, 0, 4)))

    def test_sequence_backward_finite_difference(self):
        rng = rng_for(35)
        p = init_attention(rng, 4)
        q = rng.normal(size=(2, 3, 4))
        enc = rng.normal(size=(2, 5, 4))
        w = rng.normal(size=(2, 3, 4))

        def loss():
            _, combined, _ = attention_sequence_forward(p, q, enc)
            return float(np.sum(w * combined))

        _, _, cache = attention_sequence_forward(p, q, enc)
        grads, dq, denc = attention_sequence_backward(cache, [w])
        tensors = [p.w_score, p.w_combine, p.b_combine, q, enc]
        analytic = [grads.w_score, grads.w_combine, grads.b_combine, dq, denc]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=12)
        assert err < 1e-5

    def test_query_batch_mismatch_rejected(self):
        p = init_attention(rng_for(37), 4)
        with pytest.raises(ValueError):
            attention_sequence_forward(p, np.zeros((2, 3, 4)), np.zeros((1, 5, 4)))


def _assert_pairs_within_1e_12(pairs):
    # each (got, want) to 1e-12 of want's largest magnitude; empty at S = 0
    for got, want in pairs:
        assert got.shape == want.shape
        bound = 1e-12 * np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= bound


class TestAttentionMatchesTermByTerm:
    @pytest.mark.parametrize("b, k, t, hid", [(2, 3, 5, 4), (3, 1, 4, 6), (2, 2, 1, 3)])
    def test_memory_and_attend(self, b, k, t, hid):
        rng = rng_for(38 + k)
        p = init_attention(rng, hid)
        p.b_combine[...] = rng.normal(size=hid)
        query = rng.normal(size=(b, k, hid))
        enc = rng.normal(size=(b, t, hid))
        want_weights, want_combined = term_by_term_attention(p, query, enc)
        memory = nn.attention_memory_forward(p, enc)
        weights, combined = nn.attention_attend_forward(p, memory, query)
        outputs = [(weights, want_weights), (combined, want_combined)]
        if k == 1:
            weights1, combined1, _ = attention_forward(p, query[:, 0], enc)
            outputs += [(weights1, want_weights[:, 0]), (combined1, want_combined[:, 0])]
        for got, want in outputs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("b, k, t, hid", [(2, 3, 5, 4), (3, 1, 4, 6), (2, 2, 1, 3)])
    def test_sequence_backward(self, b, k, t, hid):
        rng = rng_for(41 + k)
        p = init_attention(rng, hid)
        p.b_combine[...] = rng.normal(size=hid)
        query = rng.normal(size=(b, k, hid))
        enc = rng.normal(size=(b, t, hid))
        grad = rng.normal(size=(b, k, hid))
        weights, combined = term_by_term_attention(p, query, enc)
        want_grads, want_dq, want_denc = term_by_term_attention_backward(
            p, query, enc, weights, combined, grad
        )
        _, _, cache = attention_sequence_forward(p, query, enc)
        grads, dq, denc = attention_sequence_backward(cache, [grad])
        pairs = [(dq, want_dq), (denc, want_denc)]
        pairs += [(getattr(grads, name), arr) for name, arr in params_items(want_grads)]
        _assert_pairs_within_1e_12(pairs)


class TestLstmMatchesTermByTerm:
    @pytest.mark.parametrize(
        "s, b, d, hid", [(4, 2, 3, 5), (1, 3, 6, 4), (3, 1, 2, 2), (0, 2, 3, 5)]
    )
    def test_sequence_forward_and_backward(self, s, b, d, hid):
        # the sequence kernel against the term-by-term cell stepped S times
        rng = rng_for(50 + s)
        p = init_lstm(rng, d, hid)
        p.b[...] = rng.normal(size=4 * hid)
        x = rng.normal(size=(s, b, d))
        h0, c0 = rng.normal(size=(b, hid)), rng.normal(size=(b, hid))
        grad_h, grad_c = rng.normal(size=(s, b, hid)), rng.normal(size=(b, hid))
        h, c, caches = h0, c0, []
        want_h = np.empty((s, b, hid))
        for t in range(s):
            want_h[t], c, cache = term_by_term_lstm_cell(p, x[t], h, c)
            h = want_h[t]
            caches.append(cache)
        want_c = c
        want_grads = nn.LSTMParams(*(np.zeros_like(arr) for _, arr in params_items(p)))
        want_dx = np.empty_like(x)
        dh, dc = np.zeros((b, hid)), grad_c
        for t in reversed(range(s)):
            g, want_dx[t], dh, dc = term_by_term_lstm_cell_backward(caches[t], grad_h[t] + dh, dc)
            nn.accumulate_params(want_grads, g)

        got_h, got_c, cache = lstm_sequence_forward(p, x, h0, c0)
        pairs = [(got_h, want_h), (got_c, want_c)]
        grads, dx, dh0, dc0 = lstm_sequence_backward(cache, grad_h, grad_c, x)
        pairs += [(dx, want_dx), (dh0, dh), (dc0, dc)]
        pairs += [(getattr(grads, name), arr) for name, arr in params_items(want_grads)]
        _assert_pairs_within_1e_12(pairs)

    def test_cell_forward_and_backward(self):
        # the single-step slices against one term-by-term step
        b, d, hid = 3, 4, 5
        rng = rng_for(57)
        p = init_lstm(rng, d, hid)
        p.b[...] = rng.normal(size=4 * hid)
        x, h0, c0 = rng.normal(size=(b, d)), rng.normal(size=(b, hid)), rng.normal(size=(b, hid))
        grad_h, grad_c = rng.normal(size=(b, hid)), rng.normal(size=(b, hid))
        want_h, want_c, want_cache = term_by_term_lstm_cell(p, x, h0, c0)
        want_grads, *want_inputs = term_by_term_lstm_cell_backward(want_cache, grad_h, grad_c)

        h, c, cache = lstm_cell_forward(p, x, h0, c0)
        grads, *inputs = lstm_cell_backward(cache, grad_h, grad_c, x)
        pairs = [(h, want_h), (c, want_c), *zip(inputs, want_inputs)]
        pairs += [(getattr(grads, name), arr) for name, arr in params_items(want_grads)]
        _assert_pairs_within_1e_12(pairs)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        losses, _ = softmax_cross_entropy_batch(np.zeros((1, 4)), np.array([2]))
        assert losses[0] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_uniform_logits_256(self):
        logits = np.zeros((4, 256))
        losses, _ = softmax_cross_entropy_batch(logits, np.array([0, 17, 99, 255]))
        np.testing.assert_allclose(losses, np.log(256.0), rtol=0, atol=1e-12)
        assert losses.mean() == pytest.approx(np.log(256.0), abs=1e-12)

    def test_near_one_hot(self):
        logits = np.zeros((1, 6))
        logits[0, 3] = 50.0
        losses, _ = softmax_cross_entropy_batch(logits, np.array([3]))
        assert losses[0] < 1e-20

    def test_aligned_one_hot_logits(self):
        # one aligned ±30 row per target
        targets = np.array([1, 4, 0])
        logits = np.full((3, 5), -30.0)
        logits[np.arange(3), targets] = 30.0
        losses, _ = softmax_cross_entropy_batch(logits, targets)
        assert losses.mean() < 1e-20

    def test_matches_per_step_mean_oracle(self):
        rng = rng_for(7)
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        per_step = []
        for k in range(6):
            p = np.exp(logits[k] - logits[k].max())
            p /= p.sum()
            per_step.append(-np.log(p[targets[k]]))
        losses, _ = softmax_cross_entropy_batch(logits, targets)
        assert losses.mean() == pytest.approx(np.mean(per_step), rel=1e-12)

    @pytest.mark.parametrize(
        "logits_shape, targets_shape", [((4, 9), (3,)), ((4, 9), (4, 1)), ((9,), (1,))]
    )
    def test_shape_mismatch_rejected(self, logits_shape, targets_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            softmax_cross_entropy_batch(
                np.zeros(logits_shape), np.zeros(targets_shape, dtype=np.int64)
            )

    def test_grad_finite_difference(self):
        rng = rng_for(18)
        logits = rng.normal(size=(3, 10))
        targets = np.array([4, 0, 9])

        def loss():
            return float(softmax_cross_entropy_batch(logits, targets)[0].sum())

        _, grad = softmax_cross_entropy_batch(logits, targets)
        err = finite_diff_check(loss, [logits], [grad], rng, max_probes_per_tensor=10)
        assert err < 1e-6

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = rng_for(19)
        z = rng.normal(size=(8, 12)) * 10
        s = softmax(z)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        np.testing.assert_allclose(softmax(z + 123.0), s, atol=1e-12, rtol=0)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy_batch(np.zeros((1, 4)), np.array([4]))

    def test_batch_matches_single(self):
        rng = rng_for(20)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        losses, grads = softmax_cross_entropy_batch(logits, targets)
        for b in range(5):
            loss_b, grad_b = softmax_cross_entropy_batch(logits[b : b + 1], targets[b : b + 1])
            assert losses[b] == pytest.approx(loss_b[0], abs=1e-15)
            np.testing.assert_allclose(grads[b], grad_b[0], atol=1e-15, rtol=0)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = rng_for(21).normal(size=(3, 4))
        y, _ = dropout_forward(x, 0.0, rng_for(0))
        np.testing.assert_array_equal(y, x)

    def test_inference_identity_any_rate(self):
        x = rng_for(22).normal(size=(3, 4))
        y, cache = dropout_forward(x, 0.7, None)
        assert y is x
        assert dropout_backward(cache, x) is x

    def test_survivor_fraction_and_mean(self):
        rng = rng_for(23)
        x = np.ones((1000, 1000))
        y, _ = dropout_forward(x, 0.2, rng)
        survivors = np.count_nonzero(y) / y.size
        assert survivors == pytest.approx(0.8, abs=0.002)
        assert y.mean() == pytest.approx(1.0, abs=0.005)

    def test_backward_uses_same_mask(self):
        rng = rng_for(24)
        x = np.ones((50, 50))
        y, cache = dropout_forward(x, 0.3, rng)
        dx = dropout_backward(cache, np.ones_like(x))
        np.testing.assert_array_equal(dx, y)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones(3), 1.0, rng_for(0))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = {"p": np.array([1.0, -2.0, 3.0])}
        state = adam_init(params)
        before = params["p"].copy()
        adam_step(params, {"p": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["p"], before)

    def test_first_step_hand_computed(self):
        # p=1, g=0.5, defaults: m_hat=0.5, v_hat=0.25 -> p' = 1 - 1e-3*(0.5/0.5)
        params = {"p": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"p": np.array([0.5])}, state)
        assert params["p"][0] == pytest.approx(0.999, abs=1e-8)

    def test_constant_gradient_update_magnitude_approaches_alpha(self):
        params = {"p": np.array([0.0])}
        state = adam_init(params)
        prev = params["p"][0]
        for _ in range(200):
            adam_step(params, {"p": np.array([1.0])}, state)
            step = prev - params["p"][0]
            prev = params["p"][0]
        # with constant g the bias-corrected moments give exactly alpha/(1+eps')
        assert step == pytest.approx(nn.optim.ALPHA, rel=1e-6)
        assert params["p"][0] == pytest.approx(-200 * nn.optim.ALPHA, rel=1e-5)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        norm, clipped = clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert clipped
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(2.5)
        norm2, clipped2 = clip_global_norm(grads, 10.0)
        assert not clipped2

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, np.inf, np.nan])
    def test_clip_global_norm_rejects_bad_max_norm(self, max_norm):
        # a negative bound would flip every gradient, so Adam would climb the loss
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        with pytest.raises(ValueError, match="max_norm"):
            clip_global_norm(grads, max_norm)
        np.testing.assert_array_equal(grads["a"], [3.0, 0.0])


class TestFiniteDiffLinear:
    def test_linear_function_at_roundoff(self):
        rng = rng_for(25)
        w = rng.normal(size=8)
        x = rng.normal(size=8)

        def loss():
            return float(np.dot(w, x))

        err = finite_diff_check(loss, [x], [w.copy()], rng)
        assert err < 1e-9


MICRO_SEQ2SEQ = Seq2SeqHyper(
    feature_dim=3, history=2, horizon=2, num_beams=5, hidden=4, embed_dim=6, dropout=0.0
)


def micro_seq2seq_check(corrupt=None):
    """finite_diff_check score of the micro seq2seq model's BPTT gradients,
    after ``corrupt`` (if given) edits the named gradient dict in place."""
    model = init_model(MICRO_SEQ2SEQ, seed=13)
    rng = rng_for(8)
    feats = rng.normal(size=(2, 2, 3))
    targets = rng.integers(0, 5, size=(2, 2))

    def loss_fn():
        enc, _ = _encode_batch(model, feats)
        logits, _ = _decode_teacher_batch(model, enc, targets)
        losses, _ = softmax_cross_entropy_batch(logits.reshape(-1, 5), targets.reshape(-1))
        return float(losses.mean())

    _, _, grads = _batch_forward_backward(model, feats, targets, rng=None)
    named = model.named_params()
    grad_dict = model.grads_to_dict(grads)
    if corrupt is not None:
        corrupt(grad_dict)
    return finite_diff_check(
        loss_fn,
        list(named.values()),
        [grad_dict[k] for k in named],
        rng_for(0),
        max_probes_per_tensor=24,
    )


def _mutant(fn, old: str, new: str):
    """``fn`` recompiled from its source with the one occurrence of ``old``
    replaced by ``new``, bound to the globals of ``fn``'s module."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} is not in {fn.__name__} exactly once"
    namespace: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


# Single mutations of the backward math the training step runs: the LSTM step
# inside lstm_sequence_backward's loop, and the batched attention backward,
# through the attend, through the keys and values it rebuilds and through
# their projections.
BACKWARD_MUTATIONS = {
    "forget_gate_sign_flipped": (
        layers._lstm_step_backward, "f[...] = dc * c_prev", "f[...] = -dc * c_prev"
    ),
    "output_gate_dropped_from_dh_prev": (
        layers._lstm_step_backward,
        "return a @ wh, dc_prev",
        "return a[:, : 3 * tc.shape[1]] @ wh[: 3 * tc.shape[1]], dc_prev",
    ),
    "dc_prev_without_f": (layers._lstm_step_backward, "dc_prev = dc * f", "dc_prev = dc"),
    "tanh_prime_as_one_minus_g": (
        layers._lstm_step_backward, "(1.0 - g * g)", "(1.0 - g)"
    ),
    "softmax_jacobian_without_weighted_sum": (
        layers.attention_sequence_backward,
        "weights * (dweights - np.sum(dweights * weights, axis=2, keepdims=True))",
        "weights * dweights",
    ),
    "tanh_prime_dropped_from_attention_dz": (
        layers.attention_sequence_backward,
        "np.multiply(dz, dz, out=dz)\n    np.subtract(1.0, dz, out=dz)\n",
        "dz[...] = 1.0\n",
    ),
    "keys_term_dropped_from_dquery": (
        layers.attention_sequence_backward,
        "dquery = dscores @ _keys(p, e2, states)",
        "dquery = np.zeros((b, k, hid))",
    ),
    "keys_rebuilt_from_the_context_weights": (
        layers.attention_sequence_backward,
        "dquery = dscores @ _keys(p, e2, states)",
        "dquery = dscores @ _values(p, e2, states)",
    ),
    "values_rebuilt_from_the_score_weights": (
        layers.attention_sequence_backward,
        "dweights = dz3 @ _values(p, e2, states)",
        "dweights = dz3 @ _keys(p, e2, states)",
    ),
    "keys_term_dropped_from_d_enc_states": (
        layers.attention_sequence_backward,
        "d_enc = dk @ p.w_score\n",
        "d_enc = np.zeros_like(dk)\n",
    ),
}


class TestFiniteDiffNoiseFloor:
    def test_gradient_below_noise_floor_passes(self):
        # At L ~ 1.6 and h = 1e-5 the central difference is only good to
        # ~eps*L/h ~ 4e-11, so a true gradient of 1e-10 is mostly roundoff.
        x = np.zeros(4)
        grad = np.full(4, 1e-10)

        def loss():
            return float(1.6 + 1e-10 * x.sum())

        h = 1e-5
        numeric = ((1.6 + 1e-10 * h) - (1.6 - 1e-10 * h)) / (2 * h)
        assert abs(numeric - 1e-10) / 1e-10 > 1e-2  # percent-range raw discrepancy
        assert finite_diff_check(loss, [x], [grad], rng_for(27), h=h) < 1e-4

    def test_wrong_gradient_above_floor_still_scored(self):
        x = rng_for(28).normal(size=4)
        w = rng_for(29).normal(size=4)

        def loss():
            return float(1.6 + np.dot(w, x))

        err = finite_diff_check(loss, [x], [1.01 * w], rng_for(30))
        assert err == pytest.approx(0.01 / 1.01, rel=1e-4)

    def test_micro_seq2seq_gate_sign_flip_detected(self):
        def flip_forget_gate(grads):
            hidden = MICRO_SEQ2SEQ.hidden
            grads["enc_l2.wh"][hidden : 2 * hidden] *= -1.0  # forget-gate rows

        assert micro_seq2seq_check(flip_forget_gate) > 1e-4

    @pytest.mark.parametrize("mutation", sorted(BACKWARD_MUTATIONS))
    def test_micro_seq2seq_backward_mutation_detected(self, monkeypatch, mutation):
        fn, old, new = BACKWARD_MUTATIONS[mutation]
        mutant = _mutant(fn, old, new)
        for module in (layers, nn):
            if hasattr(module, fn.__name__):
                monkeypatch.setattr(module, fn.__name__, mutant)
        assert micro_seq2seq_check() > 1e-4


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = rng_for(26)
        tensors = [
            ("enc.w", rng.normal(size=(3, 4))),
            ("enc.b", rng.normal(size=4)),
            ("scalarish", rng.normal(size=(1,))),
        ]
        meta = {"arch": {"hidden": 4}, "seed": 7}
        path = tmp_path / "model.npz"
        save_tensors(path, tensors, meta)
        loaded, meta2 = load_tensors(path)
        assert meta2 == meta
        for name, arr in tensors:
            np.testing.assert_array_equal(loaded[name], arr)

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        save_tensors(path, [("a", np.zeros(2))], {})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_huge_dims_rejected(self, tmp_path):
        # A member whose .npy header declares 2**93 values and holds none.
        path = tmp_path / "huge.npz"
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (2**31,) * 3}
        )
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("t/a.npy", header.getvalue())
        with pytest.raises(CheckpointError):
            load_tensors(path)

    @pytest.mark.parametrize("shape", [(2**33,), (2**40,), (1,), (3,)])
    def test_header_size_other_than_data_rejected(self, tmp_path, shape):
        # 16 bytes of float64 data under a header declaring another shape;
        # (2**33,) used to escape as a MemoryError while allocating 64 GiB.
        path = tmp_path / "huge.npz"
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            member, {"descr": "<f8", "fortran_order": False, "shape": shape}
        )
        member.write(np.zeros(2).tobytes())
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("t/a.npy", member.getvalue())
        with pytest.raises(CheckpointError, match="declares"):
            load_tensors(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.npz"
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_tensors(path, [("a", np.zeros(3)), ("b", np.array(["not a float"]))], {})
        assert path.read_bytes() == before
        loaded, meta = load_tensors(path)
        np.testing.assert_array_equal(loaded["a"], np.arange(3.0))
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        # the archive write itself fails part way, after the temp file opened
        path = tmp_path / "model"  # no ".npz" suffix is appended
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError):
            save_tensors(path, [("a", np.zeros(3))], {})
        monkeypatch.undo()
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_tensors(path)[0]["a"], np.arange(3.0))
        assert list(tmp_path.iterdir()) == [path]

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "trunc.npz"
        save_tensors(path, [("a", np.arange(10.0))], {"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 6])
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "tiny.npz"
        save_tensors(path, [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(1))], {"k": 1})
        raw = path.read_bytes()
        assert set(load_tensors(path)[0]) == {"w", "b"}
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_tensors(path)

    @given(
        # NUL and lone surrogates are the name characters a zip member cannot
        # hold; see test_nul_in_tensor_name_rejected and
        # test_surrogate_in_tensor_name_rejected
        tensors=st.dictionaries(
            st.text(st.characters(exclude_characters="\0", exclude_categories=("Cs",)),
                    max_size=12),
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4).flatmap(
                lambda shape: hnp.arrays(np.float64, shape)
            ),
            max_size=5,
        ),
        metadata=st.dictionaries(
            st.text(max_size=6),
            st.none() | st.booleans() | st.integers() | st.text(max_size=8)
            | st.floats(allow_nan=False, allow_infinity=False),
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_exact(self, tmp_path_factory, tensors, metadata):
        path = tmp_path_factory.mktemp("ckpt") / "t.npz"
        save_tensors(path, list(tensors.items()), metadata)
        loaded, meta = load_tensors(path)
        assert meta == metadata
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()  # NaN payloads and -0.0 too

    @pytest.mark.parametrize("metadata", [[], "x", 5, None])
    def test_metadata_that_is_not_an_object_rejected(self, tmp_path, write_archive, metadata):
        path = tmp_path / "meta.npz"
        write_archive(path, [("t/a", np.zeros(2))], metadata)
        with pytest.raises(CheckpointError, match="not an object"):
            load_tensors(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path, write_archive):
        path = tmp_path / "dup.npz"
        write_archive(path, [("t/a", np.zeros(2)), ("t/b", np.ones(1)), ("t/a", np.ones(2))], {})
        with pytest.raises(CheckpointError, match="'t/a' appears twice"):
            load_tensors(path)

    def test_non_float64_tensor_rejected(self, tmp_path, write_archive):
        path = tmp_path / "int.npz"
        write_archive(path, [("t/a", np.arange(3))], {})
        with pytest.raises(CheckpointError, match="'a' is int64, not float64"):
            load_tensors(path)

    @pytest.mark.parametrize(
        "members, message",
        [
            ([("t/a.npy", b"not an array"), ("metadata.npy", b"{}")], "not a .npy array"),
            ([("t/a.npy", np.zeros(2))], "no metadata member"),
            ([("metadata.npy", np.frombuffer(b'{"k": ', np.uint8))], "bad metadata block"),
        ],
        ids=["raw-member", "no-metadata", "metadata-not-json"],
    )
    def test_malformed_archive_rejected(self, tmp_path, members, message):
        path = tmp_path / "bad.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name, content in members:
                if isinstance(content, np.ndarray):
                    with zf.open(name, "w") as fh:
                        np.lib.format.write_array(fh, content)
                else:
                    zf.writestr(name, content)
        with pytest.raises(CheckpointError, match=message):
            load_tensors(path)

    def test_bare_npy_rejected(self, tmp_path):
        path = tmp_path / "bare.npy"
        np.save(path, np.arange(3.0))
        with pytest.raises(CheckpointError, match="not an npz archive"):
            load_tensors(path)

    @pytest.mark.parametrize(
        "tensors, metadata, message",
        [
            ([("a", np.zeros(2)), ("b", np.ones(1)), ("a", np.ones(2))], {}, "'a' appears twice"),
            ([("a", np.zeros(2))], [], "metadata must be a dict"),
            ([("a", np.zeros(2))], None, "metadata must be a dict"),
        ],
    )
    def test_save_rejects_what_load_rejects(self, tmp_path, tensors, metadata, message):
        path = tmp_path / "model.npz"
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match=message):
            save_tensors(path, tensors, metadata)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_surrogate_in_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not valid UTF-8"):
            save_tensors(path, [("a\ud800", np.zeros(1))], {})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_nul_in_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="holds NUL"):
            save_tensors(path, [("a\0b", np.zeros(1))], {})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
