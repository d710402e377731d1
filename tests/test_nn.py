"""Layer forward/backward correctness, Adam, dropout, and checkpoints."""

import struct

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
    clip_global_norm,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    embedding_backward,
    embedding_forward,
    finite_diff_check,
    init_attention,
    init_dense,
    init_embedding,
    init_lstm,
    load_tensors,
    lstm_cell_backward,
    lstm_cell_forward,
    params_items,
    save_tensors,
    softmax,
    softmax_cross_entropy,
    softmax_cross_entropy_batch,
    zeros_like_params,
)
from beamseq.seq2seq import (
    Seq2SeqHyper,
    _batch_forward_backward,
    _decode_teacher_batch,
    _encode_batch,
    init_model,
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
        grads, dx, dh0, dc0 = lstm_cell_backward(cache, wh, wc)
        tensors = [arr for _, arr in params_items(p)] + [x, h0, c0]
        analytic = [arr for _, arr in params_items(grads)] + [dx, dh0, dc0]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=32)
        assert err < 1e-5


class TestAttention:
    def test_identical_states_give_uniform_weights(self):
        rng = rng_for(14)
        p = init_attention(rng, 4)
        state = rng.normal(size=4)
        enc = np.tile(state, (1, 5, 1))
        q = rng.normal(size=(1, 4))
        context, weights, _, _ = attention_forward(p, q, enc)
        np.testing.assert_allclose(weights, np.full((1, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(context[0], state, atol=1e-12)

    def test_single_state(self):
        rng = rng_for(15)
        p = init_attention(rng, 4)
        enc = rng.normal(size=(2, 1, 4))
        q = rng.normal(size=(2, 4))
        context, weights, _, _ = attention_forward(p, q, enc)
        np.testing.assert_allclose(weights, np.ones((2, 1)), atol=1e-15)
        np.testing.assert_allclose(context, enc[:, 0, :], atol=1e-15)

    def test_backward_finite_difference(self):
        rng = rng_for(16)
        p = init_attention(rng, 4)
        q = rng.normal(size=(3, 4))
        enc = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(3, 4))

        def loss():
            _, _, combined, _ = attention_forward(p, q, enc)
            return float(np.sum(w * combined))

        _, _, _, cache = attention_forward(p, q, enc)
        grads, dq, denc = attention_backward(cache, w)
        tensors = [p.w_score, p.w_combine, p.b_combine, q, enc]
        analytic = [grads.w_score, grads.w_combine, grads.b_combine, dq, denc]
        err = finite_diff_check(loss, tensors, analytic, rng, max_probes_per_tensor=12)
        assert err < 1e-5

    def test_empty_sequence_rejected(self):
        p = init_attention(rng_for(17), 4)
        with pytest.raises(ValueError):
            attention_forward(p, np.zeros((1, 4)), np.zeros((1, 0, 4)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_near_one_hot(self):
        logits = np.zeros(6)
        logits[3] = 50.0
        loss, _ = softmax_cross_entropy(logits, 3)
        assert loss < 1e-20

    def test_grad_finite_difference(self):
        rng = rng_for(18)
        logits = rng.normal(size=10)
        target = 4

        def loss():
            return softmax_cross_entropy(logits, target)[0]

        _, grad = softmax_cross_entropy(logits, target)
        err = finite_diff_check(loss, [logits], [grad], rng, max_probes_per_tensor=10)
        assert err < 1e-6

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = rng_for(19)
        z = rng.normal(size=(8, 12)) * 10
        s = softmax(z)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(softmax(z + 123.0), s, atol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(4), 4)

    def test_batch_matches_single(self):
        rng = rng_for(20)
        logits = rng.normal(size=(5, 7))
        targets = rng.integers(0, 7, size=5)
        losses, grads = softmax_cross_entropy_batch(logits, targets)
        for b in range(5):
            loss_b, grad_b = softmax_cross_entropy(logits[b], int(targets[b]))
            assert losses[b] == pytest.approx(loss_b, abs=1e-15)
            np.testing.assert_allclose(grads[b], grad_b, atol=1e-15)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = rng_for(21).normal(size=(3, 4))
        y, _ = dropout_forward(x, 0.0, rng_for(0), training=True)
        np.testing.assert_array_equal(y, x)

    def test_inference_identity_any_rate(self):
        x = rng_for(22).normal(size=(3, 4))
        y, _ = dropout_forward(x, 0.7, rng_for(0), training=False)
        assert y is x

    def test_survivor_fraction_and_mean(self):
        rng = rng_for(23)
        x = np.ones((1000, 1000))
        y, _ = dropout_forward(x, 0.2, rng, training=True)
        survivors = np.count_nonzero(y) / y.size
        assert survivors == pytest.approx(0.8, abs=0.002)
        assert y.mean() == pytest.approx(1.0, abs=0.005)

    def test_backward_uses_same_mask(self):
        rng = rng_for(24)
        x = np.ones((50, 50))
        y, cache = dropout_forward(x, 0.3, rng, training=True)
        dx = dropout_backward(cache, np.ones_like(x))
        np.testing.assert_array_equal(dx, y)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones(3), 1.0, rng_for(0), training=True)


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
        assert step == pytest.approx(state.alpha, rel=1e-6)
        assert params["p"][0] == pytest.approx(-200 * state.alpha, rel=1e-5)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        norm, clipped = clip_global_norm(grads, 2.5)
        assert norm == pytest.approx(5.0)
        assert clipped
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(2.5)
        norm2, clipped2 = clip_global_norm(grads, 10.0)
        assert not clipped2


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
        enc, _ = _encode_batch(model, feats, training=False)
        logits, _ = _decode_teacher_batch(model, enc, targets, training=False)
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

    def test_micro_seq2seq_dropped_forget_factor_detected(self, monkeypatch):
        exact = nn.lstm_cell_backward

        def without_forget_factor(cache, grad_h, grad_c):
            grads, dx, dh_prev, dc_prev = exact(cache, grad_h, grad_c)
            f = cache[5]
            return grads, dx, dh_prev, dc_prev / f  # dc_prev = dc, not dc * f

        monkeypatch.setattr(nn, "lstm_cell_backward", without_forget_factor)
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
        path = tmp_path / "model.bmck"
        save_tensors(path, tensors, meta)
        loaded, meta2 = load_tensors(path)
        assert meta2 == meta
        for name, arr in tensors:
            np.testing.assert_array_equal(loaded[name], arr)

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bmck"
        save_tensors(path, [("a", np.zeros(2))], {})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_huge_dims_reported_as_truncation(self, tmp_path):
        # 2**93 values would wrap to 0 in int64 and fail in reshape instead.
        path = tmp_path / "huge.bmck"
        name = b"a"
        path.write_bytes(
            b"BMCK"
            + struct.pack("<III", 1, 1, len(name))
            + name
            + struct.pack("<4I", 3, 2**31, 2**31, 2**31)
        )
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.bmck"
        save_tensors(path, [("a", np.arange(3.0))], {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_tensors(path, [("a", np.zeros(3)), ("b", np.array(["not a float"]))], {})
        assert path.read_bytes() == before
        loaded, meta = load_tensors(path)
        np.testing.assert_array_equal(loaded["a"], np.arange(3.0))
        assert list(tmp_path.iterdir()) == [path]

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "trunc.bmck"
        save_tensors(path, [("a", np.arange(10.0))], {"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 6])
        with pytest.raises(CheckpointError):
            load_tensors(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "tiny.bmck"
        save_tensors(path, [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(1))], {"k": 1})
        raw = path.read_bytes()
        assert set(load_tensors(path)[0]) == {"w", "b"}
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_tensors(path)

    @given(
        tensors=st.dictionaries(
            st.text(max_size=12),
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
        path = tmp_path_factory.mktemp("bmck") / "t.bmck"
        save_tensors(path, list(tensors.items()), metadata)
        loaded, meta = load_tensors(path)
        assert meta == metadata
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()  # NaN payloads and -0.0 too

    @pytest.mark.parametrize("metadata", [[], "x", 5, None])
    def test_metadata_that_is_not_an_object_rejected(self, tmp_path, metadata):
        path = tmp_path / "meta.bmck"
        save_tensors(path, [("a", np.zeros(2))], metadata)
        with pytest.raises(CheckpointError, match="not an object"):
            load_tensors(path)

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "dup.bmck"
        save_tensors(path, [("a", np.zeros(2)), ("b", np.ones(1)), ("a", np.ones(2))], {})
        with pytest.raises(CheckpointError, match="'a' appears twice"):
            load_tensors(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "name.bmck"
        name = b"\xff\xfe"
        path.write_bytes(
            b"BMCK"
            + struct.pack("<III", 1, 1, len(name))
            + name
            + struct.pack("<II", 1, 1)
            + struct.pack("<d", 1.0)
            + struct.pack("<I", 2)
            + b"{}"
        )
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_tensors(path)
