"""Encoder/decoder forward oracles, end-to-end gradients, training behavior."""

import copy
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from beamseq import nn, seq2seq
from beamseq.data import Dataset, TrainingSample
from beamseq.nn import CheckpointError, params_items
from beamseq.seq2seq import (
    EncoderOutput,
    Seq2SeqHyper,
    Seq2SeqModel,
    TrainConfig,
    TrainState,
    _batch_forward_backward,
    _decode_greedy_batch,
    _decode_teacher_batch,
    _encode_batch,
    _evaluate_teacher_forced,
    decode_greedy,
    encode,
    init_model,
    load_model,
    load_train_state,
    save_model,
    save_train_state,
    train,
    write_history,
)
from gradcheck import finite_diff_check
from oracles import (
    split_of,
    term_by_term_attention,
    term_by_term_attention_backward,
    term_by_term_lstm_cell,
    term_by_term_lstm_cell_backward,
)

MICRO = Seq2SeqHyper(
    feature_dim=3, history=2, horizon=2, num_beams=5, hidden=4, embed_dim=6, dropout=0.0
)


def micro_model(seed=0):
    return init_model(MICRO, seed=seed)


def zero_model(hyper=MICRO):
    model = init_model(hyper, seed=0)
    for arr in model.named_params().values():
        arr[...] = 0.0
    return model


def synthetic_dataset(n_train=8, n_val=0, hyper=MICRO, seed=123, label_seed=9):
    """Dataset with hand-assigned samples; trajectory ids are chosen so the
    split hash puts them where requested."""
    rng = np.random.default_rng(label_seed)
    train_ids = [i for i in range(4000) if split_of(seed, i) == "train"]
    val_ids = [i for i in range(4000) if split_of(seed, i) == "val"]
    samples = []
    for idx in range(n_train + n_val):
        traj = train_ids[idx] if idx < n_train else val_ids[idx - n_train]
        samples.append(
            TrainingSample(
                features=rng.normal(size=(hyper.history, hyper.feature_dim)),
                labels=rng.integers(0, hyper.num_beams, size=hyper.horizon).astype(
                    np.uint16
                ),
                trajectory_id=traj,
                start_slot=0,
            )
        )
    return Dataset(
        samples=samples,
        feature_mean=np.zeros(hyper.feature_dim),
        feature_std=np.ones(hyper.feature_dim),
        num_beams=hyper.num_beams,
        history=hyper.history,
        horizon=hyper.horizon,
        source_bs="rsu0",
        target_rsu="rsu1",
        seed=seed,
        scene_digest="synthetic",
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _manual_lstm_step(p, x, h, c):
    wx_i, wx_f, wx_g, wx_o = np.split(p.wx, 4)
    wh_i, wh_f, wh_g, wh_o = np.split(p.wh, 4)
    b_i, b_f, b_g, b_o = np.split(p.b, 4)
    i = _sigmoid(wx_i @ x + wh_i @ h + b_i)
    f = _sigmoid(wx_f @ x + wh_f @ h + b_f)
    g = np.tanh(wx_g @ x + wh_g @ h + b_g)
    o = _sigmoid(wx_o @ x + wh_o @ h + b_o)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestEncode:
    def test_zero_model_fixpoint(self):
        model = zero_model()
        feats = np.random.default_rng(0).normal(size=(2, 3))
        enc = encode(model, feats)
        assert not np.any(enc.states)
        assert not np.any(enc.h1) and not np.any(enc.c2)

    def test_output_shape_contract(self):
        model = micro_model()
        enc = encode(model, np.zeros((2, 3)))
        assert enc.states.shape == (1, 2, 4)
        assert enc.h1.shape == (1, 4)

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(4)], ids=["infer", "train"])
    def test_final_states_pin_no_layer_output(self, rng):
        hyper = dataclasses.replace(MICRO, history=5, dropout=0.2)
        enc, _ = _encode_batch(init_model(hyper, seed=1), np.ones((3, 5, 3)), rng)
        for final in (enc.h1, enc.c1, enc.h2, enc.c2):
            assert final.shape == (3, hyper.hidden)
            assert final.base is None  # owns its B*H floats, not a (T, B, H) stack

    def test_float32_window_encodes_and_decodes_like_its_float64_values(self):
        # the input projection widens float32 features exactly, and a float64
        # window is not narrowed: it encodes as the batched pass does
        model = micro_model(seed=3)
        window = np.random.default_rng(2).normal(size=(2, 3))
        rounded = window.astype(np.float32)
        runs = []
        for feats in (rounded, rounded.astype(np.float64), window):
            enc = encode(model, feats)
            arrays = (enc.states, enc.h1, enc.c1, enc.h2, enc.c2, decode_greedy(model, enc))
            runs.append([a.tobytes() for a in arrays])
        assert runs[0] == runs[1]
        assert runs[2][0] == _encode_batch(model, window[None])[0].states.tobytes()

    def test_wrong_length_rejected(self):
        model = micro_model()
        with pytest.raises(ValueError):
            encode(model, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            encode(model, np.zeros((2, 4)))

    def test_matches_hand_unrolled_oracle(self):
        model = micro_model(seed=3)
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2, 3))
        enc = encode(model, feats)
        # independent step-by-step unroll
        h1 = np.zeros(4)
        c1 = np.zeros(4)
        h2 = np.zeros(4)
        c2 = np.zeros(4)
        states = []
        for t in range(2):
            x = model.enc_in.weight @ feats[t] + model.enc_in.bias
            h1, c1 = _manual_lstm_step(model.enc_l1, x, h1, c1)
            h2, c2 = _manual_lstm_step(model.enc_l2, h1, h2, c2)
            states.append(h2.copy())
        np.testing.assert_allclose(enc.states[0], np.array(states), atol=1e-12, rtol=0)
        np.testing.assert_allclose(enc.h1[0], h1, atol=1e-12, rtol=0)
        np.testing.assert_allclose(enc.c1[0], c1, atol=1e-12, rtol=0)
        np.testing.assert_allclose(enc.h2[0], h2, atol=1e-12, rtol=0)
        np.testing.assert_allclose(enc.c2[0], c2, atol=1e-12, rtol=0)


class TestDecode:
    def test_teacher_forced_shape_and_k1(self):
        hyper = Seq2SeqHyper(
            feature_dim=3, history=2, horizon=1, num_beams=5, hidden=4, embed_dim=6, dropout=0.0
        )
        model = init_model(hyper, seed=1)
        enc = encode(model, np.random.default_rng(2).normal(size=(2, 3)))
        logits, _ = _decode_teacher_batch(model, enc, np.array([[3]]))
        assert logits.shape == (1, 1, 5)

    def test_label_out_of_range(self):
        model = micro_model()
        enc = encode(model, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            _decode_teacher_batch(model, enc, np.array([[0, 5]]))

    def test_matches_hand_unrolled_oracle(self):
        model = micro_model(seed=7)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2, 3))
        targets = np.array([2, 4])
        enc = encode(model, feats)
        logits, _ = _decode_teacher_batch(model, enc, targets[None])

        # independent unroll: start token then targets[0]
        h1, c1 = enc.h1[0].copy(), enc.c1[0].copy()
        h2, c2 = enc.h2[0].copy(), enc.c2[0].copy()
        tokens = [5, 2]  # start token id = num_beams
        expected = []
        for k in range(2):
            e = model.emb.table[tokens[k]]
            h1, c1 = _manual_lstm_step(model.dec_l1, e, h1, c1)
            h2, c2 = _manual_lstm_step(model.dec_l2, h1, h2, c2)
            scores = np.array(
                [h2 @ model.att.w_score @ enc.states[0, s] for s in range(2)]
            )
            ex = np.exp(scores - scores.max())
            weights = ex / ex.sum()
            context = weights @ enc.states[0]
            combined = np.tanh(
                model.att.w_combine @ np.concatenate([context, h2]) + model.att.b_combine
            )
            expected.append(model.out.weight @ combined + model.out.bias)
        np.testing.assert_allclose(logits[0], np.array(expected), atol=1e-12, rtol=0)

    def test_constant_class_model_decodes_constant(self):
        model = zero_model()
        model.out.bias[3] = 10.0
        enc = encode(model, np.random.default_rng(5).normal(size=(2, 3)))
        labels = decode_greedy(model, enc)
        assert labels.tolist() == [3, 3]

    def test_greedy_labels_in_range(self):
        model = micro_model(seed=11)
        for trial in range(5):
            feats = np.random.default_rng(trial).normal(size=(2, 3))
            labels = decode_greedy(model, encode(model, feats))
            assert labels.shape == (2,)
            assert labels.min() >= 0 and labels.max() < 5

    def test_inference_is_deterministic(self):
        model = init_model(
            Seq2SeqHyper(
                feature_dim=3, history=2, horizon=2, num_beams=5,
                hidden=4, embed_dim=6, dropout=0.5,
            ),
            seed=2,
        )
        feats = np.random.default_rng(6).normal(size=(2, 3))
        a = decode_greedy(model, encode(model, feats))
        b = decode_greedy(model, encode(model, feats))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("where", ["enc.c1", "dec_l2.wx", "dec_l2.wh"])
    def test_non_finite_state_raises_numeric_error(self, where):
        # finiteness is checked once per call, after the last step
        model = micro_model(seed=12)
        enc = encode(model, np.random.default_rng(7).normal(size=(2, 3)))
        if where == "enc.c1":
            enc.c1[0, 1] = np.nan
        else:
            getattr(model.dec_l2, where[-2:])[2, 3] = np.nan
        with pytest.raises(nn.NumericError):
            decode_greedy(model, enc)


class TestEndToEndGradients:
    def test_micro_model_bptt_matches_finite_differences(self):
        model = micro_model(seed=13)
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(2, 2, 3))
        targets = rng.integers(0, 5, size=(2, 2))

        def loss_fn():
            enc, _ = _encode_batch(model, feats)
            logits, _ = _decode_teacher_batch(model, enc, targets)
            flat = logits.reshape(-1, 5)
            losses, _ = nn.softmax_cross_entropy_batch(flat, targets.reshape(-1))
            return float(losses.mean())

        _, _, grads = _batch_forward_backward(model, feats, targets, rng=None)
        named = model.named_params()
        grad_dict = model.grads_to_dict(grads)
        err = finite_diff_check(
            loss_fn,
            list(named.values()),
            [grad_dict[k] for k in named],
            np.random.default_rng(0),
            max_probes_per_tensor=24,
        )
        assert err < 1e-4


class TestSharedScorer:
    def test_validation_scores_like_a_training_step(self):
        # One batch at dropout 0: the validation loss and accuracy are the
        # training step's, bit for bit, with or without a generator.
        model = micro_model(seed=13)
        ds = synthetic_dataset(n_train=3, label_seed=8)
        val_loss, val_acc = _evaluate_teacher_forced(model, ds, ds.windows_in("train"), 3)
        feats, targets = ds.arrays("train")
        for step_rng in (None, np.random.default_rng(9)):
            loss, acc, _ = _batch_forward_backward(model, feats, targets, rng=step_rng)
            assert (loss, acc) == (val_loss, val_acc)


def _zeros_like(params):
    return type(params)(**{name: np.zeros_like(arr) for name, arr in params_items(params)})


def attend(p, query, enc_states):
    """One decoder step of ``term_by_term_attention``, query (B, H): returns
    (combined (B, H), the backward's arguments)."""
    weights, combined = term_by_term_attention(p, query[:, None], enc_states)
    return combined[:, 0], (p, query[:, None], enc_states, weights, combined)


def attend_backward(cache, grad_combined):
    grads, dquery, denc = term_by_term_attention_backward(*cache, grad_combined[:, None])
    return grads, dquery[:, 0], denc


def per_step_forward_backward(model, feats, targets, rng):
    """Oracle for ``_batch_forward_backward``: the teacher-forced training step
    run one time step at a time through every layer, with one dropout draw per
    step, and the backward pass accumulating per-step parameter gradients.
    The LSTM and attention steps are the term-by-term oracles of
    ``tests/oracles.py``, not slices of the kernels under test."""
    hp = model.hyper
    b, t, _ = feats.shape
    h, k_steps = hp.hidden, hp.horizon
    grads = {layer: _zeros_like(getattr(model, layer)) for layer in model._LAYERS}

    proj, dense_cache = nn.dense_forward(model.enc_in, feats.reshape(b * t, -1))
    proj, drop_in_cache = nn.dropout_forward(proj, hp.dropout, rng)
    x = proj.reshape(b, t, h)
    h1 = c1 = h2 = c2 = np.zeros((b, h))
    states = np.empty((b, t, h))
    enc_steps = []
    for k in range(t):
        h1, c1, cache1 = term_by_term_lstm_cell(model.enc_l1, x[:, k], h1, c1)
        mid, drop_cache = nn.dropout_forward(h1, hp.dropout, rng)
        h2, c2, cache2 = term_by_term_lstm_cell(model.enc_l2, mid, h2, c2)
        states[:, k] = h2
        enc_steps.append((cache1, drop_cache, cache2))

    tokens = np.column_stack([np.full(b, hp.start_token), targets[:, :-1]])
    logits = np.empty((b, k_steps, hp.num_beams))
    dec_steps = []
    for k in range(k_steps):
        embedded, ecache = nn.embedding_forward(model.emb, tokens[:, k])
        h1, c1, cache1 = term_by_term_lstm_cell(model.dec_l1, embedded, h1, c1)
        mid, drop_cache = nn.dropout_forward(h1, hp.dropout, rng)
        h2, c2, cache2 = term_by_term_lstm_cell(model.dec_l2, mid, h2, c2)
        combined, acache = attend(model.att, h2, states)
        logits[:, k], ocache = nn.dense_forward(model.out, combined)
        dec_steps.append((ecache, cache1, drop_cache, cache2, acache, ocache))
    losses, d_flat = nn.softmax_cross_entropy_batch(
        logits.reshape(b * k_steps, -1), targets.reshape(-1)
    )
    d_logits = (d_flat / (b * k_steps)).reshape(b, k_steps, -1)

    dh1 = dc1 = dh2 = dc2 = np.zeros((b, h))
    d_states = np.zeros((b, t, h))
    for k in reversed(range(k_steps)):
        ecache, cache1, drop_cache, cache2, acache, ocache = dec_steps[k]
        g_out, d_comb = nn.dense_backward(ocache, d_logits[:, k])
        g_att, d_query, d_enc = attend_backward(acache, d_comb)
        g2, d_mid, dh2, dc2 = term_by_term_lstm_cell_backward(cache2, d_query + dh2, dc2)
        d_mid = nn.dropout_backward(drop_cache, d_mid)
        g1, d_emb, dh1, dc1 = term_by_term_lstm_cell_backward(cache1, d_mid + dh1, dc1)
        d_states += d_enc
        for layer, g in (("out", g_out), ("att", g_att), ("dec_l2", g2), ("dec_l1", g1),
                         ("emb", nn.embedding_backward(ecache, d_emb))):
            nn.accumulate_params(grads[layer], g)
    dx = np.empty((b, t, h))
    for k in reversed(range(t)):
        cache1, drop_cache, cache2 = enc_steps[k]
        g2, d_mid, dh2, dc2 = term_by_term_lstm_cell_backward(cache2, d_states[:, k] + dh2, dc2)
        d_mid = nn.dropout_backward(drop_cache, d_mid)
        g1, dx[:, k], dh1, dc1 = term_by_term_lstm_cell_backward(cache1, d_mid + dh1, dc1)
        nn.accumulate_params(grads["enc_l2"], g2)
        nn.accumulate_params(grads["enc_l1"], g1)
    flat = nn.dropout_backward(drop_in_cache, dx.reshape(b * t, h))
    g_dense, _ = nn.dense_backward(dense_cache, flat)
    nn.accumulate_params(grads["enc_in"], g_dense)
    return float(losses.mean()), grads


def per_step_greedy(model, enc, horizon):
    """Oracle for greedy decoding: every decoder layer one step at a time,
    the LSTM and attention steps term by term."""
    b = enc.states.shape[0]
    tokens = np.full(b, model.hyper.start_token)
    h1, c1, h2, c2 = enc.h1, enc.c1, enc.h2, enc.c2
    labels = np.empty((b, horizon), dtype=np.int64)
    for k in range(horizon):
        embedded, _ = nn.embedding_forward(model.emb, tokens)
        h1, c1, _ = term_by_term_lstm_cell(model.dec_l1, embedded, h1, c1)
        h2, c2, _ = term_by_term_lstm_cell(model.dec_l2, h1, h2, c2)
        combined, _ = attend(model.att, h2, enc.states)
        logits, _ = nn.dense_forward(model.out, combined)
        labels[:, k] = tokens = np.argmax(logits, axis=1)
    return labels


ORACLE_SHAPES = {
    "micro": (dataclasses.replace(MICRO, dropout=0.2), 2),
    "b3_t4_k4": (
        Seq2SeqHyper(
            feature_dim=3, history=4, horizon=4, num_beams=7, hidden=5, embed_dim=3, dropout=0.2
        ),
        3,
    ),
}


class TestLayerByLayerMatchesPerStepOracle:
    @pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
    def test_training_step(self, shape):
        hyper, batch = ORACLE_SHAPES[shape]
        model = init_model(hyper, seed=17)
        data_rng = np.random.default_rng(18)
        feats = data_rng.normal(size=(batch, hyper.history, hyper.feature_dim))
        targets = data_rng.integers(0, hyper.num_beams, size=(batch, hyper.horizon))
        loss, _, grads = _batch_forward_backward(
            model, feats, targets, np.random.default_rng(19)
        )
        want_loss, want_grads = per_step_forward_backward(
            model, feats, targets, np.random.default_rng(19)
        )
        assert loss == want_loss
        got, want = model.grads_to_dict(grads), model.grads_to_dict(want_grads)
        for name in want:
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name

    @pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
    def test_greedy_labels(self, shape):
        hyper, batch = ORACLE_SHAPES[shape]
        model = init_model(hyper, seed=20)
        feats = np.random.default_rng(21).normal(size=(8, hyper.history, hyper.feature_dim))
        enc, _ = _encode_batch(model, feats)
        want = per_step_greedy(model, enc, hyper.horizon)
        for i, window in enumerate(feats):
            np.testing.assert_array_equal(decode_greedy(model, encode(model, window)), want[i])
        np.testing.assert_array_equal(_decode_greedy_batch(model, enc), want)


PINNED_HYPER = Seq2SeqHyper(
    feature_dim=10, history=9, horizon=8, num_beams=16, hidden=24, embed_dim=6, dropout=0.25
)


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class TestPinnedBytes:
    """The float64 bytes of inference and of one training step, for a
    fixed-seed model on fixed windows. A kernel change that claims to keep
    every byte must leave these digests as they are."""

    INFER_SHA256 = {
        1: "4899e3b4a5b630ba1b6a2372b4e1c9ac6a7f82765e87ec4e6e83c6d7389dca37",
        5: "23d16e1287a3a85c1c4ca1807adf1b098e8f43dc648acf5125ac2eadd2a15695",
    }
    STEP_SHA256 = "e60ff97def677b951d1435eacd6857fe17aa8833dacd19f9a973a2098f38a85a"

    @pytest.mark.parametrize("batch", sorted(INFER_SHA256))
    def test_encode_and_greedy_bytes_are_pinned(self, batch):
        model = init_model(PINNED_HYPER, seed=31)
        feats = np.random.default_rng(32).normal(
            size=(batch, PINNED_HYPER.history, PINNED_HYPER.feature_dim)
        )
        if batch == 1:
            enc = encode(model, feats[0])
            labels = decode_greedy(model, enc)[None]
        else:
            enc, _ = _encode_batch(model, feats)
            labels = _decode_greedy_batch(model, enc)
        arrays = (enc.states, enc.h1, enc.c1, enc.h2, enc.c2)
        assert all(a.dtype == np.float64 for a in arrays) and labels.dtype == np.int64
        assert _sha256(*arrays, labels) == self.INFER_SHA256[batch]

    def test_training_step_bytes_are_pinned(self):
        model = init_model(PINNED_HYPER, seed=33)
        data_rng = np.random.default_rng(34)
        feats = data_rng.normal(size=(4, PINNED_HYPER.history, PINNED_HYPER.feature_dim))
        targets = data_rng.integers(0, PINNED_HYPER.num_beams, size=(4, PINNED_HYPER.horizon))
        loss, _, grads = _batch_forward_backward(model, feats, targets, np.random.default_rng(35))
        named = model.grads_to_dict(grads)
        assert _sha256(np.float64(loss), *named.values()) == self.STEP_SHA256


class TestTraining:
    def test_same_seed_identical_first_epoch(self):
        ds = synthetic_dataset()
        cfg = TrainConfig(batch_size=4, max_epochs=1, seed=5)
        _, hist_a, _ = train(init_model(MICRO, seed=1), ds, cfg)
        _, hist_b, _ = train(init_model(MICRO, seed=1), ds, cfg)
        assert abs(hist_a[0]["train_loss"] - hist_b[0]["train_loss"]) < 1e-12

    def test_overfits_toy_dataset(self):
        hyper = Seq2SeqHyper(
            feature_dim=4, history=4, horizon=4, num_beams=12,
            hidden=32, embed_dim=8, dropout=0.0,
        )
        ds = synthetic_dataset(n_train=8, hyper=hyper)
        # 164 epochs reach every train token at this seed; 200 leave a margin
        cfg = TrainConfig(batch_size=8, max_epochs=200, seed=3, patience=200)
        model, history, _ = train(init_model(hyper, seed=2), ds, cfg)
        assert history[-1]["train_acc"] >= 0.99
        # greedy decoding reproduces the teacher-forced argmax on an overfit model
        feats, labels = ds.arrays("train")
        for window, target in zip(feats, labels):
            enc = encode(model, window)
            forced, _ = _decode_teacher_batch(model, enc, target[None])
            np.testing.assert_array_equal(decode_greedy(model, enc), np.argmax(forced[0], axis=1))

    def test_validation_tracking_and_early_stop(self):
        ds = synthetic_dataset(n_train=8, n_val=3)
        cfg = TrainConfig(batch_size=4, max_epochs=60, patience=3, seed=7)
        _, history, state = train(micro_model(seed=5), ds, cfg)
        assert len(history) <= 60
        val_losses = [row["val_loss"] for row in history]
        assert state.best_val_loss == pytest.approx(min(val_losses))

    @pytest.mark.parametrize("kwargs", [
        {"max_epochs": -3},
        {"max_epochs": 2.5},
        {"max_epochs": "3"},
        {"batch_size": 2.5, "max_epochs": 2.5},
        {"batch_size": 0},
        {"batch_size": True},
        {"batch_size": np.int64(4)},
        {"patience": 0},
        {"patience": 1.0},
    ])
    def test_config_rejects_counts_not_ints_in_range(self, kwargs):
        # batch_size is checked first, so it names the fault when both are bad
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("hidden", 0), ("hidden", 2.5), ("hidden", True),
        ("dropout", 1.0), ("dropout", -0.1),
    ])
    def test_hyper_rejects_fields_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"bad hyperparameter {field}="):
            dataclasses.replace(MICRO, **{field: value})

    def test_zero_epochs_keep_initial_weights_and_round_trip(self, tmp_path):
        ds = synthetic_dataset(n_train=4, n_val=2)
        model = micro_model(seed=6)
        initial = {k: v.copy() for k, v in model.named_params().items()}
        model, history, state = train(model, ds, TrainConfig(batch_size=2, max_epochs=0))
        assert history == [] and state.next_epoch == 0
        assert state.best_val_loss == float("inf")
        for key, arr in initial.items():
            assert model.named_params()[key].tobytes() == arr.tobytes()
            assert state.best_params[key].tobytes() == arr.tobytes()
            assert state.live_params[key].tobytes() == arr.tobytes()
        path = tmp_path / "state.npz"
        save_train_state(path, model, state)
        loaded_model, loaded, _ = load_train_state(path)
        assert _train_state_bytes(loaded_model, [], loaded) == _train_state_bytes(model, [], state)

    def test_run_resumed_at_its_end_returns_its_best_weights(self):
        ds = synthetic_dataset(n_train=8, n_val=3)
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, _, state = train(micro_model(seed=4), ds, cfg)
        before = _train_state_bytes(model, [], state)
        again, history, state = train(model, ds, cfg, state=state)
        assert history == []
        assert _train_state_bytes(again, [], state) == before

    def test_float32_batch_steps_like_its_float64_values(self):
        # the input projection widens float32 features exactly, so the step's
        # loss and gradients are those of the same values held in float64
        hyper, batch = ORACLE_SHAPES["b3_t4_k4"]
        model = init_model(hyper, seed=17)
        data_rng = np.random.default_rng(18)
        feats = data_rng.normal(size=(batch, hyper.history, hyper.feature_dim))
        feats = feats.astype(np.float32)
        targets = data_rng.integers(0, hyper.num_beams, size=(batch, hyper.horizon))
        steps = []
        for x in (feats, feats.astype(np.float64)):
            loss, acc, grads = _batch_forward_backward(model, x, targets, np.random.default_rng(19))
            named = model.grads_to_dict(grads)
            steps.append((loss, acc, [(key, named[key].tobytes()) for key in named]))
        assert steps[0] == steps[1]

    def test_caches_consumed_in_place_give_the_held_cache_run(self, monkeypatch):
        # Reference: every backward kernel gets a deep copy of its cache while
        # the original is held to the end, so no buffer is released early or
        # overwritten under a later reader. The consuming run must match it
        # bit for bit: history, best and live weights, Adam moments, RNG state.
        hyper = dataclasses.replace(MICRO, history=5, horizon=4, hidden=6, dropout=0.3)
        ds = synthetic_dataset(n_train=9, n_val=3, hyper=hyper)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=100, seed=21)
        consumed = _train_state_bytes(*train(init_model(hyper, seed=8), ds, cfg))

        held = []

        def holding(kernel):
            def run(cache, *grads):
                held.append(cache)
                return kernel(copy.deepcopy(cache), *grads)
            return run

        for name in ("dense_backward", "embedding_backward", "dropout_backward",
                     "lstm_sequence_backward", "attention_sequence_backward"):
            monkeypatch.setattr(nn, name, holding(getattr(nn, name)))
        reference = _train_state_bytes(*train(init_model(hyper, seed=8), ds, cfg))
        assert len(held) == 3 * 3 * 11  # epochs * batches * kernel calls per step
        assert consumed == reference

    def test_validation_runs_in_training_batches(self, monkeypatch):
        ds = synthetic_dataset(n_train=4, n_val=7)
        sizes = []

        def spy(model, feats, *args, **kwargs):
            sizes.append(feats.shape[0])
            return _encode_batch(model, feats, *args, **kwargs)

        monkeypatch.setattr(seq2seq, "_encode_batch", spy)
        train(micro_model(), ds, TrainConfig(batch_size=3, max_epochs=1, seed=2))
        assert sum(sizes) == 4 + 7  # every training and validation window went through
        assert max(sizes) <= 3

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = synthetic_dataset(n_train=8, n_val=3)
        straight_cfg = TrainConfig(batch_size=4, max_epochs=4, patience=100, seed=9)
        _, straight_hist, _ = train(micro_model(seed=4), ds, straight_cfg)

        first_cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, first_hist, state = train(micro_model(seed=4), ds, first_cfg)
        path = tmp_path / "state.npz"
        save_train_state(path, model, state)
        model2, state2, _ = load_train_state(path)
        resumed_cfg = TrainConfig(batch_size=4, max_epochs=4, patience=100, seed=9)
        _, resumed_hist, _ = train(model2, ds, resumed_cfg, state=state2)

        combined = first_hist + resumed_hist
        assert [r["epoch"] for r in combined] == [r["epoch"] for r in straight_hist]
        for a, b in zip(combined, straight_hist):
            assert a["train_loss"] == pytest.approx(b["train_loss"], abs=1e-12)
            assert a["val_loss"] == pytest.approx(b["val_loss"], abs=1e-12)

    def test_in_memory_resume_matches_uninterrupted_run(self):
        ds = synthetic_dataset(n_train=8, n_val=3)
        straight_cfg = TrainConfig(batch_size=4, max_epochs=4, patience=100, seed=9)
        _, straight_hist, _ = train(micro_model(seed=4), ds, straight_cfg)

        first_cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, first_hist, state = train(micro_model(seed=4), ds, first_cfg)
        resumed_cfg = TrainConfig(batch_size=4, max_epochs=4, patience=100, seed=9)
        _, resumed_hist, _ = train(model, ds, resumed_cfg, state=state)

        combined = first_hist + resumed_hist
        assert [r["epoch"] for r in combined] == [r["epoch"] for r in straight_hist]
        for a, b in zip(combined, straight_hist):
            assert a["train_loss"] == pytest.approx(b["train_loss"], abs=1e-12)
            assert a["val_loss"] == pytest.approx(b["val_loss"], abs=1e-12)

    def test_returns_best_params_and_keeps_live_ones_in_state(self):
        ds = synthetic_dataset(n_train=8, n_val=3)
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, history, state = train(micro_model(seed=4), ds, cfg)
        # this run's best validation loss is at epoch 0, so best != live
        assert history[0]["val_loss"] < history[1]["val_loss"]
        for key, arr in model.named_params().items():
            np.testing.assert_array_equal(arr, state.best_params[key])
        assert any(
            not np.array_equal(state.live_params[k], state.best_params[k])
            for k in state.best_params
        )

    def test_history_csv(self, tmp_path):
        ds = synthetic_dataset()
        _, history, _ = train(
            micro_model(), ds, TrainConfig(batch_size=4, max_epochs=3, seed=1, patience=50)
        )
        out = tmp_path / "history.csv"
        write_history(out, history, provenance="seed=1")
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# seed=1"
        assert lines[1].startswith("epoch,")
        assert len(lines) == 2 + len(history)

    def test_failed_history_write_keeps_previous_file(self, tmp_path):
        row = {"epoch": 0, "train_loss": 1.5, "val_loss": 1.6, "train_acc": 0.2,
               "val_acc": 0.1, "clip_events": 0}
        out = tmp_path / "history.csv"
        write_history(out, [row], provenance="seed=1")
        before = out.read_bytes()
        with pytest.raises(KeyError):
            write_history(out, [row, {"epoch": 1}])  # fails after the header and row 0
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("provenance", ["seed=1\nepoch,oops", "seed=1\r", "\n"])
    def test_line_break_in_provenance_rejected(self, tmp_path, provenance):
        row = {"epoch": 0, "train_loss": 1.5, "val_loss": 1.6, "train_acc": 0.2,
               "val_acc": 0.1, "clip_events": 0}
        out = tmp_path / "history.csv"
        write_history(out, [row], provenance="seed=1")
        before = out.read_bytes()
        with pytest.raises(ValueError, match="line break"):
            write_history(out, [row], provenance=provenance)
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]


def _train_state_bytes(model, history, state):
    """Every output of ``train`` as bytes, for exact comparison."""
    named = model.named_params()
    arrays = [named, state.best_params, state.live_params, state.adam.m, state.adam.v]
    return (
        json.dumps(history),
        [(key, d[key].tobytes()) for d in arrays for key in sorted(d)],
        json.dumps(state.rng_state),
        (state.adam.t, state.next_epoch, state.epochs_since_best),
        repr(state.best_val_loss),
    )


# Activations far outweigh the weights here, so a step's peak is set by its
# caches and the parameter-sized arrays show up on top of it.
MEMORY_HYPER = Seq2SeqHyper(
    feature_dim=4, history=32, horizon=32, num_beams=6, hidden=16, embed_dim=4, dropout=0.2
)
MEMORY_BATCH = 32


def _traced_peak(traced_memory, call) -> int:
    _, retained, above = traced_memory(call)
    return retained + above


def _param_bytes(model) -> int:
    return sum(arr.nbytes for arr in model.named_params().values())


class TestTrainingMemory:
    def test_dec_l2_cache_released_before_dec_l1_backward(self, monkeypatch, traced_memory):
        # H small against S*B, so that dec_l2's cache outweighs the gradients
        # its backward leaves held (its weight grads, dh2 and dc2)
        hyper = dataclasses.replace(MEMORY_HYPER, history=64, horizon=64, hidden=4)
        model = init_model(hyper, seed=1)
        feats, targets = synthetic_dataset(n_train=48, hyper=hyper).arrays("train")
        entries = []
        backward = nn.lstm_sequence_backward

        def spy(cache, *grads):
            held = sum(a.nbytes for a in cache if isinstance(a, np.ndarray))
            entries.append((tracemalloc.get_traced_memory()[0], held))
            return backward(cache, *grads)

        monkeypatch.setattr(nn, "lstm_sequence_backward", spy)
        traced_memory(lambda: _batch_forward_backward(
            model, feats, targets, np.random.default_rng(3)
        ))
        (at_dec_l2, dec_l2_cache), (at_dec_l1, _) = entries[:2]
        assert len(entries) == 4  # dec_l2, dec_l1, enc_l2, enc_l1
        assert at_dec_l2 - at_dec_l1 >= dec_l2_cache

    def test_attention_entry_holds_no_lstm_state_stack(self, phase_memory):
        # On entry to attention the step holds the four LSTM layers' caches,
        # the dropout masks and the attention inputs. The h and c stacks, 8
        # of (S+1, B, H), are rebuilt by the backward and must not be held.
        hp, b = MEMORY_HYPER, MEMORY_BATCH
        model = init_model(hp, seed=1)
        feats, targets = synthetic_dataset(n_train=b, hyper=hp).arrays("train")
        _, crossings = phase_memory(
            lambda: _batch_forward_backward(model, feats, targets, np.random.default_rng(3)),
            ["attention_sequence_forward"],
        )
        (held,) = [c.held for c in crossings if c.where == "entry"]
        t, k, h = hp.history, hp.horizon, hp.hidden
        acts = 4 * h * (2 * t + 2 * k) * b  # each layer's gate activations
        inputs = (2 * t * h + k * hp.embed_dim + k * h) * b  # enc_l1, enc_l2, dec_l1, dec_l2
        attention = (t + k) * h * b  # encoder states and decoder queries
        assert held - 8 * (acts + inputs + attention) < 8 * max(t, k) * b * h

    def test_attention_entry_holds_no_lstm_input(self, phase_memory):
        # No LSTM layer caches its input: each backward reads one rebuilt from
        # the layer below. So on entry to attention the step holds, of arrays
        # the size of a layer's input, only the four layers' gate
        # activations, the encoder states, the attention query, the three
        # dropout masks (bool) and the embedded teacher tokens, which the
        # decoder's forward drops when it returns. What else it holds, such
        # as the encoder's final states and the teacher tokens, is under half
        # a stack; a cached copy of the input of enc_l1, enc_l2 or dec_l2
        # would add a whole one.
        hp, b = MEMORY_HYPER, MEMORY_BATCH
        model = init_model(hp, seed=1)
        feats, targets = synthetic_dataset(n_train=b, hyper=hp).arrays("train")
        _, crossings = phase_memory(
            lambda: _batch_forward_backward(model, feats, targets, np.random.default_rng(3)),
            ["attention_sequence_forward"],
        )
        (held,) = [c.held for c in crossings if c.where == "entry"]
        t, k, h = hp.history, hp.horizon, hp.hidden
        acts = 8 * 4 * h * (2 * t + 2 * k) * b
        attention = 8 * (t + k) * h * b  # encoder states and decoder queries
        masks = (2 * t + k) * h * b
        embedded = 8 * k * b * hp.embed_dim
        stack = 8 * max(t, k) * b * h
        assert held - acts - attention - masks - embedded < stack / 2

    def test_attention_forward_exit_holds_no_keys_or_values(self, phase_memory):
        # Between entry and exit the attention adds only its outputs, the
        # weights (B, K, T) and the combined output (B, K, H), which its cache
        # holds: the keys and values (B, T, H) are rebuilt by the backward,
        # and the query rows are a view of the decoder's batch-major copy.
        hp, b = MEMORY_HYPER, MEMORY_BATCH
        model = init_model(hp, seed=1)
        feats, targets = synthetic_dataset(n_train=b, hyper=hp).arrays("train")
        _, crossings = phase_memory(
            lambda: _batch_forward_backward(model, feats, targets, np.random.default_rng(3)),
            ["attention_sequence_forward"],
        )
        entry, exit_ = [c.held for c in crossings]
        outputs = 8 * b * hp.horizon * (hp.history + hp.hidden)
        stack = 8 * b * hp.history * hp.hidden
        assert exit_ - entry - outputs < stack / 2

    def test_attention_backward_peaks_no_higher_than_its_forward(self, phase_memory):
        # The output projection's input gradient is released once the
        # attention backward has folded it into dz, so that backward's peak
        # does not stack it on top of what the step still holds.
        hp, b = dataclasses.replace(MEMORY_HYPER, hidden=32), MEMORY_BATCH
        model = init_model(hp, seed=1)
        feats, targets = synthetic_dataset(n_train=b, hyper=hp).arrays("train")
        _, crossings = phase_memory(
            lambda: _batch_forward_backward(model, feats, targets, np.random.default_rng(3)),
            ["attention_sequence_forward", "attention_sequence_backward"],
        )
        peaks = {c.name: c.peak for c in crossings if c.where == "exit"}
        assert peaks["attention_sequence_backward"] <= peaks["attention_sequence_forward"]

    def test_enc_l2_entry_holds_no_copy_of_its_output_gradient(self, phase_memory):
        # On entry to enc_l2's backward the step holds what the encoder
        # backward still reads: both layers' gate activations and inputs,
        # enc_l2's time-major output gradient and the two dropout masks; and
        # the decoder's parameter gradients. The (B, T, H) gradient the
        # decoder returned for the encoder states must be gone once its
        # time-major copy is made, and the logit gradient, which is divided
        # in place, once the output projection's backward has read it. What
        # else the step holds, such as the per-token losses and the final-state
        # gradients, is 0.29 stacks here, so half a stack leaves no room for a
        # logit gradient (0.375 stacks).
        hp, b = MEMORY_HYPER, MEMORY_BATCH
        model = init_model(hp, seed=1)
        feats, targets = synthetic_dataset(n_train=b, hyper=hp).arrays("train")
        (_, _, grads), crossings = phase_memory(
            lambda: _batch_forward_backward(model, feats, targets, np.random.default_rng(3)),
            ["lstm_sequence_backward"],
        )
        held = [c.held for c in crossings if c.where == "entry"][2]  # dec_l2, dec_l1, enc_l2
        stack = 8 * b * hp.history * hp.hidden
        encoder = 2 * (4 + 1) * stack + stack + 2 * stack // 8  # masks are bool
        named = model.grads_to_dict(grads)
        decoder = sum(v.nbytes for k, v in named.items() if not k.startswith("enc"))
        assert held - encoder - decoder < stack / 2

    def test_no_stale_gradients_across_batches(self, traced_memory):
        one = synthetic_dataset(n_train=MEMORY_BATCH, hyper=MEMORY_HYPER)
        three = synthetic_dataset(n_train=3 * MEMORY_BATCH, hyper=MEMORY_HYPER)
        cfg = TrainConfig(batch_size=MEMORY_BATCH, max_epochs=1, seed=4)
        peaks = [
            _traced_peak(traced_memory, lambda: train(init_model(MEMORY_HYPER, 2), ds, cfg))
            for ds in (one, three)
        ]
        # the two extra batches' shuffle order (int64) stays held; their
        # features and labels are stacked only while their step runs
        hp = MEMORY_HYPER
        extra = 2 * MEMORY_BATCH * 8
        # the previous batch's gradients would add one parameter copy
        assert peaks[1] - peaks[0] - extra < 0.5 * _param_bytes(init_model(hp, 2))

    def test_one_epoch_holds_no_parameter_copy_beyond_adam(self, traced_memory):
        ds = synthetic_dataset(n_train=MEMORY_BATCH, hyper=MEMORY_HYPER)
        model = init_model(MEMORY_HYPER, seed=2)

        def bare_step():
            # the data a one-batch epoch holds: the batch stacked from the samples
            return _batch_forward_backward(model, *ds.arrays("train"), np.random.default_rng(5))

        bare = _traced_peak(traced_memory, bare_step)
        cfg = TrainConfig(batch_size=MEMORY_BATCH, max_epochs=1, seed=4)
        trained = _traced_peak(traced_memory, lambda: train(model, ds, cfg))
        params = _param_bytes(model)
        adam = 2 * params  # first and second moments
        # an up-front copy of the initial weights would add a whole one
        assert trained - bare - adam < 0.5 * params

    def test_one_epoch_holds_no_copy_of_the_train_features(self, traced_memory):
        # The features outweigh a step's activations here. Training stacks
        # each batch from the samples as it draws it, so an epoch holds what
        # a bare step holds plus Adam's moments; a stacked copy of the split
        # would add all of the split's features.
        hp = dataclasses.replace(MEMORY_HYPER, feature_dim=256)
        n = 8 * MEMORY_BATCH
        ds = synthetic_dataset(n_train=n, hyper=hp)
        model = init_model(hp, seed=2)
        first = dataclasses.replace(ds, samples=ds.samples[:MEMORY_BATCH])
        bare = _traced_peak(traced_memory, lambda: _batch_forward_backward(
            model, *first.arrays("train"), np.random.default_rng(5)
        ))
        cfg = TrainConfig(batch_size=MEMORY_BATCH, max_epochs=1, seed=4)
        trained = _traced_peak(traced_memory, lambda: train(model, ds, cfg))
        adam = 2 * _param_bytes(model)
        split_features = n * hp.history * hp.feature_dim * 4  # float32
        assert trained - bare - adam < 0.5 * split_features


class TestCheckpoints:
    def test_roundtrip_identical_inference(self, tmp_path):
        model = micro_model(seed=21)
        path = tmp_path / "model.npz"
        save_model(path, model)
        loaded, meta = load_model(path)
        assert meta == {"kind": "seq2seq", "hyper": dataclasses.asdict(model.hyper)}
        rng = np.random.default_rng(31)
        for _ in range(100):
            feats = rng.normal(size=(2, 3))
            np.testing.assert_array_equal(
                decode_greedy(model, encode(model, feats)),
                decode_greedy(loaded, encode(loaded, feats)),
            )

    def test_loads_draw_no_weights(self, tmp_path, monkeypatch):
        # a load fills a model of the file's shapes; it draws no initial weights
        hyper = dataclasses.replace(MICRO, hidden=6)
        model, _, state = train(
            init_model(hyper, seed=2), synthetic_dataset(hyper=hyper),
            TrainConfig(batch_size=4, max_epochs=1),
        )
        save_model(tmp_path / "model.npz", model)
        save_train_state(tmp_path / "state.npz", model, state)
        draws = []
        uniform = nn.layers._uniform
        monkeypatch.setattr(nn.layers, "_uniform", lambda *args: draws.append(args) or uniform(*args))
        init_model(hyper, seed=2)
        assert draws  # the spy sees init_model's draws
        draws.clear()
        loaded, _ = load_model(tmp_path / "model.npz")
        resumed, _, _ = load_train_state(tmp_path / "state.npz")
        assert draws == []
        for key, arr in model.named_params().items():
            assert loaded.named_params()[key].tobytes() == arr.tobytes()
            assert resumed.named_params()[key].tobytes() == state.live_params[key].tobytes()

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(path, micro_model())
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_paper_model_has_three_tensors_per_lstm(self):
        model = init_model(Seq2SeqHyper(feature_dim=128, history=50, horizon=50, num_beams=64), 0)
        named = model.named_params()
        assert len(named) == 20
        assert named["dec_l1.wx"].shape == (1024, 100)
        assert named["dec_l1.wh"].shape == (1024, 256)
        assert named["dec_l1.b"].shape == (1024,)

    def test_per_gate_checkpoint_rejected_by_name(self, tmp_path):
        # The layout before the gates were fused: one tensor per gate.
        path = tmp_path / "model.npz"
        save_model(path, micro_model())
        tensors, meta = nn.load_tensors(path)
        for layer in ("enc_l1", "enc_l2", "dec_l1", "dec_l2"):
            for kind in ("wx", "wh", "b"):
                fused = tensors.pop(f"{layer}.{kind}")
                for gate, block in zip("ifgo", np.split(fused, 4)):
                    tensors[f"{layer}.{kind}_{gate}"] = block
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match="tensor names") as info:
            load_model(path)
        for name in tensors:
            if name[-2:] in ("_i", "_f", "_g", "_o"):
                assert repr(name) in str(info.value)

    @pytest.mark.parametrize("metadata", [[], "x", 5, None])
    def test_metadata_that_is_not_an_object_rejected(self, tmp_path, write_archive, metadata):
        path = tmp_path / "model.npz"
        save_model(path, micro_model())
        tensors, _ = nn.load_tensors(path)
        write_archive(path, [(f"t/{k}", v) for k, v in tensors.items()], metadata)
        with pytest.raises(CheckpointError, match="not an object"):
            load_model(path)

    def test_duplicate_tensor_rejected(self, tmp_path, write_archive):
        path = tmp_path / "model.npz"
        save_model(path, micro_model())
        tensors, meta = nn.load_tensors(path)
        members = [(f"t/{k}", v) for k, v in [*tensors.items(), ("out.bias", tensors["out.bias"])]]
        write_archive(path, members, meta)
        with pytest.raises(CheckpointError, match="'t/out.bias' appears twice"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("hidden", "4"), ("hidden", 4.0), ("hidden", True), ("hidden", 0),
         ("num_beams", None), ("dropout", "0.1"), ("dropout", 1.0)],
    )
    def test_hyperparameter_of_wrong_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.npz"
        save_model(path, micro_model())
        tensors, meta = nn.load_tensors(path)
        meta["hyper"][field] = value
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match=f"bad hyperparameter {field}="):
            load_model(path)

    def test_feature_dim_mismatch_surfaces(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(path, micro_model())  # feature_dim = 3
        loaded, _ = load_model(path)
        with pytest.raises(ValueError):
            encode(loaded, np.zeros((2, 8)))  # wrong feature width


class TestTrainStateCheckpoint:
    @pytest.fixture
    def state_file(self, tmp_path):
        ds = synthetic_dataset(n_train=8, n_val=3)
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, _, state = train(micro_model(seed=4), ds, cfg)
        path = tmp_path / "state.npz"
        save_train_state(path, model, state)
        return path, state

    def test_loaded_model_holds_live_weights(self, state_file):
        path, state = state_file
        model, loaded, _ = load_train_state(path)
        for key, arr in model.named_params().items():
            np.testing.assert_array_equal(arr, state.live_params[key])
            np.testing.assert_array_equal(loaded.live_params[key], state.live_params[key])
            np.testing.assert_array_equal(loaded.best_params[key], state.best_params[key])

    @pytest.mark.parametrize("prefix", ["", "best.", "adam_m.", "adam_v."])
    @pytest.mark.parametrize("fault", ["missing", "misshapen"])
    def test_bad_tensor_raises_checkpoint_error(self, state_file, prefix, fault):
        path, _ = state_file
        tensors, meta = nn.load_tensors(path)
        name = f"{prefix}dec_l1.wh"
        if fault == "missing":
            del tensors[name]
        else:
            tensors[name] = tensors[name][:, :-1]
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match="dec_l1.wh"):
            load_train_state(path)

    @pytest.mark.parametrize("metadata", [[], "x", 5, None])
    def test_metadata_that_is_not_an_object_rejected(self, state_file, write_archive, metadata):
        path, _ = state_file
        tensors, _ = nn.load_tensors(path)
        write_archive(path, [(f"t/{k}", v) for k, v in tensors.items()], metadata)
        with pytest.raises(CheckpointError, match="not an object"):
            load_train_state(path)

    def test_hyperparameter_of_wrong_type_rejected(self, state_file):
        path, _ = state_file
        tensors, meta = nn.load_tensors(path)
        meta["hyper"]["hidden"] = "4"
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match="bad hyperparameter hidden="):
            load_train_state(path)

    def test_missing_metadata_raises_checkpoint_error(self, state_file):
        path, _ = state_file
        tensors, meta = nn.load_tensors(path)
        del meta["next_epoch"]
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError):
            load_train_state(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rng_state", json.dumps({"foo": 1})),
            ("next_epoch", "1"),
            ("adam.t", "x"),
            ("best_val_loss", None),
            ("epochs_since_best", -1),
        ],
    )
    def test_malformed_metadata_raises_checkpoint_error(self, state_file, key, value):
        path, _ = state_file
        tensors, meta = nn.load_tensors(path)
        if key.startswith("adam."):
            meta["adam"][key.removeprefix("adam.")] = value
        else:
            meta[key] = value
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match="bad training-state metadata"):
            load_train_state(path)

    def test_file_holding_adam_constants_loads(self, state_file):
        # Files written while alpha, beta1, beta2 and eps were settable hold
        # them too.
        path, state = state_file
        tensors, meta = nn.load_tensors(path)
        meta["adam"].update(alpha=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        nn.save_tensors(path, list(tensors.items()), meta)
        _, loaded, _ = load_train_state(path)
        assert loaded.adam.t == state.adam.t
        assert loaded.rng_state == state.rng_state
