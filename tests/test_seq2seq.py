"""Encoder/decoder forward oracles, end-to-end gradients, training behavior."""

import numpy as np
import pytest

from beamseq import nn
from beamseq.data import Dataset, TrainingSample, split_of_trajectory
from beamseq.nn import CheckpointError, finite_diff_check, params_items
from beamseq.seq2seq import (
    EncoderOutput,
    Seq2SeqHyper,
    Seq2SeqModel,
    TrainConfig,
    TrainState,
    _batch_forward_backward,
    _decode_teacher_batch,
    _encode_batch,
    compute_loss,
    decode_greedy,
    decode_teacher_forced,
    encode,
    init_model,
    load_model,
    load_train_state,
    save_model,
    save_train_state,
    train,
    write_history,
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
    train_ids = [i for i in range(4000) if split_of_trajectory(seed, i) == "train"]
    val_ids = [i for i in range(4000) if split_of_trajectory(seed, i) == "val"]
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
        np.testing.assert_allclose(enc.states[0], np.array(states), atol=1e-12)
        np.testing.assert_allclose(enc.h1[0], h1, atol=1e-12)
        np.testing.assert_allclose(enc.c1[0], c1, atol=1e-12)
        np.testing.assert_allclose(enc.h2[0], h2, atol=1e-12)
        np.testing.assert_allclose(enc.c2[0], c2, atol=1e-12)


class TestDecode:
    def test_teacher_forced_shape_and_k1(self):
        hyper = Seq2SeqHyper(
            feature_dim=3, history=2, horizon=1, num_beams=5, hidden=4, embed_dim=6, dropout=0.0
        )
        model = init_model(hyper, seed=1)
        enc = encode(model, np.random.default_rng(2).normal(size=(2, 3)))
        logits = decode_teacher_forced(model, enc, np.array([3]))
        assert logits.shape == (1, 5)

    def test_label_out_of_range(self):
        model = micro_model()
        enc = encode(model, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            decode_teacher_forced(model, enc, np.array([0, 5]))

    def test_matches_hand_unrolled_oracle(self):
        model = micro_model(seed=7)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(2, 3))
        targets = np.array([2, 4])
        enc = encode(model, feats)
        logits = decode_teacher_forced(model, enc, targets)

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
        np.testing.assert_allclose(logits, np.array(expected), atol=1e-12)

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


class TestComputeLoss:
    def test_aligned_one_hot_logits(self):
        logits = np.full((3, 5), -30.0)
        targets = np.array([1, 4, 0])
        logits[np.arange(3), targets] = 30.0
        assert compute_loss(logits, targets) < 1e-20

    def test_uniform_logits_256(self):
        logits = np.zeros((4, 256))
        assert compute_loss(logits, np.array([0, 17, 99, 255])) == pytest.approx(
            np.log(256.0), abs=1e-12
        )

    def test_matches_per_step_mean_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(0, 9, size=6)
        per_step = []
        for k in range(6):
            p = np.exp(logits[k] - logits[k].max())
            p /= p.sum()
            per_step.append(-np.log(p[targets[k]]))
        assert compute_loss(logits, targets) == pytest.approx(np.mean(per_step), rel=1e-12)

    @pytest.mark.parametrize(
        "logits_shape, targets_shape", [((4, 9), (3,)), ((4, 9), (4, 1)), ((9,), (1,))]
    )
    def test_shape_mismatch_rejected(self, logits_shape, targets_shape):
        with pytest.raises(ValueError, match="shape mismatch"):
            compute_loss(np.zeros(logits_shape), np.zeros(targets_shape, dtype=np.int64))


class TestEndToEndGradients:
    def test_micro_model_bptt_matches_finite_differences(self):
        model = micro_model(seed=13)
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(2, 2, 3))
        targets = rng.integers(0, 5, size=(2, 2))

        def loss_fn():
            enc, _ = _encode_batch(model, feats, training=False)
            logits, _ = _decode_teacher_batch(model, enc, targets, training=False)
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
        cfg = TrainConfig(
            batch_size=8, max_epochs=500, seed=3, stop_at_train_acc=0.99, patience=500
        )
        model, history, _ = train(init_model(hyper, seed=2), ds, cfg)
        assert history[-1]["train_acc"] >= 0.99
        # greedy decoding reproduces the teacher-forced argmax on an overfit model
        for s in ds.samples:
            enc = encode(model, s.features)
            greedy = decode_greedy(model, enc)
            forced = np.argmax(
                decode_teacher_forced(model, enc, s.labels.astype(np.int64)), axis=1
            )
            np.testing.assert_array_equal(greedy, forced)

    def test_validation_tracking_and_early_stop(self):
        ds = synthetic_dataset(n_train=8, n_val=3)
        cfg = TrainConfig(batch_size=4, max_epochs=60, patience=3, seed=7)
        _, history, state = train(micro_model(seed=5), ds, cfg)
        assert len(history) <= 60
        val_losses = [row["val_loss"] for row in history]
        assert state.best_val_loss == pytest.approx(min(val_losses))

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = synthetic_dataset(n_train=8, n_val=3)
        straight_cfg = TrainConfig(batch_size=4, max_epochs=4, patience=100, seed=9)
        _, straight_hist, _ = train(micro_model(seed=4), ds, straight_cfg)

        first_cfg = TrainConfig(batch_size=4, max_epochs=2, patience=100, seed=9)
        model, first_hist, state = train(micro_model(seed=4), ds, first_cfg)
        path = tmp_path / "state.bmck"
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


class TestCheckpoints:
    def test_roundtrip_identical_inference(self, tmp_path):
        model = micro_model(seed=21)
        path = tmp_path / "model.bmck"
        save_model(path, model, {"note": "test"})
        loaded, meta = load_model(path)
        assert meta["note"] == "test"
        rng = np.random.default_rng(31)
        for _ in range(100):
            feats = rng.normal(size=(2, 3))
            np.testing.assert_array_equal(
                decode_greedy(model, encode(model, feats)),
                decode_greedy(loaded, encode(loaded, feats)),
            )

    def test_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bmck"
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
        path = tmp_path / "model.bmck"
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
    def test_metadata_that_is_not_an_object_rejected(self, tmp_path, metadata):
        path = tmp_path / "model.bmck"
        save_model(path, micro_model())
        tensors, _ = nn.load_tensors(path)
        nn.save_tensors(path, list(tensors.items()), metadata)
        with pytest.raises(CheckpointError, match="not an object"):
            load_model(path)

    def test_duplicate_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.bmck"
        save_model(path, micro_model())
        tensors, meta = nn.load_tensors(path)
        nn.save_tensors(path, [*tensors.items(), ("out.bias", tensors["out.bias"])], meta)
        with pytest.raises(CheckpointError, match="'out.bias' appears twice"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("hidden", "4"), ("hidden", 4.0), ("hidden", True), ("hidden", 0),
         ("num_beams", None), ("dropout", "0.1"), ("dropout", 1.0)],
    )
    def test_hyperparameter_of_wrong_type_rejected(self, tmp_path, field, value):
        path = tmp_path / "model.bmck"
        save_model(path, micro_model())
        tensors, meta = nn.load_tensors(path)
        meta["hyper"][field] = value
        nn.save_tensors(path, list(tensors.items()), meta)
        with pytest.raises(CheckpointError, match=f"bad hyperparameter {field}="):
            load_model(path)

    def test_feature_dim_mismatch_surfaces(self, tmp_path):
        path = tmp_path / "model.bmck"
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
        path = tmp_path / "state.bmck"
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
    def test_metadata_that_is_not_an_object_rejected(self, state_file, metadata):
        path, _ = state_file
        tensors, _ = nn.load_tensors(path)
        nn.save_tensors(path, list(tensors.items()), metadata)
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
