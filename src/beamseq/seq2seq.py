"""Encoder-decoder beam-index predictor.

Encoder: per-slot dense projection into 256 units, dropout, two stacked LSTM
layers. Decoder: token embedding, two stacked LSTM layers initialized from the
encoder's final states layer by layer, global attention over the encoder state
sequence, and a dense projection to per-beam logits. Training teacher-forces
the decoder with a start token prepended; inference feeds back its own argmax.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import nn
from .data import Dataset
from .nn import (
    AdamState,
    AttentionParams,
    DenseParams,
    EmbeddingParams,
    LSTMParams,
    NumericError,
    accumulate_params,
    params_items,
    zeros_like_params,
)

__all__ = [
    "Seq2SeqHyper",
    "Seq2SeqModel",
    "EncoderOutput",
    "TrainConfig",
    "TrainState",
    "init_model",
    "encode",
    "decode_teacher_forced",
    "decode_greedy",
    "compute_loss",
    "train",
    "save_model",
    "load_model",
    "save_train_state",
    "load_train_state",
    "write_history",
]

# sub-stream tags for seed derivation
_TAG_INIT = 4
_TAG_TRAIN = 5


@dataclass(frozen=True)
class Seq2SeqHyper:
    feature_dim: int  # F: source BS antenna count
    history: int  # T input slots
    horizon: int  # K predicted slots
    num_beams: int  # X output classes; decoder vocabulary is X+1
    hidden: int = 256
    embed_dim: int = 100
    dropout: float = 0.2

    @property
    def start_token(self) -> int:
        return self.num_beams


@dataclass
class Seq2SeqModel:
    hyper: Seq2SeqHyper
    enc_in: DenseParams
    enc_l1: LSTMParams
    enc_l2: LSTMParams
    emb: EmbeddingParams
    dec_l1: LSTMParams
    dec_l2: LSTMParams
    att: AttentionParams
    out: DenseParams

    _LAYERS = ("enc_in", "enc_l1", "enc_l2", "emb", "dec_l1", "dec_l2", "att", "out")

    def named_params(self) -> dict[str, np.ndarray]:
        return self.grads_to_dict({layer: getattr(self, layer) for layer in self._LAYERS})

    def grads_to_dict(self, grads: dict) -> dict[str, np.ndarray]:
        """``{"layer.field": array}`` for a ``{layer: parameter dataclass}`` dict."""
        named: dict[str, np.ndarray] = {}
        for layer in self._LAYERS:
            named.update(params_items(grads[layer], prefix=f"{layer}."))
        return named

    def zero_grads(self) -> dict:
        return {layer: zeros_like_params(getattr(self, layer)) for layer in self._LAYERS}


@dataclass
class EncoderOutput:
    """Top-layer state sequence plus both layers' final (h, c)."""

    states: np.ndarray  # (B, T, H)
    h1: np.ndarray  # (B, H)
    c1: np.ndarray
    h2: np.ndarray
    c2: np.ndarray


def init_model(hyper: Seq2SeqHyper, seed: int) -> Seq2SeqModel:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _TAG_INIT]))
    h = hyper.hidden
    return Seq2SeqModel(
        hyper=hyper,
        enc_in=nn.init_dense(rng, hyper.feature_dim, h),
        enc_l1=nn.init_lstm(rng, h, h),
        enc_l2=nn.init_lstm(rng, h, h),
        emb=nn.init_embedding(rng, hyper.num_beams + 1, hyper.embed_dim),
        dec_l1=nn.init_lstm(rng, hyper.embed_dim, h),
        dec_l2=nn.init_lstm(rng, h, h),
        att=nn.init_attention(rng, h),
        out=nn.init_dense(rng, h, hyper.num_beams),
    )


# ---------------------------------------------------------------------------
# forward passes (batched internals, single-sample public wrappers)


def _encode_batch(model: Seq2SeqModel, feats: np.ndarray, training: bool, rng=None):
    hp = model.hyper
    if feats.ndim != 3 or feats.shape[1] != hp.history or feats.shape[2] != hp.feature_dim:
        raise ValueError(
            f"expected features (B, {hp.history}, {hp.feature_dim}), got {feats.shape}"
        )
    b, t, _ = feats.shape
    h = hp.hidden
    flat = feats.reshape(b * t, hp.feature_dim)
    proj, dense_cache = nn.dense_forward(model.enc_in, flat)
    proj, drop_in_cache = nn.dropout_forward(proj, hp.dropout, rng, training)
    x = proj.reshape(b, t, h)

    h1 = np.zeros((b, h))
    c1 = np.zeros((b, h))
    h2 = np.zeros((b, h))
    c2 = np.zeros((b, h))
    states = np.empty((b, t, h))
    step_caches = []
    for k in range(t):
        h1, c1, cache1 = nn.lstm_cell_forward(model.enc_l1, x[:, k, :], h1, c1)
        mid, drop_cache = nn.dropout_forward(h1, hp.dropout, rng, training)
        h2, c2, cache2 = nn.lstm_cell_forward(model.enc_l2, mid, h2, c2)
        states[:, k, :] = h2
        step_caches.append((cache1, drop_cache, cache2))
    output = EncoderOutput(states=states, h1=h1, c1=c1, h2=h2, c2=c2)
    cache = (dense_cache, drop_in_cache, step_caches, b, t)
    return output, cache


def _encode_backward(model, cache, d_states, d_finals, grads):
    dense_cache, drop_in_cache, step_caches, b, t = cache
    h = model.hyper.hidden
    dh1, dc1, dh2, dc2 = d_finals
    dx = np.empty((b, t, h))
    for k in reversed(range(t)):
        cache1, drop_cache, cache2 = step_caches[k]
        g2, d_mid, dh2, dc2 = nn.lstm_cell_backward(cache2, d_states[:, k, :] + dh2, dc2)
        accumulate_params(grads["enc_l2"], g2)
        d_mid = nn.dropout_backward(drop_cache, d_mid)
        g1, d_in, dh1, dc1 = nn.lstm_cell_backward(cache1, d_mid + dh1, dc1)
        accumulate_params(grads["enc_l1"], g1)
        dx[:, k, :] = d_in
    flat = nn.dropout_backward(drop_in_cache, dx.reshape(b * t, h))
    g_dense, _ = nn.dense_backward(dense_cache, flat)
    accumulate_params(grads["enc_in"], g_dense)


def _decoder_step(
    model: Seq2SeqModel, enc: EncoderOutput, tokens, carry, training: bool, rng=None
):
    """Embedding, ``dec_l1``, dropout, ``dec_l2``, attention, output projection
    from ``carry = (h1, c1, h2, c2)``; returns (logits, next carry, caches)."""
    h1, c1, h2, c2 = carry
    embedded, ecache = nn.embedding_forward(model.emb, tokens)
    h1, c1, cache1 = nn.lstm_cell_forward(model.dec_l1, embedded, h1, c1)
    mid, drop_cache = nn.dropout_forward(h1, model.hyper.dropout, rng, training)
    h2, c2, cache2 = nn.lstm_cell_forward(model.dec_l2, mid, h2, c2)
    _, _, combined, acache = nn.attention_forward(model.att, h2, enc.states)
    logits, ocache = nn.dense_forward(model.out, combined)
    return logits, (h1, c1, h2, c2), (ecache, cache1, drop_cache, cache2, acache, ocache)


def _decode_teacher_batch(
    model: Seq2SeqModel,
    enc: EncoderOutput,
    targets: np.ndarray,
    training: bool,
    rng=None,
):
    hp = model.hyper
    b, k_steps = targets.shape
    if k_steps != hp.horizon:
        raise ValueError(f"expected {hp.horizon} target slots, got {k_steps}")
    if np.any(targets < 0) or np.any(targets >= hp.num_beams):
        raise ValueError("target label out of range")
    tokens = np.column_stack(
        [np.full(b, hp.start_token, dtype=np.int64), targets[:, :-1]]
    )
    logits = np.empty((b, k_steps, hp.num_beams))
    carry = (enc.h1, enc.c1, enc.h2, enc.c2)
    step_caches = []
    for k in range(k_steps):
        logits[:, k, :], carry, cache = _decoder_step(
            model, enc, tokens[:, k], carry, training, rng
        )
        step_caches.append(cache)
    return logits, step_caches


def _decode_backward(model, step_caches, d_logits, grads):
    """BPTT through the decoder; returns (d_enc_states, encoder final grads)."""
    b, k_steps, _ = d_logits.shape
    h = model.hyper.hidden
    dh1 = np.zeros((b, h))
    dc1 = np.zeros((b, h))
    dh2 = np.zeros((b, h))
    dc2 = np.zeros((b, h))
    d_enc_states = None
    for k in reversed(range(k_steps)):
        ecache, cache1, drop_cache, cache2, acache, ocache = step_caches[k]
        g_out, d_comb = nn.dense_backward(ocache, d_logits[:, k, :])
        accumulate_params(grads["out"], g_out)
        g_att, d_query, d_enc = nn.attention_backward(acache, d_comb)
        accumulate_params(grads["att"], g_att)
        d_enc_states = d_enc if d_enc_states is None else d_enc_states + d_enc
        g2, d_mid, dh2, dc2 = nn.lstm_cell_backward(cache2, d_query + dh2, dc2)
        accumulate_params(grads["dec_l2"], g2)
        d_mid = nn.dropout_backward(drop_cache, d_mid)
        g1, d_emb, dh1, dc1 = nn.lstm_cell_backward(cache1, d_mid + dh1, dc1)
        accumulate_params(grads["dec_l1"], g1)
        accumulate_params(grads["emb"], nn.embedding_backward(ecache, d_emb))
    return d_enc_states, (dh1, dc1, dh2, dc2)


def _decode_greedy_batch(model: Seq2SeqModel, enc: EncoderOutput, horizon: int):
    hp = model.hyper
    b = enc.states.shape[0]
    tokens = np.full(b, hp.start_token, dtype=np.int64)
    labels = np.empty((b, horizon), dtype=np.int64)
    carry = (enc.h1, enc.c1, enc.h2, enc.c2)
    for k in range(horizon):
        step_logits, carry, _ = _decoder_step(model, enc, tokens, carry, training=False)
        labels[:, k] = np.argmax(step_logits, axis=1)
        tokens = labels[:, k]
    return labels


def encode(model: Seq2SeqModel, features: np.ndarray) -> EncoderOutput:
    """Inference-mode encoding of one (T, F) standardized feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"expected a (T, F) matrix, got shape {features.shape}")
    enc, _ = _encode_batch(model, features[None, :, :], training=False)
    return enc


def decode_teacher_forced(
    model: Seq2SeqModel, enc: EncoderOutput, target_labels: np.ndarray
) -> np.ndarray:
    """(K, X) logits with the decoder fed the start token then the targets."""
    targets = np.asarray(target_labels, dtype=np.int64)
    if targets.ndim != 1:
        raise ValueError("target_labels must be 1-D")
    logits, _ = _decode_teacher_batch(model, enc, targets[None, :], training=False)
    return logits[0]


def decode_greedy(model: Seq2SeqModel, enc: EncoderOutput, horizon: int | None = None):
    """Autoregressive argmax decoding: (K,) predicted beam labels."""
    if horizon is None:
        horizon = model.hyper.horizon
    if not 1 <= horizon <= model.hyper.horizon:
        raise ValueError(f"horizon must be in [1, {model.hyper.horizon}], got {horizon}")
    return _decode_greedy_batch(model, enc, horizon)[0]


def compute_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean softmax cross-entropy over the K decoded slots."""
    losses, _ = nn.softmax_cross_entropy_batch(logits, np.asarray(targets, dtype=np.int64))
    return float(losses.mean())


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    stop_at_train_acc: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class TrainState:
    """Everything needed to resume training mid-run deterministically.

    ``live_params`` are the weights the optimizer reached at the end of the
    last epoch run; the Adam moments and RNG state belong to them, so training
    resumes from them. ``best_params`` are the weights of the epoch with the
    lowest validation loss, which ``train`` returns in the model.
    """

    adam: AdamState
    rng_state: dict
    next_epoch: int
    best_val_loss: float
    epochs_since_best: int
    best_params: dict[str, np.ndarray]
    live_params: dict[str, np.ndarray]


def _batch_forward_backward(model, feats, targets, rng):
    """One teacher-forced pass with dropout; returns loss, accuracy, grads."""
    b, k_steps = targets.shape
    grads = model.zero_grads()
    enc, enc_cache = _encode_batch(model, feats, training=True, rng=rng)
    logits, dec_caches = _decode_teacher_batch(model, enc, targets, training=True, rng=rng)
    flat_logits = logits.reshape(b * k_steps, -1)
    losses, d_flat = nn.softmax_cross_entropy_batch(flat_logits, targets.reshape(-1))
    loss = float(losses.mean())
    accuracy = float(np.mean(np.argmax(flat_logits, axis=1) == targets.reshape(-1)))
    d_logits = (d_flat / (b * k_steps)).reshape(b, k_steps, -1)
    d_enc_states, d_finals = _decode_backward(model, dec_caches, d_logits, grads)
    _encode_backward(model, enc_cache, d_enc_states, d_finals, grads)
    return loss, accuracy, grads


def _evaluate_teacher_forced(model, feats, targets, batch_size=256):
    """Inference-mode loss/accuracy over a split."""
    n = feats.shape[0]
    if n == 0:
        return float("nan"), float("nan")
    total_loss = 0.0
    total_correct = 0
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        enc, _ = _encode_batch(model, feats[lo:hi], training=False)
        logits, _ = _decode_teacher_batch(model, enc, targets[lo:hi], training=False)
        flat = logits.reshape(-1, logits.shape[-1])
        losses, _ = nn.softmax_cross_entropy_batch(flat, targets[lo:hi].reshape(-1))
        total_loss += float(losses.sum())
        total_correct += int(np.sum(np.argmax(flat, axis=1) == targets[lo:hi].reshape(-1)))
    tokens = n * targets.shape[1]
    return total_loss / tokens, total_correct / tokens


def train(
    model: Seq2SeqModel,
    dataset: Dataset,
    config: TrainConfig,
    state: TrainState | None = None,
):
    """Shuffled mini-batch teacher-forced training with gradient clipping,
    Adam, and validation-loss early stopping.

    Returns (model-with-best-params, history, final TrainState). ``state``
    resumes a prior run exactly: training starts from ``state.live_params``
    (not from the weights ``model`` holds, which after a prior ``train`` are
    the best ones) with its optimizer moments, RNG stream and counters. Before
    restoring the best weights into ``model``, ``train`` records the live
    ones in the returned state, so ``train(model, ..., state=state)`` continues
    the run as if it had never stopped.
    """
    train_x, train_y = dataset.arrays("train")
    val_x, val_y = dataset.arrays("val")
    if train_x.shape[0] == 0:
        raise ValueError("dataset has no train-split samples")
    have_val = val_x.shape[0] > 0

    named = model.named_params()
    if state is None:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), _TAG_TRAIN])
        )
        state = TrainState(
            adam=nn.adam_init(
                named,
                alpha=config.learning_rate,
                beta1=config.adam_beta1,
                beta2=config.adam_beta2,
                eps=config.adam_eps,
            ),
            rng_state=rng.bit_generator.state,
            next_epoch=0,
            best_val_loss=float("inf"),
            epochs_since_best=0,
            best_params={k: v.copy() for k, v in named.items()},
            live_params={},
        )
    else:
        for key, value in state.live_params.items():
            named[key][...] = value
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state

    n = train_x.shape[0]
    history: list[dict] = []
    for epoch in range(state.next_epoch, config.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0.0
        clip_events = 0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, acc, grads = _batch_forward_backward(
                model, train_x[batch], train_y[batch], rng
            )
            if not np.isfinite(loss):
                norm = float(
                    np.sqrt(sum(np.sum(v * v) for v in model.named_params().values()))
                )
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {lo // config.batch_size}, "
                    f"parameter norm {norm:.3e}"
                )
            grad_dict = model.grads_to_dict(grads)
            _, clipped = nn.clip_global_norm(grad_dict, config.clip_norm)
            clip_events += int(clipped)
            nn.adam_step(named, grad_dict, state.adam)
            epoch_loss += loss * len(batch)
            epoch_correct += acc * len(batch)
        train_loss = epoch_loss / n
        train_acc = epoch_correct / n
        if have_val:
            val_loss, val_acc = _evaluate_teacher_forced(model, val_x, val_y)
        else:
            val_loss, val_acc = train_loss, train_acc
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_loss": val_loss,
                "train_acc": train_acc,
                "val_acc": val_acc,
                "clip_events": clip_events,
            }
        )
        if val_loss < state.best_val_loss:
            state.best_val_loss = val_loss
            state.epochs_since_best = 0
            state.best_params = {k: v.copy() for k, v in named.items()}
        else:
            state.epochs_since_best += 1
        state.next_epoch = epoch + 1
        state.rng_state = rng.bit_generator.state
        if config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc:
            state.best_params = {k: v.copy() for k, v in named.items()}
            break
        if state.epochs_since_best >= config.patience:
            break
    state.live_params = {k: v.copy() for k, v in named.items()}
    for key, value in state.best_params.items():
        named[key][...] = value
    return model, history, state


def write_history(path, history: list[dict], provenance: str = "") -> None:
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("epoch,train_loss,val_loss,train_acc,val_acc,clip_events")
    for row in history:
        lines.append(
            f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r},"
            f"{row['train_acc']!r},{row['val_acc']!r},{row['clip_events']}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, model: Seq2SeqModel, extra_metadata: dict | None = None) -> None:
    tensors = list(model.named_params().items())
    meta = {"kind": "seq2seq", "hyper": asdict(model.hyper)}
    if extra_metadata:
        meta.update(extra_metadata)
    nn.save_tensors(path, tensors, meta)


def _model_for(meta: dict, tensors: dict[str, np.ndarray], prefixes: tuple[str, ...]):
    """Fresh model of the file's architecture, after checking that the file
    holds exactly one tensor per parameter and prefix, each of the right shape."""
    try:
        hyper = Seq2SeqHyper(**meta["hyper"])
    except (KeyError, TypeError) as exc:
        raise nn.CheckpointError(f"bad hyperparameter block: {exc!r}") from exc
    for f in fields(hyper):
        value = getattr(hyper, f.name)
        if f.name == "dropout":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value < 1
        else:
            ok = isinstance(value, int) and not isinstance(value, bool) and value >= 1
        if not ok:
            raise nn.CheckpointError(f"bad hyperparameter {f.name}={value!r}")
    model = init_model(hyper, seed=0)
    expected = {
        prefix + key: arr.shape
        for prefix in prefixes
        for key, arr in model.named_params().items()
    }
    if set(expected) != set(tensors):
        mismatch = set(expected) ^ set(tensors)
        raise nn.CheckpointError(f"tensor names do not match architecture: {sorted(mismatch)}")
    for key, shape in expected.items():
        if tensors[key].shape != shape:
            raise nn.CheckpointError(
                f"shape mismatch for {key}: file {tensors[key].shape} vs model {shape}"
            )
    return model


def load_model(path) -> tuple[Seq2SeqModel, dict]:
    tensors, meta = nn.load_tensors(path)
    if meta.get("kind") != "seq2seq":
        raise nn.CheckpointError(f"not a seq2seq checkpoint: kind={meta.get('kind')!r}")
    model = _model_for(meta, tensors, ("",))
    for key, target in model.named_params().items():
        target[...] = tensors[key]
    return model, meta


def save_train_state(path, model: Seq2SeqModel, state: TrainState, extra: dict | None = None):
    """Write a resume point: the live weights as the unprefixed tensors, plus
    ``best.*`` weights, ``adam_m.*``/``adam_v.*`` moments and the counters and
    RNG state in the metadata. ``model`` supplies only the architecture; its
    weights (the best ones, after ``train``) are not written unprefixed.

    Files written before the live weights were kept in ``TrainState`` hold the
    best weights as their unprefixed tensors; they load, but resume from the
    best epoch's weights with the last epoch's moments.
    """
    tensors = list(state.live_params.items())
    tensors += [(f"best.{k}", v) for k, v in state.best_params.items()]
    tensors += [(f"adam_m.{k}", v) for k, v in state.adam.m.items()]
    tensors += [(f"adam_v.{k}", v) for k, v in state.adam.v.items()]
    meta = {
        "kind": "seq2seq-trainstate",
        "hyper": asdict(model.hyper),
        "adam": {
            "t": state.adam.t,
            "alpha": state.adam.alpha,
            "beta1": state.adam.beta1,
            "beta2": state.adam.beta2,
            "eps": state.adam.eps,
        },
        "rng_state": json.dumps(state.rng_state),
        "next_epoch": state.next_epoch,
        "best_val_loss": state.best_val_loss,
        "epochs_since_best": state.epochs_since_best,
    }
    if extra:
        meta.update(extra)
    nn.save_tensors(path, tensors, meta)


def load_train_state(path) -> tuple[Seq2SeqModel, TrainState, dict]:
    """Read a ``save_train_state`` file. The returned ``(model, state)`` is a
    resume point: ``model`` holds the live weights, and
    ``train(model, ..., state=state)`` continues the run. A missing, extra or
    misshapen tensor raises ``CheckpointError``."""
    tensors, meta = nn.load_tensors(path)
    if meta.get("kind") != "seq2seq-trainstate":
        raise nn.CheckpointError(
            f"not a training-state checkpoint: kind={meta.get('kind')!r}"
        )
    model = _model_for(meta, tensors, ("", "best.", "adam_m.", "adam_v."))
    named = model.named_params()
    for key, target in named.items():
        target[...] = tensors[key]
    try:
        adam_meta = meta["adam"]
        hyperparams = {k: adam_meta[k] for k in ("t", "alpha", "beta1", "beta2", "eps")}
        counters = {k: meta[k] for k in ("next_epoch", "best_val_loss", "epochs_since_best")}
        rng_state = json.loads(meta["rng_state"])
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise nn.CheckpointError(f"bad training-state metadata: {exc!r}") from exc
    state = TrainState(
        adam=AdamState(
            m={k: tensors[f"adam_m.{k}"] for k in named},
            v={k: tensors[f"adam_v.{k}"] for k in named},
            **hyperparams,
        ),
        rng_state=rng_state,
        **counters,
        best_params={k: tensors[f"best.{k}"] for k in named},
        live_params={k: tensors[k] for k in named},
    )
    return model, state, meta
