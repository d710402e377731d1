"""Encoder-decoder beam-index predictor.

Encoder: per-slot dense projection into 256 units, dropout, two stacked LSTM
layers. Decoder: token embedding, two stacked LSTM layers initialized from the
encoder's final states layer by layer, global attention over the encoder state
sequence, and a dense projection to per-beam logits. Training teacher-forces
the decoder with a start token prepended; inference feeds back its own argmax.

The model runs layer by layer, not step by step. The decoder has no input
feeding: the attention output goes only to the output projection, never into
the next step's input. So once the decoder's inputs are known (all of them
under teacher forcing, and the whole encoder input always), only the two LSTM
recurrences of each stack have to run one time step after another. Each
layer runs once over the whole sequence: the LSTM input products (bias
included), the attention memory, attention, the combine layer and the output
projection are each one batched product over all B*S rows, forward and
backward.

Greedy decoding still steps, because it feeds back its own argmax, so each
step reads only the weights that act on the step's state: the attention
memory (keys and the context half of the combine layer) is projected once
per encoding, and the first decoder layer reads its input products from a
table with one row per token, formed once per call from the embedding. Both
decoder layers step through ``nn.lstm_step`` on state buffers allocated once
per call (an h stack, c and a gate row per layer, and one scratch row), and
the h stacks are checked for non-finite values once per call, after the
last step, not twice per step.

A training step holds only what its backward still reads. Every backward
consumes its layer's cache (see ``nn``), and the step pops the caches in
reverse layer order: the decoder's output projection, attention, ``dec_l2``,
``dec_l1`` and embedding, then the encoder's ``enc_l2``, ``enc_l1`` and input
projection. So each layer's activations are gone before the layer below runs
its backward. What a backward can rebuild cheaply is not held at all:
- An LSTM layer caches only its gate activations and rebuilds its c and h
  stacks, in one buffer, in its backward (see ``nn``). So a layer's h output
  is held only by the layer that reads it, and only during the forward: the
  encoder copies the final states into ``EncoderOutput``, and the decoder
  makes the attention's batch-major query copy of ``dec_l2``'s output itself
  and drops the time-major output before the attention runs.
- No LSTM layer holds its input. Each input is rebuilt, bit for bit, just
  before the layer's backward, from caches the layers below still hold:
  ``dec_l2``'s as the dropout (``dec_l1``'s cached mask) of
  ``nn.lstm_states`` of ``dec_l1``'s cache, in ``_decode_backward``;
  ``dec_l1``'s as the embedding rows of the cached teacher tokens, also
  there; ``enc_l2``'s as the dropout of ``nn.lstm_states`` of ``enc_l1``'s
  cache, in ``_encode_backward``; and ``enc_l1``'s as the input dropout of
  the input projection of the cached feature rows, also there. At paper
  shape that is one 3200×128×256 GEMM, two c/h sweeps, three mask products
  and one embedding gather per step, under 2% of it; validation runs no
  backward and pays nothing.
- The attention caches the encoder states and not their keys and values; its
  backward rebuilds each from the states just before its one read, two GEMMs
  over B*T rows, about 1% of a step.
The previous batch's gradients are dropped before the next batch runs, and
each batch's features and labels are gathered from the dataset's table (see
``data.WindowTable``) as the batch is drawn, so training holds no copy of a
split.

Datasets hold features in float32 (see ``data``), and training feeds its
batches in as they are: the input projection's GEMM widens them to float64
exactly, so the loss and gradients equal those of float64 inputs holding the
same values, and every layer above it computes in float64.

The batched passes take the dropout generator as ``rng``: training passes
one, and ``rng=None`` is inference, with dropout off. Training and validation
score a batch through the same teacher-forced forward and cross-entropy,
``_score_teacher_forced``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from ._files import atomic_write, is_int, is_real
from .data import Dataset
from .nn import (
    AdamState,
    AttentionParams,
    DenseParams,
    EmbeddingParams,
    LSTMParams,
    NumericError,
    accumulate_params,  # noqa: F401  (the benchmark tracer wraps it here)
    params_items,
)

__all__ = [
    "Seq2SeqHyper",
    "Seq2SeqModel",
    "EncoderOutput",
    "TrainConfig",
    "TrainState",
    "init_model",
    "encode",
    "decode_greedy",
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

# joint L2 norm that training clips each batch's gradients to
CLIP_NORM = 5.0


@dataclass(frozen=True)
class Seq2SeqHyper:
    """Model sizes and dropout rate, checked on construction: every size an
    int >= 1 and not a bool, and 0 <= ``dropout`` < 1 (``ValueError``)."""

    feature_dim: int  # F: source BS antenna count
    history: int  # T input slots
    horizon: int  # K predicted slots
    num_beams: int  # X output classes; decoder vocabulary is X+1
    hidden: int = 256
    embed_dim: int = 100
    dropout: float = 0.2

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            ok = is_real(value) and 0 <= value < 1 if f.name == "dropout" else is_int(value, 1)
            if not ok:
                raise ValueError(f"bad hyperparameter {f.name}={value!r}")

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


@dataclass
class EncoderOutput:
    """Top-layer state sequence plus both layers' final (h, c)."""

    states: np.ndarray  # (B, T, H)
    h1: np.ndarray  # (B, H)
    c1: np.ndarray
    h2: np.ndarray
    c2: np.ndarray


def _build_model(hyper: Seq2SeqHyper, dense, embedding, lstm, attention) -> Seq2SeqModel:
    """The architecture: each layer made by the constructor of its kind from
    its sizes, ``dense(in, out)``, ``embedding(vocab, dim)``,
    ``lstm(in, hidden)`` and ``attention(hidden)``, in layer order."""
    h = hyper.hidden
    return Seq2SeqModel(
        hyper=hyper,
        enc_in=dense(hyper.feature_dim, h),
        enc_l1=lstm(h, h),
        enc_l2=lstm(h, h),
        emb=embedding(hyper.num_beams + 1, hyper.embed_dim),
        dec_l1=lstm(hyper.embed_dim, h),
        dec_l2=lstm(h, h),
        att=attention(h),
        out=dense(h, hyper.num_beams),
    )


def init_model(hyper: Seq2SeqHyper, seed: int) -> Seq2SeqModel:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _TAG_INIT]))
    return _build_model(
        hyper,
        dense=lambda d, o: nn.init_dense(rng, d, o),
        embedding=lambda v, d: nn.init_embedding(rng, v, d),
        lstm=lambda d, h: nn.init_lstm(rng, d, h),
        attention=lambda h: nn.init_attention(rng, h),
    )


def _empty_model(hyper: Seq2SeqHyper) -> Seq2SeqModel:
    """A model of ``init_model``'s shapes whose tensors are uninitialized, for
    a checkpoint to fill: at paper size it skips ~2.2M uniform draws."""
    e = np.empty
    return _build_model(
        hyper,
        dense=lambda d, o: DenseParams(weight=e((o, d)), bias=e(o)),
        embedding=lambda v, d: EmbeddingParams(table=e((v, d))),
        lstm=lambda d, h: LSTMParams(wx=e((4 * h, d)), wh=e((4 * h, h)), b=e(4 * h)),
        attention=lambda h: AttentionParams(
            w_score=e((h, h)), w_combine=e((h, 2 * h)), b_combine=e(h)
        ),
    )


# ---------------------------------------------------------------------------
# forward passes, layer by layer (batched internals, single-sample public
# wrappers). Activations between layers are time-major, (S, B, ·).


def _encode_batch(model: Seq2SeqModel, feats: np.ndarray, rng=None):
    hp = model.hyper
    if feats.ndim != 3 or feats.shape[1] != hp.history or feats.shape[2] != hp.feature_dim:
        raise ValueError(
            f"expected features (B, {hp.history}, {hp.feature_dim}), got {feats.shape}"
        )
    b, t, _ = feats.shape
    h = hp.hidden
    rows = feats.reshape(b * t, hp.feature_dim)
    # float32 features are widened to float64, exactly, by this GEMM's promotion
    proj, dense_cache = nn.dense_forward(model.enc_in, rows)
    proj, drop_in_cache = nn.dropout_forward(proj, hp.dropout, rng)
    zeros = np.zeros((b, h))
    out1, c1, cache1 = nn.lstm_sequence_forward(
        model.enc_l1, proj.reshape(b, t, h).transpose(1, 0, 2), zeros, zeros
    )
    del proj  # no LSTM cache holds its input; the backward rebuilds it
    # the final h is copied so that it pins no layer's (T, B, H) output; with
    # dropout on, the layer's output is gone once its dropped copy is made
    h1 = out1[-1].copy()
    mid, drop_cache = nn.dropout_forward(out1, hp.dropout, rng)
    del out1
    out2, c2, cache2 = nn.lstm_sequence_forward(model.enc_l2, mid, zeros, zeros)
    del mid
    output = EncoderOutput(
        states=np.ascontiguousarray(out2.transpose(1, 0, 2)),
        h1=h1, c1=c1, h2=out2[-1].copy(), c2=c2,
    )
    return output, [rows, dense_cache, drop_in_cache, cache1, drop_cache, cache2]


def _encode_backward(model, cache, d_states, d_finals, grads):
    """Backward through ``_encode_batch``, popping each layer's cache as its
    backward runs, so ``enc_l2``'s is gone before ``enc_l1``'s backward.
    Each LSTM layer's input is rebuilt just before its backward, from the
    caches below it: ``enc_l2``'s from ``enc_l1``'s states and the dropout
    mask, ``enc_l1``'s from the feature rows, the input projection and the
    input dropout mask.

    ``d_states`` is the top layer's output gradient (B, T, H), the one entry
    of a list that is emptied once its time-major copy is formed."""
    d_out = d_states.pop().transpose(1, 0, 2).copy()
    t, b, h = d_out.shape
    dh1, dc1, dh2, dc2 = d_finals
    d_out[-1] += dh2
    cache2 = cache.pop()
    mid = nn.dropout_apply(cache[-1], nn.lstm_states(cache[-2]))
    grads["enc_l2"], d_out, _, _ = nn.lstm_sequence_backward(cache2, d_out, dc2, mid)
    del mid
    d_out = nn.dropout_backward(cache.pop(), d_out)
    d_out[-1] += dh1
    cache1 = cache.pop()
    proj = nn.dropout_apply(cache[-1], nn.dense_forward(model.enc_in, cache[0])[0])
    grads["enc_l1"], dx, _, _ = nn.lstm_sequence_backward(
        cache1, d_out, dc1, proj.reshape(b, t, h).transpose(1, 0, 2)
    )
    del d_out, proj
    flat = nn.dropout_backward(cache.pop(), dx.transpose(1, 0, 2).reshape(b * t, h))
    grads["enc_in"], _ = nn.dense_backward(cache.pop(), flat)


def _decode_teacher_batch(model: Seq2SeqModel, enc: EncoderOutput, targets: np.ndarray, rng=None):
    """Embedding, ``dec_l1``, dropout, ``dec_l2``, attention and the output
    projection over the K teacher tokens, which are the start token and then
    every target but the last; returns (logits (B, K, X), cache).

    Attention output feeds only ``out``, never the next step's input, so the
    recurrences are the only step-by-step work: each layer runs once over all K.
    """
    hp = model.hyper
    b, k_steps = targets.shape
    if k_steps != hp.horizon:
        raise ValueError(f"expected {hp.horizon} target slots, got {k_steps}")
    if np.any(targets < 0) or np.any(targets >= hp.num_beams):
        raise ValueError("target label out of range")
    tokens = np.vstack([np.full(b, hp.start_token, dtype=np.int64), targets[:, :-1].T])
    tokens = tokens.reshape(-1)
    embedded, ecache = nn.embedding_forward(model.emb, tokens)
    # embedded goes when this function returns, not after dec_l1's forward:
    # freed there, it left a hole in the heap that raised the peak resident
    # set of a paper-shape training step by 4 MB (glibc, x86_64)
    out1, _, cache1 = nn.lstm_sequence_forward(
        model.dec_l1, embedded.reshape(k_steps, b, -1), enc.h1, enc.c1
    )
    mid, drop_cache = nn.dropout_forward(out1, hp.dropout, rng)
    del out1  # with dropout on, dec_l2 reads the dropped copy alone
    out2, _, cache2 = nn.lstm_sequence_forward(model.dec_l2, mid, enc.h2, enc.c2)
    del mid
    # the attention's batch-major queries; dec_l2's time-major output is gone
    # before the attention runs
    query = np.ascontiguousarray(out2.transpose(1, 0, 2))
    del out2
    _, combined, acache = nn.attention_sequence_forward(model.att, query, enc.states)
    logits, ocache = nn.dense_forward(model.out, combined.reshape(b * k_steps, hp.hidden))
    cache = [tokens, ecache, cache1, drop_cache, cache2, acache, ocache]
    return logits.reshape(b, k_steps, hp.num_beams), cache


def _decode_backward(model, cache, d_logits, grads):
    """Backward through ``_decode_teacher_batch`` from zero gradients on the
    decoder's final states; returns (d_enc_states, encoder final grads).

    Each layer's cache is popped as its backward runs, output projection
    first, so a layer's activations are gone before the layer below runs.
    Each LSTM layer's input is rebuilt just before its backward: ``dec_l2``'s
    from ``dec_l1``'s states and the dropout mask, ``dec_l1``'s as the
    embedding rows of the teacher tokens.
    ``d_logits`` (B, K, X) is the one entry of a list, emptied as the output
    projection's backward reads it, so it is gone once that backward returns.
    """
    b, s, x = d_logits[0].shape
    grads["out"], d_comb = nn.dense_backward(cache.pop(), d_logits.pop().reshape(b * s, x))
    # handed over in a list, so that the attention backward can drop it once
    # it has folded it into dz
    d_comb = [d_comb.reshape(b, s, -1)]
    grads["att"], d_query, d_enc_states = nn.attention_sequence_backward(cache.pop(), d_comb)
    zeros = np.zeros((b, model.hyper.hidden))
    cache2 = cache.pop()
    mid = nn.dropout_apply(cache[-1], nn.lstm_states(cache[-2]))
    grads["dec_l2"], d_mid, dh2, dc2 = nn.lstm_sequence_backward(
        cache2, d_query.transpose(1, 0, 2), zeros, mid
    )
    del d_query, mid
    d_mid = nn.dropout_backward(cache.pop(), d_mid)
    cache1 = cache.pop()
    embedded = nn.embedding_forward(model.emb, cache[0])[0].reshape(s, b, -1)
    grads["dec_l1"], d_emb, dh1, dc1 = nn.lstm_sequence_backward(cache1, d_mid, zeros, embedded)
    del d_mid, embedded
    grads["emb"] = nn.embedding_backward(cache.pop(), d_emb.reshape(s * b, -1))
    return d_enc_states, (dh1, dc1, dh2, dc2)


def _decode_greedy_batch(model: Seq2SeqModel, enc: EncoderOutput):
    """Autoregressive decoding of ``hyper.horizon`` steps, one at a time,
    fed back its own argmax.

    A step reads only the weights that act on the step's state: ``dec_l1``'s
    recurrence is fed rows of its input products for the whole vocabulary,
    formed once per call, and the attention memory is projected once per
    encoding. No dropout runs at inference.

    Both layers step through ``nn.lstm_step`` on buffers allocated once per
    call: each layer's (K+1, B, H) h stack, whose row 0 is the encoder's
    final h and whose row k+1 is step k's output, its c, its (B, 4H) gate
    row, and one (B, H) scratch. The h stacks are checked for non-finite
    values once, after the last step (``NumericError``).
    """
    hp = model.hyper
    b, hid = enc.h1.shape
    l1, l2 = model.dec_l1, model.dec_l2
    dtype = l1.wh.dtype
    token_gates = nn.lstm_input_product(l1, model.emb.table)
    memory = nn.attention_memory_forward(model.att, enc.states)
    h1 = np.empty((hp.horizon + 1, b, hid), dtype)
    h2 = np.empty_like(h1)
    h1[0], h2[0] = enc.h1, enc.h2
    c1, c2 = enc.c1.astype(dtype), enc.c2.astype(dtype)
    a1 = np.empty((b, 4 * hid), dtype)
    a2 = np.empty_like(a1)
    tc = np.empty((b, hid), dtype)
    wh1_t, wx2_t, wh2_t = l1.wh.T, l2.wx.T, l2.wh.T
    tokens = np.full(b, hp.start_token)
    labels = np.empty((b, hp.horizon), dtype=np.int64)
    for k in range(hp.horizon):
        np.take(token_gates, tokens, axis=0, out=a1)
        nn.lstm_step(wh1_t, a1, h1[k], c1, tc, h1[k + 1])
        np.matmul(h1[k + 1], wx2_t, out=a2)
        a2 += l2.b
        nn.lstm_step(wh2_t, a2, h2[k], c2, tc, h2[k + 1])
        _, combined = nn.attention_attend_forward(model.att, memory, h2[k + 1][:, None])
        logits, _ = nn.dense_forward(model.out, combined[:, 0])
        labels[:, k] = tokens = np.argmax(logits, axis=1)
    if not (np.all(np.isfinite(h1)) and np.all(np.isfinite(h2))):
        raise NumericError("non-finite LSTM activation")
    return labels


def encode(model: Seq2SeqModel, features: np.ndarray) -> EncoderOutput:
    """Inference-mode encoding of one (T, F) standardized feature matrix."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise ValueError(f"expected a (T, F) matrix, got shape {features.shape}")
    enc, _ = _encode_batch(model, features[None, :, :])
    return enc


def decode_greedy(model: Seq2SeqModel, enc: EncoderOutput):
    """Autoregressive argmax decoding: (K,) predicted beam labels."""
    return _decode_greedy_batch(model, enc)[0]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("batch_size", 1), ("max_epochs", 0), ("patience", 1)):
            value = getattr(self, name)
            if not is_int(value, least):
                raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass
class TrainState:
    """Everything needed to resume training mid-run deterministically.

    ``live_params`` are the weights the optimizer reached at the end of the
    last epoch run; the Adam moments and RNG state belong to them, so training
    resumes from them. ``best_params`` are the weights of the epoch with the
    lowest validation loss, which ``train`` returns in the model. Until an
    epoch has set them (in a run that ran no epoch, or whose every validation
    loss was inf), they are a copy of the live weights.
    """

    adam: AdamState
    rng_state: dict
    next_epoch: int
    best_val_loss: float
    epochs_since_best: int
    best_params: dict[str, np.ndarray]
    live_params: dict[str, np.ndarray]


def _score_teacher_forced(model, feats, targets, rng):
    """Teacher-forced forward and cross-entropy over one batch, with dropout
    iff ``rng`` is given. Returns (per-token losses (B*K,), count of tokens
    whose argmax is the target, the losses' gradient on the logits (B*K, X),
    caches).
    """
    enc, enc_cache = _encode_batch(model, feats, rng)
    logits, dec_cache = _decode_teacher_batch(model, enc, targets, rng)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    losses, d_flat = nn.softmax_cross_entropy_batch(flat_logits, flat_targets)
    correct = int(np.sum(np.argmax(flat_logits, axis=1) == flat_targets))
    return losses, correct, d_flat, (enc_cache, dec_cache)


def _batch_forward_backward(model, feats, targets, rng):
    """One teacher-forced training step; returns loss, accuracy, grads."""
    losses, correct, d_flat, (enc_cache, dec_cache) = _score_teacher_forced(
        model, feats, targets, rng
    )
    d_flat /= losses.size
    # each gradient is handed over in a list, so that its backward can drop it
    # once read: the logits' after the output projection's backward, the
    # encoder states' once their time-major copy is formed
    d_logits = [d_flat.reshape(*targets.shape, -1)]
    del d_flat
    grads: dict = {}
    d_enc_states, d_finals = _decode_backward(model, dec_cache, d_logits, grads)
    d_enc_states = [d_enc_states]
    _encode_backward(model, enc_cache, d_enc_states, d_finals, grads)
    return float(losses.mean()), correct / losses.size, grads


def _evaluate_teacher_forced(model, dataset, windows, batch_size):
    """Inference-mode loss/accuracy over the dataset's windows at positions
    ``windows``, ``batch_size`` windows at a time, each batch gathered from
    the dataset's table, so that validation holds no more than a training
    batch does."""
    n = len(windows)
    if n == 0:
        return float("nan"), float("nan")
    total_loss = 0.0
    total_correct = 0
    for lo in range(0, n, batch_size):
        # [:2] lets go of the caches before the next batch runs
        losses, correct = _score_teacher_forced(
            model, *dataset.batch(windows[lo : lo + batch_size]), None
        )[:2]
        total_loss += float(losses.sum())
        total_correct += correct
    tokens = n * model.hyper.horizon
    return total_loss / tokens, total_correct / tokens


def train(
    model: Seq2SeqModel,
    dataset: Dataset,
    config: TrainConfig,
    state: TrainState | None = None,
):
    """Shuffled mini-batch teacher-forced training with gradient clipping to
    ``CLIP_NORM``, Adam, and validation-loss early stopping.

    Returns (model-with-best-params, history, final TrainState). ``state``
    resumes a prior run exactly: training starts from ``state.live_params``
    (not from the weights ``model`` holds, which after a prior ``train`` are
    the best ones) with its optimizer moments, RNG stream and counters. Before
    restoring the best weights into ``model``, ``train`` records the live
    ones in the returned state, so ``train(model, ..., state=state)`` continues
    the run as if it had never stopped.

    Each batch is gathered from the dataset's table as it is drawn, with one
    ``np.take`` for its features and one for its labels, so that training
    holds no copy of a split's features beyond the batch in use.
    """
    train_windows = dataset.windows_in("train")
    val_windows = dataset.windows_in("val")
    if not train_windows.size:
        raise ValueError("dataset has no train-split samples")

    named = model.named_params()
    if state is None:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), _TAG_TRAIN])
        )
        state = TrainState(
            adam=nn.adam_init(named),
            rng_state=rng.bit_generator.state,
            next_epoch=0,
            best_val_loss=float("inf"),
            epochs_since_best=0,
            best_params={},  # the first epoch sets them
            live_params={},
        )
    else:
        for key, value in state.live_params.items():
            named[key][...] = value
    rng = np.random.default_rng()
    rng.bit_generator.state = state.rng_state

    n = train_windows.size
    history: list[dict] = []
    for epoch in range(state.next_epoch, config.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0.0
        clip_events = 0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, acc, grads = _batch_forward_backward(
                model, *dataset.batch(train_windows[batch]), rng
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
            _, clipped = nn.clip_global_norm(grad_dict, CLIP_NORM)
            clip_events += int(clipped)
            nn.adam_step(named, grad_dict, state.adam)
            del grads, grad_dict  # not held through the next batch
            epoch_loss += loss * len(batch)
            epoch_correct += acc * len(batch)
        train_loss = epoch_loss / n
        train_acc = epoch_correct / n
        if val_windows.size:
            val_loss, val_acc = _evaluate_teacher_forced(
                model, dataset, val_windows, config.batch_size
            )
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
        if state.epochs_since_best >= config.patience:
            break
    state.live_params = {k: v.copy() for k, v in named.items()}
    if not state.best_params:
        state.best_params = {k: v.copy() for k, v in named.items()}
    for key, value in state.best_params.items():
        named[key][...] = value
    return model, history, state


def write_history(path, history: list[dict], provenance: str = "") -> None:
    """Write the per-epoch history as CSV, replacing ``path`` atomically.

    ``provenance`` becomes one ``#`` comment line above the header, so it may
    not hold a line break; one raises ``ValueError`` before the file is opened.
    """
    if "\n" in provenance or "\r" in provenance:
        raise ValueError(f"provenance {provenance!r} holds a line break")
    with atomic_write(path) as fh:
        if provenance:
            fh.write(f"# {provenance}\n".encode())
        fh.write(b"epoch,train_loss,val_loss,train_acc,val_acc,clip_events\n")
        for row in history:
            fh.write(
                f"{row['epoch']},{row['train_loss']!r},{row['val_loss']!r},"
                f"{row['train_acc']!r},{row['val_acc']!r},{row['clip_events']}\n".encode()
            )


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, model: Seq2SeqModel) -> None:
    tensors = list(model.named_params().items())
    nn.save_tensors(path, tensors, {"kind": "seq2seq", "hyper": asdict(model.hyper)})


def _model_for(meta: dict, tensors: dict[str, np.ndarray], prefixes: tuple[str, ...]):
    """An uninitialized model of the file's architecture, for the caller to
    fill from the file, after checking that the file holds exactly one tensor
    per parameter and prefix, each of the right shape."""
    try:
        hyper = Seq2SeqHyper(**meta["hyper"])
    except (KeyError, TypeError) as exc:
        raise nn.CheckpointError(f"bad hyperparameter block: {exc!r}") from exc
    except ValueError as exc:
        raise nn.CheckpointError(str(exc)) from exc
    model = _empty_model(hyper)
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


def save_train_state(path, model: Seq2SeqModel, state: TrainState):
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
        "adam": {"t": state.adam.t},
        "rng_state": json.dumps(state.rng_state),
        "next_epoch": state.next_epoch,
        "best_val_loss": state.best_val_loss,
        "epochs_since_best": state.epochs_since_best,
    }
    nn.save_tensors(path, tensors, meta)


def load_train_state(path) -> tuple[Seq2SeqModel, TrainState, dict]:
    """Read a ``save_train_state`` file. The returned ``(model, state)`` is a
    resume point: ``model`` holds the live weights, and
    ``train(model, ..., state=state)`` continues the run. A missing, extra or
    misshapen tensor, and a missing or ill-typed counter or RNG state, raise
    ``CheckpointError``. Adam keys other than ``t``, such as the ``alpha``,
    ``beta1``, ``beta2`` and ``eps`` that older files hold, are ignored."""
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
        t = meta["adam"]["t"]
        counters = {k: meta[k] for k in ("next_epoch", "best_val_loss", "epochs_since_best")}
        rng_state = json.loads(meta["rng_state"])
        np.random.PCG64().state = rng_state  # as ``train`` will
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise nn.CheckpointError(f"bad training-state metadata: {exc!r}") from exc
    loss = counters["best_val_loss"]
    for name, value, ok in (
        ("adam.t", t, is_int(t, 0)),
        ("next_epoch", counters["next_epoch"], is_int(counters["next_epoch"], 0)),
        ("epochs_since_best", counters["epochs_since_best"],
         is_int(counters["epochs_since_best"], 0)),
        ("best_val_loss", loss, is_real(loss) and not math.isnan(loss)),
    ):
        if not ok:
            raise nn.CheckpointError(f"bad training-state metadata {name}={value!r}")
    state = TrainState(
        adam=AdamState(
            m={k: tensors[f"adam_m.{k}"] for k in named},
            v={k: tensors[f"adam_v.{k}"] for k in named},
            t=t,
        ),
        rng_state=rng_state,
        **counters,
        best_params={k: tensors[f"best.{k}"] for k in named},
        live_params={k: tensors[k] for k in named},
    )
    return model, state, meta
