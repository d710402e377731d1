"""Minimal neural-network kernel with hand-written backward passes.

Everything operates on float64 numpy arrays with a leading batch dimension.
Forward functions return ``(output..., cache)``; the matching backward
function consumes the cache and upstream gradients and returns exact analytic
gradients for parameters and inputs.

The recurrent and attention layers work on whole sequences so that a model
can run layer by layer, and each splits into the part that reads a step's
input and the part that steps. ``lstm_input_product`` forms ``x W_xᵀ + b``,
bias included, as one GEMM over all S*B rows; ``lstm_recurrence`` then adds
only ``h W_hᵀ`` per step. ``lstm_sequence_forward`` runs the two, and its
backward does the weight and input gradients as one GEMM each over all S*B
rows. A greedy decoder instead feeds the recurrence rows of an input-product
table with one row per token.

Attention uses the general score qᵀ W_score h_t. ``attention_memory_forward``
projects the encoder states once per encoding into keys ``W_score h_t`` and
values ``W_c h_t`` (W_c the context half of the combine layer);
``attention_attend_forward`` attends from K queries at once with batched
matmuls over that memory. ``attention_sequence_forward`` runs the two. This
fits a decoder without input feeding, whose layer inputs do not depend on the
previous step's attention output. ``lstm_cell_*`` and ``attention_forward`` /
``attention_backward`` are the S = 1 and K = 1 slices of the sequence forms.
"""

from .layers import (
    NumericError,
    DenseParams,
    EmbeddingParams,
    LSTMParams,
    AttentionParams,
    dense_forward,
    dense_backward,
    embedding_forward,
    embedding_backward,
    lstm_input_product,
    lstm_recurrence,
    lstm_sequence_forward,
    lstm_sequence_backward,
    lstm_cell_forward,
    lstm_cell_backward,
    attention_memory_forward,
    attention_memory_backward,
    attention_attend_forward,
    attention_attend_backward,
    attention_sequence_forward,
    attention_sequence_backward,
    attention_forward,
    attention_backward,
    dropout_forward,
    dropout_backward,
    softmax,
    softmax_cross_entropy_batch,
    init_dense,
    init_embedding,
    init_lstm,
    init_attention,
    params_items,
    zeros_like_params,
    accumulate_params,
)
from .optim import AdamState, adam_init, adam_step, clip_global_norm
from .gradcheck import finite_diff_check
from .checkpoint import CheckpointError, save_tensors, load_tensors

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
    "lstm_sequence_forward",
    "lstm_sequence_backward",
    "lstm_cell_forward",
    "lstm_cell_backward",
    "attention_memory_forward",
    "attention_memory_backward",
    "attention_attend_forward",
    "attention_attend_backward",
    "attention_sequence_forward",
    "attention_sequence_backward",
    "attention_forward",
    "attention_backward",
    "dropout_forward",
    "dropout_backward",
    "softmax",
    "softmax_cross_entropy_batch",
    "init_dense",
    "init_embedding",
    "init_lstm",
    "init_attention",
    "params_items",
    "zeros_like_params",
    "accumulate_params",
    "AdamState",
    "adam_init",
    "adam_step",
    "clip_global_norm",
    "finite_diff_check",
    "CheckpointError",
    "save_tensors",
    "load_tensors",
]
