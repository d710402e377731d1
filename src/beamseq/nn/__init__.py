"""Minimal neural-network kernel with hand-written backward passes.

Everything operates on numpy arrays with a leading batch dimension, float64
in every model (the LSTM kernels keep the dtype of their parameters).
Forward functions return ``(output..., cache)``; the matching backward
function takes the cache and upstream gradients and returns exact analytic
gradients for parameters and inputs. The attention's inference pieces,
which no backward follows, return no cache.

A backward consumes its cache. The cache is a list that the backward empties
on entry, so that its locals hold the cached buffers alone: each buffer is
dropped after its last read, and some are overwritten with gradients (the
LSTM gate activations with dz, the attention output with its pre-tanh
gradient). The attention backward takes its upstream gradient the same way,
as the one entry of a list that it empties, and drops the gradient once it
has folded it into dz. Call a backward once per forward, and run the backward
of a layer whose output another layer reads only after that layer's
backward. A model releases its caches in reverse layer order, each as its
layer's backward runs, so a step holds only what the backward still has to
read. Two functions read a cache without consuming it, ``lstm_states`` and
``dropout_apply``: a model calls them on a layer's cache, before that
layer's own backward, to rebuild the input of the layer above.

The recurrent and attention layers work on whole sequences so that a model
can run layer by layer, and each splits into the part that reads a step's
input and the part that steps. ``lstm_input_product`` forms ``x W_xᵀ + b``,
bias included, as one GEMM over all S*B rows; ``lstm_recurrence`` then adds
only ``h W_hᵀ`` per step. ``lstm_sequence_forward`` runs the two, and its
backward does the weight and input gradients as one GEMM each over all S*B
rows. The LSTM cache holds the gate activations and the initial state
(h0, c0): no input, and no h, c or tanh(c) stack. The caller passes the
layer's input x to ``lstm_sequence_backward`` again, since the layer below
can rebuild it for a fraction of a step. The backward pass first rebuilds the
c stack from c0 and the gates, then recomputes tanh(c) and h = o*tanh(c) one
step at a time, each with the forward's ufuncs in its order, so every value
and gradient equals that of a cached stack bit for bit. Each h is written
over the c row that no later step reads, so the two rebuilt stacks share one
(S+1, B, H) buffer, which is dropped once the ``wh`` gradient is formed and
before x is read. An elementwise sweep per layer, and no GEMM, replaces two
(S+1, B, H) cached stacks per layer. ``lstm_states`` runs the same sweep on
a cache it leaves intact and returns the layer's h outputs.

Every path that steps goes through one in-place kernel, ``lstm_step``. It
adds ``h W_hᵀ`` to the step's input products, turns them into the gate
activations with one ``np.tanh`` over the whole row, updates c in place and
writes h into a buffer the caller gives. It allocates nothing but the
product and checks nothing: ``lstm_recurrence`` loops it over a sequence on
buffers it allocates once per call and checks its output once, and a greedy
decoder calls it for both of its layers on buffers allocated once per
decode, fed from an input-product table with one row per token, and checks
its h stacks once, after the last step. The c update and the h emit that end
the step are the two helpers the backward's rebuild runs, so a rebuilt value
equals the forward's by construction. The LSTM buffers take the dtype of the
parameters.

Attention uses the general score qᵀ W_score h_t over keys ``W_score h_t``
and values ``W_c h_t`` (W_c the context half of the combine layer), each one
GEMM over the B*T encoder states. For inference,
``attention_memory_forward`` projects them once per encoding and
``attention_attend_forward`` attends from K queries at once with batched
matmuls over that memory. For training, ``attention_sequence_forward`` forms
the keys, takes the scores and drops the keys before it forms the values,
and caches the encoder states instead of either; its backward rebuilds each
projection just before its one read. This fits a decoder without input
feeding, whose layer inputs do not depend on the previous step's attention
output. Attention returns the weights and the combined output
``tanh(W_c [context; q] + b)``, never the context itself.
``lstm_cell_*`` and ``attention_forward`` / ``attention_backward`` are the
S = 1 and K = 1 slices of the sequence forms. No model calls them; they stay
because the benchmark's tracer (``perfbench/tracer.py``) wraps them by name.

Dropout, and so the training mode of every forward, is on exactly when a
generator is passed: ``rng=None`` is inference. ``dropout_apply`` holds the
one formula, ``x * keep * scale``, that the dropout forward, its backward and
a rebuild of a dropped input apply. Adam's step size, decay
rates and epsilon are the constants ``optim.ALPHA``, ``optim.BETA1``,
``optim.BETA2`` and ``optim.EPS``; none is set per run.
"""

from . import checkpoint, layers, optim
from .checkpoint import *  # noqa: F403
from .layers import *  # noqa: F403
from .optim import *  # noqa: F403

__all__ = [*layers.__all__, *optim.__all__, *checkpoint.__all__]
