"""Adam optimizer over named float64 arrays, plus global-norm clipping.

Nothing is set per run: the step size, the moment decay rates and the
denominator's epsilon are the usual constants ``ALPHA``, ``BETA1``,
``BETA2`` and ``EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AdamState", "adam_init", "adam_step", "clip_global_norm"]

ALPHA = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment per named parameter and the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def adam_init(named_params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in named_params.items()},
        v={k: np.zeros_like(p) for k, p in named_params.items()},
    )


def adam_step(
    named_params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> None:
    """In-place update: m, v moving averages, bias correction, then
    p -= ALPHA * m_hat / (sqrt(v_hat) + EPS)."""
    if set(named_params) != set(state.m):
        raise ValueError("parameter names do not match optimizer state")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for name, p in named_params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= ALPHA * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float):
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns (norm_before, clipped_flag). Scaling happens in place.
    ``max_norm`` must be finite and > 0.
    """
    if not 0 < max_norm < np.inf:
        raise ValueError(f"max_norm must be finite and > 0, got {max_norm!r}")
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
        return norm, True
    return norm, False
