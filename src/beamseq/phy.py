"""Uniform-linear-array response, multipath channel synthesis, DFT codebooks,
and the beamforming metrics built on them.

Conventions used throughout:

* angles are azimuth against the array broadside, in radians, restricted to
  [-pi/2, pi/2] (a ULA cannot distinguish front from back);
* antenna spacing is expressed in wavelengths, so the carrier cancels out of
  every phase term;
* the receiver is a single antenna, so a channel is a length-N complex vector
  seen from the base-station array;
* a unit-norm codeword f serves a channel h with received signal strength
  |h^H f|^2 (conjugate-transpose inner product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import is_int

__all__ = [
    "SPEED_OF_LIGHT",
    "OutageError",
    "ArrayGeometry",
    "PathComponent",
    "ChannelSnapshot",
    "Codebook",
    "steering_vector",
    "synthesize_channels",
    "synthesize_channel",
    "build_dft_codebook",
    "best_beams",
    "optimal_beam",
]

SPEED_OF_LIGHT = 299_792_458.0

# Slack for angles that land on +-pi/2 up to floating-point rounding.
_ANGLE_TOL = 1e-9


class OutageError(RuntimeError):
    """Raised when no usable propagation path exists (deep outage)."""


@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array: element count and spacing.

    ``spacing_wavelengths`` is the inter-element distance as a multiple of the
    carrier wavelength (0.5 is the classic half-wavelength ULA).
    """

    num_antennas: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if not is_int(self.num_antennas, 1):
            raise ValueError(f"num_antennas must be an int >= 1, got {self.num_antennas!r}")
        if not (self.spacing_wavelengths > 0):
            raise ValueError(f"spacing must be > 0, got {self.spacing_wavelengths}")


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex gain plus departure/arrival azimuths."""

    gain: complex
    aod: float
    aoa: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gain):
            raise ValueError("path gain must be finite")
        _checked_angles([self.aod, self.aoa])


@dataclass(frozen=True)
class ChannelSnapshot:
    """Downlink channel vector from one BS array to a single-antenna user
    at one time slot."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D vector")
        if not np.all(np.isfinite(coeffs.view(np.float64))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)


@dataclass(frozen=True)
class Codebook:
    """Unit-norm beamforming codewords, stored as columns of ``matrix``."""

    matrix: np.ndarray  # (num_antennas, num_beams) complex

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2:
            raise ValueError("codebook matrix must be 2-D (antennas x beams)")
        if mat.shape[1] < mat.shape[0]:
            raise ValueError(
                f"need at least as many beams as antennas, got {mat.shape[1]} < {mat.shape[0]}"
            )
        norms = np.linalg.norm(mat, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("every codeword must have unit Euclidean norm")
        object.__setattr__(self, "matrix", mat)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_beams(self) -> int:
        return self.matrix.shape[1]


def _checked_angles(angle) -> np.ndarray:
    """``angle`` as float64; raises ValueError unless every entry is finite
    and within [-pi/2, pi/2] (up to ``_ANGLE_TOL``)."""
    angle = np.asarray(angle, dtype=np.float64)
    if not np.all(np.isfinite(angle)):
        raise ValueError("angle must be finite")
    if np.any(np.abs(angle) > math.pi / 2 + _ANGLE_TOL):
        raise ValueError(f"angle={np.abs(angle).max()} outside broadside range [-pi/2, pi/2]")
    return angle


def _scaled_steering(geometry: ArrayGeometry, angle, first) -> np.ndarray:
    """first * a(angle), shape ``(..., N)``, built by doubling the geometric
    progression a_i = z^i, z = exp(j*phi), phi = -2*pi*spacing*sin(angle):
    element 0 is ``first``, and elements [k, k+m) are elements [0, m) times
    exp(j*k*phi), for k = 1, 2, 4, ... and m = min(k, N-k). That is log2(N)
    complex exponentials per angle instead of N.

    Each exp(j*k*phi) is evaluated directly, never by squaring: k*phi is exact
    for a power of two k, so element i is ``first`` times one factor per set
    bit of i. Its rounding error grows with that count (at most log2(N)
    products), on top of the phase rounding any per-element formula has.
    The caller validates ``angle`` (``_checked_angles``).
    """
    n = geometry.num_antennas
    phase = -2.0 * np.pi * geometry.spacing_wavelengths * np.sin(angle)
    out = np.empty(np.broadcast_shapes(angle.shape, np.shape(first)) + (n,), dtype=np.complex128)
    out[..., 0] = first
    k = 1
    while k < n:
        m = min(k, n - k)
        np.multiply(out[..., :m], np.exp(1j * (k * phase))[..., None], out=out[..., k : k + m])
        k *= 2
    return out


def steering_vector(geometry: ArrayGeometry, angle) -> np.ndarray:
    """Phase response of the ULA toward broadside angles of any shape.

    Returns shape ``angle.shape + (N,)``. Element i is
    exp(-j * 2*pi * spacing * i * sin(angle)); element 0 is exactly 1+0j.
    Built by doubling from log2(N) exponentials (``_scaled_steering``); every
    element is within 1e-12 relative of a term-by-term exp per element.
    """
    return _scaled_steering(geometry, _checked_angles(angle), 1.0)


def synthesize_channels(gains, aods, geometry: ArrayGeometry) -> np.ndarray:
    """Superpose P paths per channel, gains and aods (..., P) -> (..., N): each
    adds gain * a(aod) (the single-antenna receiver contributes 1). Every aod
    is validated, zero-gain entries included.

    A slot is *shared* when all its non-zero gains carry one aod. A
    single-bounce scatterer path leaves the BS toward the scatterer, so its
    aod is the same at every receiver point (slots where the path is blocked
    hold gain 0 and aod 0). Shared slots are summed per distinct angle, in
    slot order, so g and -g on one angle cancel exactly, and added as one
    GEMM: the (..., angles) sums times the (angles, N) steering vectors. The
    other slots (line of sight, wall reflections) vary from channel to
    channel; each is one doubling progression started at its gain
    (``_scaled_steering``), added in slot order, so memory stays at one
    (..., N) term and no (..., P, N) array is formed. Slots with no non-zero
    gain add nothing. Against a term-by-term sum the result is within 1e-12
    of the channel's norm."""
    gains = np.asarray(gains, dtype=np.complex128)
    aods = _checked_angles(aods)
    lead, n_slots = gains.shape[:-1], gains.shape[-1]
    rows = math.prod(lead)
    gains, aods = gains.reshape(rows, n_slots), aods.reshape(rows, n_slots)
    # the least and greatest aod among each slot's non-zero gains: equal
    # when the slot is shared, lo > hi when it has no non-zero gain
    live = gains != 0
    lo = np.min(aods, axis=0, initial=np.inf, where=live)
    hi = np.max(aods, axis=0, initial=-np.inf, where=live)
    coeffs = np.zeros((rows, geometry.num_antennas), dtype=np.complex128)
    shared = np.flatnonzero(lo == hi)
    if shared.size:
        angles, which = np.unique(lo[shared], return_inverse=True)
        summed = np.zeros((rows, angles.size), dtype=np.complex128)
        for s, k in zip(shared, which):
            summed[:, k] += gains[:, s]
        np.matmul(summed, _scaled_steering(geometry, angles, 1.0), out=coeffs)
    for s in np.flatnonzero(lo < hi):
        coeffs += _scaled_steering(geometry, aods[:, s], gains[:, s])
    return coeffs.reshape(lead + (geometry.num_antennas,))


def synthesize_channel(paths: list[PathComponent], bs: ArrayGeometry) -> ChannelSnapshot:
    """One channel vector from a path list: the one-row ``synthesize_channels``."""
    if not paths:
        raise OutageError("no propagation path: cannot synthesize a channel")
    gains = np.array([p.gain for p in paths], dtype=np.complex128)
    aods = np.array([p.aod for p in paths])
    return ChannelSnapshot(coefficients=synthesize_channels(gains[None], aods[None], bs)[0])


def build_dft_codebook(num_beams: int, num_antennas: int) -> Codebook:
    """Codebook from the first ``num_antennas`` rows of a ``num_beams``-point
    DFT matrix, one unit-normalized codeword per column.

    Codeword x, element i is (1/sqrt(N)) * exp(-j * 2*pi * i * x / X). The
    truncated columns are constant-modulus, so unit normalization is the
    global 1/sqrt(N) scale.
    """
    if num_beams < num_antennas:
        raise ValueError(
            f"num_beams ({num_beams}) must be >= num_antennas ({num_antennas})"
        )
    i = np.arange(num_antennas)[:, None]
    x = np.arange(num_beams)[None, :]
    mat = np.exp(-2j * np.pi * i * x / num_beams) / math.sqrt(num_antennas)
    return Codebook(matrix=mat)


def best_beams(h, cb: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive search for channels h (..., N): (labels, rss), the codeword
    maximizing |h^H f|^2 (ties to the lowest index) and that maximum."""
    scores = np.abs(np.asarray(h).conj() @ cb.matrix) ** 2
    labels = np.argmax(scores, axis=-1)
    return labels, np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]


def optimal_beam(h, cb: Codebook) -> int:
    """Index of the codeword maximizing |h^H f|^2 for one channel h (N,), ties
    to the lowest index: the one-row ``best_beams``."""
    if np.shape(h) != (cb.num_antennas,):
        raise ValueError(
            f"dimension mismatch: channel of shape {np.shape(h)} vs codebook "
            f"({cb.num_antennas},)"
        )
    hv = np.asarray(h)
    if not np.any(hv):
        raise OutageError("zero channel: optimal beam undefined (outage)")
    return int(best_beams(hv, cb)[0])
