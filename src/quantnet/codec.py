"""Finite-level quantizer and the zooming-in difference codec's settings.

Each node transmits only the quantized, scaled innovation of its state:
with predictor b_j and scale s, node j sends q = Q_K((x_j - b_j) / s) and
both ends integrate the same symbol, b_j <- s q + b_j at the sender and
xhat_ij <- s q + xhat_ij at every receiver i. Started from zero and
without noise, every decoder equals its sender's predictor bit for bit,
damped or not.

:func:`quantize_vec` is the one vectorized quantizer: the solver's round
kernel (``solver.iter_rounds``) and the matrix-form oracle both call it.
It returns the levels as integer-valued float64, which the kernel scales
without a cast. :func:`quantize` is its scalar reference.
:class:`NoiseModel` configures the damped variant, b <- s q + d b (and
likewise xhat), with initialization errors and additive round-off noise
that model imperfect digital hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerSpec",
    "NoiseModel",
    "quantize",
    "quantize_vec",
]


@dataclass(frozen=True)
class QuantizerSpec:
    """Symmetric uniform quantizer with alphabet {-K, ..., 0, ..., K}."""

    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")

    @property
    def bits_per_coord(self) -> int:
        return max(1, math.ceil(math.log2(2 * self.K)))


def quantize(zval: float, K: int) -> int:
    """Uniform quantizer: nearest integer in [-K, K], ties toward zero.

    Level 0 covers [-1/2, 1/2]; level i covers ((2i-1)/2, (2i+1)/2] for
    i = 1..K; inputs beyond (2K+1)/2 saturate to K. Negative inputs map by
    odd symmetry.
    """
    if not np.isfinite(zval):
        raise ValueError("quantizer input must be finite")
    if K < 1:
        raise ValueError("K must be at least 1")
    if zval < 0:
        return -quantize(-zval, K)
    i = math.ceil(zval - 0.5)
    return min(i, K)


# max_last_axis reduces column by column from this many rows per column
# (rows >= 8 m) on. Measured on 2 cores, numpy 2.4, rows x m float64
# arrays: np.maximum.reduce over the last axis runs one inner loop per row
# (40 us at 1000 x 3), m - 1 whole-column np.maximum calls cost about
# 0.5-1.2 us each (3 us at 1000 x 3). Column-wise broke even at about
# 4 m rows for m = 2, 6 m for m = 3 and 10-12 m for m = 5 to 12, and is
# at most 1.3x slower (about 1 us) at 8 m.
_COLUMNWISE_ROWS_PER_COLUMN = 8


def max_last_axis(a: np.ndarray) -> np.ndarray:
    """The largest entry along the last axis of an array with no negative
    entries: the bits of ``np.maximum.reduce(a, axis=-1, initial=0.0)``.

    Max is exact, so the two ways of computing it agree bit for bit, nan
    included. With m the length of the last axis and rows the product of
    the others, the reduction runs as m - 1 whole-column ``np.maximum``
    calls when rows >= 8 m, and as the reduce over the axis otherwise
    (``_COLUMNWISE_ROWS_PER_COLUMN`` holds the measured rule).
    """
    m = a.shape[-1]
    if m == 0 or a.size < _COLUMNWISE_ROWS_PER_COLUMN * m * m:
        return np.maximum.reduce(a, axis=-1, initial=0.0)
    out = a[..., 0].copy()
    for j in range(1, m):
        np.maximum(out, a[..., j], out=out)
    return out


def quantize_vec(v: np.ndarray, K: int) -> tuple:
    """Componentwise quantizer. Returns (levels, peaks).

    ``levels`` are the symbols of :func:`quantize` as integer-valued
    float64, computed as copysign(min(ceil(|v| - 1/2), K), v), so a caller
    scales them without an integer-to-float cast. ``peaks`` holds the
    largest |v| along the last axis: one per node for the kernel's (N, m)
    input, a scalar for a stacked vector. They come from
    :func:`max_last_axis`, so an (N, m) input with N >= 8 m takes the peaks
    column by column, and a smaller one or a stacked vector reduces over
    the axis; column-wise was measured to break even at N between 4 m
    (m = 2) and 12 m (m = 5 to 12). An input saturates exactly when its
    peak exceeds K + 1/2.
    Raises ``ValueError`` when an input is not finite, which is how a
    diverging or underflowing run stops.
    """
    v = np.asarray(v, dtype=float)
    if K < 1:
        raise ValueError("K must be at least 1")
    mag = np.abs(v)
    peaks = max_last_axis(mag)
    # nan or inf for a non-finite input
    if not math.isfinite(np.maximum.reduce(peaks, axis=None, initial=0.0)):
        raise ValueError("quantizer input must be finite")
    mag -= 0.5
    np.ceil(mag, out=mag)
    np.minimum(mag, K, out=mag)
    return np.copysign(mag, v, out=mag), peaks


@dataclass(frozen=True)
class NoiseModel:
    """Damping and noise configuration for the robust codec variant.

    ``damping = 1`` with both noise sources disabled reproduces the ideal
    codec exactly.
    """

    damping: float = 1.0
    init_error_range: tuple = (0.0, 0.0)
    roundoff_amp: float = 0.0
    seed: int = 0
    init_errors_enabled: bool = False
    roundoff_enabled: bool = False

    def __post_init__(self):
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        if self.roundoff_amp < 0.0:
            raise ValueError("roundoff_amp must be nonnegative")

    def is_ideal(self) -> bool:
        return (self.damping == 1.0 and not self.init_errors_enabled
                and not self.roundoff_enabled)
