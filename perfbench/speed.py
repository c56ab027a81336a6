"""Reference kernels that gauge the host's current speed between steps.

On shared hosts the speed of one core drifts by up to a factor of two
within minutes, and the drift reaches interpreter-bound code and BLAS code
differently. The benchmark therefore times two fixed kernels, which live
here and never change with the library, right before and after every step
of a pass. Each workload is corrected by the kernel whose drift follows
its own (``fit_gauge.py`` shows which one that is): a step's speed factor
is that kernel's time over its nominal time, and a step's time in
reference seconds is its measured time divided by that factor.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# 10th percentile of each kernel's time over about 2,000 single readings
# inside benchmark runs on a 2-core Xeon (Python 3.11, numpy 2.4, one BLAS
# thread); it only sets the scale of reference seconds
NOMINAL_S = {"dispatch": 0.0034, "blas": 0.0087}

_H = np.linspace(-1.0, 1.0, 10).reshape(5, 2)
_Z = np.linspace(0.0, 1.0, 5)
_A = np.random.default_rng(0).standard_normal((400, 400))
_A = _A + _A.T


def _dispatch() -> float:
    """Small-array numpy calls in a Python loop, like one solver round."""
    x = np.zeros((5, 2))
    b = np.zeros((5, 2))
    out = 0.0
    for _ in range(250):
        grad = (np.einsum("ij,ij->i", _H, x) - _Z)[:, None] * _H
        x = x - 0.01 * grad + 0.001 * (b - x)
        arg = (x - b) / 0.5
        q = np.sign(arg) * np.minimum(np.maximum(np.ceil(np.abs(arg) - 0.5),
                                                 0.0), 100)
        b = 0.5 * q + b
        out += float(np.linalg.norm(x))
    return out


def _blas() -> float:
    return float(np.linalg.eigvalsh(_A)[0])


def gauge() -> dict:
    """Seconds each reference kernel takes right now.

    The lesser of two timings: the first call after a step often runs on a
    cold cache, and a single reading catches short spikes.
    """
    out = {}
    for name, fn in (("dispatch", _dispatch), ("blas", _blas)):
        times = []
        for _ in range(2):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        out[name] = min(times)
    return out


def factor(before: dict, after: dict, kernel: str) -> float:
    """Speed factor of a step from the gauges on both sides of it."""
    return (before[kernel] + after[kernel]) / (2.0 * NOMINAL_S[kernel])
