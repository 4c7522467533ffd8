"""Numerically stable scalar building blocks used throughout the package.

Everything here accepts scalars or numpy arrays and is careful about the
regimes where the naive formulas lose precision (deep Gaussian tails,
entropies of near-degenerate probabilities).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: argument must be finite, got {x!r}")
    return arr


def _maybe_scalar(out, x):
    if np.isscalar(x) or getattr(x, "ndim", None) == 0:
        return float(out)
    return out


def gaussian_q(x):
    """Upper-tail probability of a standard normal, Q(x) = P(Z > x).

    Evaluated through the complementary error function so the right tail
    keeps full relative precision instead of cancelling against 1; Q(37)
    is still a normal double (~1e-300), and relative error stays at the
    erfc level (<< 1e-12) for moderate arguments.
    """
    arr = _as_float_array(x, "gaussian_q")
    out = 0.5 * _sp.erfc(arr / _SQRT2)
    return _maybe_scalar(out, x)


def binary_entropy(p):
    """Entropy of a Bernoulli(p) source in bits, with the 0*log(0) = 0 convention."""
    arr = _as_float_array(p, "binary_entropy")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"binary_entropy: probability outside [0, 1]: {p!r}")
    out = -(_sp.xlogy(arr, arr) + _sp.xlogy(1.0 - arr, 1.0 - arr)) / LN2
    return _maybe_scalar(out, p)


def hq_of_sqrt(y):
    """Binary entropy of the Gaussian tail at sqrt(y): h(Q(sqrt(y))), in bits.

    This is the hard-decision entropy penalty of a one-bit quantizer as a
    function of the SNR y; it shows up when proving that penalty is convex.
    """
    arr = _as_float_array(y, "hq_of_sqrt")
    if np.any(arr < 0.0):
        raise ValueError(f"hq_of_sqrt: argument must be >= 0, got {y!r}")
    out = binary_entropy(gaussian_q(np.sqrt(arr)))
    return _maybe_scalar(out, y)


def convexity_witness(y):
    """Witness expression certifying convexity of hq_of_sqrt for y > 2.

    Computes (1 - 1/y) * (1 - Q(sqrt(y))) * ln((1 - Q(sqrt(y))) / Q(sqrt(y))).
    The second derivative of hq_of_sqrt is positive wherever this
    expression exceeds 1; it is increasing in y and crosses 1 below y = 2.
    The condition is sufficient, not necessary: at y = 1.05 the witness is
    0.069, yet the second derivative is +0.13.  Only defined for y > 1 (the
    leading factor changes sign at y = 1).
    """
    arr = _as_float_array(y, "convexity_witness")
    if np.any(arr <= 1.0):
        raise ValueError(f"convexity_witness: argument must be > 1, got {y!r}")
    q = gaussian_q(np.sqrt(arr))
    # log((1-q)/q) = log1p(-q) - log(q), stable when q is tiny
    out = (1.0 - 1.0 / arr) * (1.0 - q) * (np.log1p(-q) - np.log(q))
    return _maybe_scalar(out, y)


def second_derivative_scan(f, grid):
    """Central second differences (f(y-s) - 2 f(y) + f(y+s)) / s^2 over a grid,
    with s = 1e-4.

    f is called three times, each on the whole array of shifted points, so
    it must accept numpy arrays elementwise (every function of this module
    does).  The caller is responsible for keeping every grid point at least
    2e-4 away from the boundary of f's domain; domain errors from f
    propagate.
    """
    step = 1e-4
    pts = np.atleast_1d(_as_float_array(grid, "second_derivative_scan"))
    return (f(pts - step) - 2.0 * f(pts) + f(pts + step)) / (step * step)
