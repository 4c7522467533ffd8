"""Duality upper bounds on capacity from a fixed output distribution.

For any output pmf R and any gamma >= 0,

    capacity <= sup_x [ D(W(.|x) || R) + gamma * (P - x^2) ],

so minimizing the right-hand side over gamma >= 0 gives a valid upper
bound for each candidate R (Huang & Meyn, IEEE T-IT 2005).  On a fixed
x-grid the objective is a maximum of finitely many affine functions of
gamma — piecewise-linear and convex — and the minimum is found exactly by
locating the breakpoint where the active slope changes sign
(`minimize_max_affine`; the cutting plane certifies its gap with it too).

The tightest R is the optimal input's output law, so the one bound path,
`optimize.duality_upper_bound`, polishes the capacity solve's own support
over continuous x, by Newton on its KKT system (`optimize._kkt_polish`);
`_certified_bound` here certifies that input's output law, for any
quantizer and any R.  It takes gamma from the envelope over a
fixed grid, evaluating only the grid rows that can be active there, and
proves the sup over continuous x at that gamma by branch and bound.  Each
cell's bound is its chord plus a curvature term: the second derivative of
the tilted profile is bounded below from the cell's ends, because the log
ratio of adjacent bins is monotone in x (the Gaussian location family is
totally positive) and the Fisher information of the quantized output,
which only raises it, is dropped.  The values carry a rounding allowance,
and the tails past the grid are bounded in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelSpec,
    OutputPmf,
    _divergences_bits,
    _log_ratios_bits,
    _row_negentropy_bits,
    bin_probability_matrix,
)
from .special import gaussian_q

_ACTIVE_RTOL = 1e-12
_FLAT_SLOPE = np.finfo(float).eps ** 2
_MAX_ROUNDS = 500


class EnvelopeMinimum(NamedTuple):
    gamma: float
    value: float


def minimize_max_affine(intercepts, slopes) -> EnvelopeMinimum:
    """Exact minimum over gamma >= 0 of max_i(intercepts[i] + slopes[i]*gamma).

    The upper envelope of affine functions is convex; its minimizer over the
    half-line is either gamma = 0 or the breakpoint where the active slope
    turns nonnegative.  The breakpoint is located by bisecting on the sign
    of the active slopes and closed exactly by intersecting the two active
    lines, verified against the whole family.
    """
    d = np.asarray(intercepts, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if d.ndim != 1 or d.size == 0 or d.shape != s.shape:
        raise ValueError("intercepts and slopes must be equal-length 1-d arrays")
    if not (np.isfinite(d).all() and np.isfinite(s).all()):
        raise ValueError("intercepts and slopes must be finite")

    vals = np.empty_like(d)

    def probe(g):
        """Envelope value at g; the lines' values at g are left in vals."""
        np.multiply(s, g, out=vals)
        np.add(vals, d, out=vals)
        return float(vals.max())

    def active(values, m):
        """Indices and slopes of the lines whose `values` are within
        tolerance of the envelope value m."""
        atol = _ACTIVE_RTOL * max(1.0, abs(m)) + 1e-300
        idx = (values >= m - atol).nonzero()[0]
        return idx, s[idx]

    # at 0 the lines' values are their intercepts
    m0 = float(d.max())
    idx0, s0 = active(d, m0)
    steep = int(s0.argmax())  # steepest active line at 0
    if s0[steep] >= 0.0:
        return EnvelopeMinimum(0.0, m0)
    if s.max() <= 0.0:
        return _degenerate_minimum(
            d, s, "envelope is decreasing for all gamma; minimum not attained"
        )

    # expand hi until the envelope stops decreasing there
    lo, hi = 0.0, 1.0
    line_lo = int(idx0[steep])
    line_hi = None
    for _ in range(200):
        m_hi = probe(hi)
        idx, act = active(vals, m_hi)
        steep, flat = int(act.argmax()), int(act.argmin())
        if act[steep] < 0.0:  # still strictly decreasing at hi
            lo = hi
            line_lo = int(idx[steep])
            hi *= 4.0
            continue
        if act[flat] <= 0.0:  # zero sits in the subgradient: hi is the minimizer
            return EnvelopeMinimum(hi, m_hi)
        line_hi = int(idx[flat])
        break
    if line_hi is None:
        return _degenerate_minimum(d, s, "failed to bracket the envelope minimum")

    # line_lo always has a negative slope and line_hi a positive one
    for _ in range(_MAX_ROUNDS):
        sa, sb = s[line_lo], s[line_hi]
        da, db = d[line_lo], d[line_hi]
        g_x = (da - db) / (sb - sa)
        g_x = min(max(g_x, lo), hi)
        m_x = probe(g_x)
        pair_val = da + sa * g_x
        atol = _ACTIVE_RTOL * max(1.0, abs(m_x))
        if m_x <= pair_val + atol:
            return EnvelopeMinimum(float(g_x), m_x)
        # a third line is strictly above the candidate pair at g_x
        idx, act = active(vals, m_x)
        steep, flat = int(act.argmax()), int(act.argmin())
        if act[flat] <= 0.0 <= act[steep]:
            return EnvelopeMinimum(float(g_x), m_x)
        if act[steep] < 0.0:
            lo = g_x
            line_lo = int(idx[steep])
        else:
            hi = g_x
            line_hi = int(idx[flat])
    return EnvelopeMinimum(float(lo), probe(lo))


def _power_of_two_below(v):
    """The largest power of two not above max |v|, or 1 where v is all 0."""
    top = float(np.max(np.abs(v)))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0.0 else 1.0


def _degenerate_minimum(d, s, reason):
    """Envelope minimum when no line rises, or when bracketing fails.

    The slopes are first divided by the largest power of two not above their
    largest magnitude, and the search reruns with gamma scaled back; then
    the intercepts likewise, with gamma and the value scaled back.  Both
    divisions are exact short of underflow: tiny slopes, or intercepts far
    larger than the slopes, put the minimum beyond the bracket's reach of
    4^200.  Only then is a slope that moves its line by less than a rounding
    unit of the intercepts for every gamma up to 1/eps taken as flat, and
    the search reruns.  With no rising line, the envelope falls until every
    falling line is below the highest flat one, and stays there.
    """
    unit = _power_of_two_below(s)
    if unit != 1.0:
        found = minimize_max_affine(d, s / unit)
        return EnvelopeMinimum(found.gamma / unit, found.value)
    unit = _power_of_two_below(d)
    if unit != 1.0:
        found = minimize_max_affine(d / unit, s)
        return EnvelopeMinimum(found.gamma * unit, found.value * unit)
    tiny = (s != 0.0) & (np.abs(s) <= _FLAT_SLOPE * max(1.0, float(np.max(np.abs(d)))))
    if np.any(tiny):
        return minimize_max_affine(d, np.where(tiny, 0.0, s))
    flat = s == 0.0
    if float(np.max(s)) <= 0.0 and np.any(flat):
        floor = float(np.max(d[flat]))
        g = float(np.max((d[~flat] - floor) / -s[~flat]))
        return EnvelopeMinimum(g, float(np.max(d + s * g)))
    raise ValueError(reason)


#: the grid on which `_certified_bound` takes its multiplier: _CERT_POINTS
#: points, padded _CERT_PAD sigmas past the outer thresholds and past 0
_CERT_POINTS = 8001
_CERT_PAD = 10.0
#: the certificate first evaluates every _CERT_STRIDE-th point of that grid;
#: its branch and bound splits an open cell _CERT_SPLIT ways, until no cell
#: bound exceeds the best value found by more than _CERT_RTOL, relative
_CERT_STRIDE = 16
_CERT_SPLIT = 16
_CERT_RTOL = 1e-13
#: the extremes of t psi(t) are -/+ _TPSI_MAX, at t = -1 and t = 1
_TPSI_MAX = 1.0 / math.sqrt(2.0 * math.pi * math.e)
_EPS = float(np.finfo(float).eps)


class _Points(NamedTuple):
    """What the certificate keeps of each evaluated input x: the divergence
    d = D(W(.|x) || R) and, per threshold q_k, t_k = (q_k - x)/sigma,
    t_k psi(t_k) and the log ratio Delta_k of `_certified_bound`."""

    x: np.ndarray
    d: np.ndarray
    t: np.ndarray
    tpsi: np.ndarray
    delta: np.ndarray


def _evaluate(spec: ChannelSpec, r, x) -> _Points:
    """The certificate's record of the inputs x (1-d) against the law r."""
    thr, sigma = spec.quantizer.thresholds, spec.sigma
    w = bin_probability_matrix(x, thr, sigma)
    t = (np.asarray(thr)[None, :] - x[:, None]) / sigma
    tpsi = t * np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    d = _divergences_bits(w, _row_negentropy_bits(w), r)
    return _Points(x, d, t, tpsi, _log_ratios_bits(w, t, r))


def _ends(p: _Points, side) -> _Points:
    """The left (side 0) or right (side 1) ends of the cells between
    consecutive points of p, along the last axis of p.x."""
    cut = (slice(None),) * (p.x.ndim - 1) + (slice(side, p.x.shape[-1] - 1 + side),)
    return _Points(*(f[cut] for f in p))


def _rounded_up(p: _Points, gamma, power):
    """The tilted profile d + gamma (P - x^2) at the points p, plus an
    allowance of 4 ulps of the magnitudes summed for its rounding."""
    xsq = p.x * p.x
    size = 2.0 * math.log2(p.delta.shape[1] + 1)  # d sums magnitudes d + 2 H(W)
    return p.d + gamma * (power - xsq) + 4.0 * _EPS * (p.d + size + gamma * (power + xsq))


def _cell_bounds(a: _Points, b: _Points, up_a, up_b, gamma, sigma):
    """Upper bound of the tilted profile on each cell [a.x, b.x], from its
    rounded-up values up_a and up_b at the ends: the maximum over the cell
    of the chord plus m (x - a.x)(b.x - x)/2, with m the curvature bound of
    `_certified_bound`.  With c = m h^2/8, h the cell's width, and g the
    gap between the ends' values, that is max(up_a, up_b) if g >= 4c, else
    the chord's midpoint plus c + g^2/(16 c), which is at most max(up_a,
    up_b) + c."""
    g_lo = np.where((b.t <= -1.0) & (a.t >= -1.0), -_TPSI_MAX, np.minimum(a.tpsi, b.tpsi))
    g_hi = np.where((b.t <= 1.0) & (a.t >= 1.0), _TPSI_MAX, np.maximum(a.tpsi, b.tpsi))
    da, db = a.delta, b.delta
    corner = np.minimum(np.minimum(g_lo * da, g_lo * db), np.minimum(g_hi * da, g_hi * db))
    scale = sigma * sigma
    m = 2.0 * gamma - corner.sum(axis=-1) / scale
    m += 4.0 * da.shape[-1] * _EPS * (2.0 * gamma + np.abs(corner).sum(axis=-1) / scale)
    h = b.x - a.x
    # a nan curvature (an infinite log ratio) gives an infinite bound
    c = np.where(np.isnan(m), np.inf, np.maximum(m, 0.0) * h * h * (0.125 + _EPS))
    gap = np.abs(up_b - up_a)
    inner = gap < 4.0 * c
    with np.errstate(divide="ignore", invalid="ignore"):
        peak = 0.5 * (up_a + up_b) + c + gap * gap / (16.0 * c)
    return np.where(inner, peak + 2.0 * _EPS * np.abs(peak), np.maximum(up_a, up_b))


def _certified_bound(spec: ChannelSpec, out: OutputPmf) -> float:
    """Duality value for the output pmf `out`, proven over continuous x.

    Any gamma >= 0 gives the bound sup_x phi(x), phi(x) = D(W(.|x) || R) +
    gamma (P - x^2).  Gamma is the minimizer of the envelope over the grid of
    _CERT_POINTS points, of which only the rows that can be active there are
    evaluated: every _CERT_STRIDE-th point and the one nearest 0 first; then,
    while the cell bound below lets some skipped point of a stride reach the
    envelope minimum within twice `minimize_max_affine`'s tolerance, that
    stride's points are evaluated and gamma retaken.  No skipped line is
    then active at gamma, so it is the whole grid's minimizer.  At gamma = 0
    the minimizer stays at 0 while some rising line (x^2 <= P) stays within
    that tolerance of the maximum, so there a stride is evaluated only if it
    could pass the best rising line by half the tolerance; a saturated
    profile's plateau then costs no rows.

    At that gamma a branch and bound proves the sup over [lo, hi]: every cell
    whose bound exceeds the best value found by _CERT_RTOL, relative, is
    split _CERT_SPLIT ways, until none does; the certificate is the largest
    cell bound.  On a cell [a, b] of width h, with m >= max(0, -inf phi''),

        phi(x) <= chord(x) + m (x - a)(b - x) / 2 <= max(phi(a), phi(b)) + m h^2 / 8,

    since phi + m x^2 / 2 is convex there and so below its chord;
    `_cell_bounds` takes the maximum of the middle expression.  With
    t_k = (q_k - x)/sigma and Delta_k = log2(W_{k+1}/W_k) -
    log2(R_{k+1}/R_k),

        phi'' = sum_k t_k psi(t_k) Delta_k / sigma^2 + J / ln 2 - 2 gamma,

    where J = sum_k W'_k^2 / W_k >= 0, the Fisher information of the
    quantized output, is dropped.  Delta_k is nondecreasing in x, because
    the Gaussian location family is totally positive (adjacent bins have a
    monotone likelihood ratio), so on the cell it lies between its values at
    a and b; t psi(t) lies between its values at the cell's ends, widened to
    -/+ 1/sqrt(2 pi e) where t = -/+ 1 falls inside.  So m is 2 gamma minus
    the sum over k of the least of the four corner products.  A bin
    probability that underflows, or nearly, has its logarithm retaken in
    log space (`channel._log_ratios_bits`), so Delta_k stays exact where the
    rows hold zeros; t psi(t) itself underflows only past |t| = 38, where
    the term is below the allowance on phi.  That allowance is 4 ulps of the
    magnitudes summed in phi; m carries one for its sum, and m h^2 / 8 one
    for its product.  These rest on erfc, exp and log being accurate to a
    few ulps; they are not interval arithmetic.

    Past [lo, hi] a row leaves at most eps = Q(_CERT_PAD) of its mass outside
    the edge bin e, so D(W(.|x) || R) <= -log2 R_e - eps log2 min R there,
    while gamma (P - x^2) only falls; at gamma = 0 these tails are the
    saturation limits -log2 R_0 and -log2 R_{K-1}.
    """
    thr, sigma, power, r = spec.quantizer.thresholds, spec.sigma, spec.power_constraint, out.probs
    lo = min(thr[0], 0.0) - _CERT_PAD * sigma
    hi = max(thr[-1], 0.0) + _CERT_PAD * sigma
    xs = np.linspace(lo, hi, _CERT_POINTS)
    # the point nearest 0 carries the steepest rising line, so the rows
    # evaluated have a rising line whenever the grid has one
    grid = np.union1d(np.arange(0, _CERT_POINTS, _CERT_STRIDE), np.argmin(np.abs(xs)))
    p = _evaluate(spec, r, xs[grid])
    while True:
        slopes = power - p.x * p.x
        gamma, value = minimize_max_affine(p.d, slopes)
        up = _rounded_up(p, gamma, power)
        bound = _cell_bounds(_ends(p, 0), _ends(p, 1), up[:-1], up[1:], gamma, sigma)
        atol = _ACTIVE_RTOL * max(1.0, abs(value))
        if gamma == 0.0:
            # the minimum stays at 0 while a rising line stays within atol
            # of the maximum: no skipped line may pass the best one by atol
            live = bound > float(np.max(p.d[slopes >= 0.0])) + 0.5 * atol
        else:
            live = bound >= value - 2.0 * atol
        live &= np.diff(grid) > 1
        if not np.any(live):
            break
        fill = np.concatenate([np.arange(i + 1, j) for i, j in zip(grid[:-1][live], grid[1:][live])])
        order = np.argsort(np.concatenate((grid, fill)))
        grid = np.concatenate((grid, fill))[order]
        p = _Points(*(np.concatenate(pair)[order] for pair in zip(p, _evaluate(spec, r, xs[fill]))))

    # the cells of one level are rows of chained points: cell j of row i
    # runs from point j to point j + 1
    best = float(np.max(up))
    p, up, bound = _Points(*(f[None] for f in p)), up[None], bound[None]
    frac = np.arange(1, _CERT_SPLIT) / _CERT_SPLIT
    cert = -np.inf
    while True:
        split = (bound > best + _CERT_RTOL * max(1.0, abs(best))) & (bound < np.inf)
        cert = max(cert, float(np.max(bound[~split], initial=-np.inf)))
        if not np.any(split):
            break
        a, b = _Points(*(f[split] for f in _ends(p, 0))), _Points(*(f[split] for f in _ends(p, 1)))
        x = a.x[:, None] + (b.x - a.x)[:, None] * frac
        new = _evaluate(spec, r, x.ravel())
        new_up = _rounded_up(new, gamma, power).reshape(x.shape)
        best = max(best, float(np.max(new_up)))
        p = _Points(*(
            np.concatenate((fa[:, None], fn.reshape(x.shape + fa.shape[1:]), fb[:, None]), axis=1)
            for fa, fn, fb in zip(a, new, b)
        ))
        up = np.concatenate((up[:, :-1][split][:, None], new_up, up[:, 1:][split][:, None]), axis=1)
        bound = _cell_bounds(_ends(p, 0), _ends(p, 1), up[:, :-1], up[:, 1:], gamma, sigma)
    log_r = -np.log2(r)
    spill = gaussian_q(_CERT_PAD) * float(np.max(log_r))
    for edge, x in ((0, lo), (-1, hi)):
        cert = max(cert, float(log_r[edge]) + spill + gamma * (power - x * x))
    return cert
