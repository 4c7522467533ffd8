"""Channel model: AWGN with a K-bin scalar quantizer at the output.

The channel is Y = quantize(X + N) with N ~ Normal(0, noise_variance) and a
quantizer described by its K-1 ascending thresholds.  Everything downstream
(optimizers, bounds, reports) works through the types and kernels here: the
transition rows bin_probability_matrix, the mutual information, the one
divergence kernel _divergences_bits, which every other module uses, the one
log ratio of adjacent bins _log_ratios_bits, which the profile and the bound
certificate share, the one rate kernel _mass_point, which forms the output
law p W, the divergences and the mutual information from rows the caller
already holds, and the one profile kernel _profile, the only place where a
support's standardized thresholds, densities and flow are formed: the flow's
row sums are the divergence's input slope and its weighted column sums the
threshold gradient of the mutual information, and the threshold Hessian
_threshold_hessian_bits and the KKT polish's Jacobian read the profile.

All information quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, xlogy

from .special import LN2, gaussian_q

#: tolerance for "masses sum to one" checks
PROB_ATOL = 1e-10
#: canonical cleanup: masses below this are dropped and the rest renormalized
PRUNE_TOL = 1e-7
#: floor applied to output probabilities before taking their logarithm
_R_FLOOR = 1e-300
#: bin probabilities below this have their logarithm retaken from log Q
_TINY_BIN = 1e-280


class OutputBinZeroError(ArithmeticError):
    """An output bin has zero probability under the input distribution,
    yet some input still reaches that bin; the divergence is +infinity."""


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name}: non-finite value {v!r}")


@dataclass(frozen=True)
class Quantizer:
    """Scalar quantizer given by strictly ascending finite thresholds.

    K-1 thresholds partition the line into K bins (q_{i-1}, q_i], with the
    outermost bins unbounded.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        thr = tuple(float(t) for t in self.thresholds)
        if len(thr) < 1:
            raise ValueError("Quantizer needs at least one threshold (K >= 2)")
        _require_finite("Quantizer", *thr)
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError(f"thresholds must be strictly ascending, got {thr}")
        object.__setattr__(self, "thresholds", thr)

    def is_symmetric(self) -> bool:
        """True when the threshold set is closed under negation, to 1e-12
        relative to the largest |threshold| (or 1)."""
        t = np.asarray(self.thresholds)
        scale = max(1.0, float(np.max(np.abs(t))))
        return bool(np.all(np.abs(t + t[::-1]) <= 1e-12 * scale))

@dataclass(frozen=True)
class ChannelSpec:
    """Channel instance: noise variance, average-power budget, quantizer."""

    noise_variance: float
    power_constraint: float
    quantizer: Quantizer

    def __post_init__(self):
        _require_finite("ChannelSpec", self.noise_variance, self.power_constraint)
        if self.noise_variance <= 0.0:
            raise ValueError(f"noise_variance must be > 0, got {self.noise_variance}")
        if self.power_constraint <= 0.0:
            raise ValueError(f"power_constraint must be > 0, got {self.power_constraint}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.noise_variance)

    @classmethod
    def from_snr_db(cls, snr_db, quantizer, noise_variance=1.0) -> "ChannelSpec":
        power = noise_variance * 10.0 ** (snr_db / 10.0)
        return cls(noise_variance, power, quantizer)


@dataclass(frozen=True)
class InputDistribution:
    """Finite input distribution: ascending support locations with masses."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.locations, dtype=float)
        p = np.asarray(self.masses, dtype=float)
        if x.ndim != 1 or p.ndim != 1 or x.size != p.size or x.size == 0:
            raise ValueError("locations and masses must be 1-d arrays of equal size")
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise ValueError("locations and masses must be finite")
        if (p <= 0.0).any():
            raise ValueError("all masses must be strictly positive")
        if abs(float(p.sum()) - 1.0) > PROB_ATOL:
            raise ValueError(f"masses must sum to 1 (got {p.sum()!r})")
        if (x[1:] <= x[:-1]).any():
            raise ValueError("locations must be strictly ascending")
        x = x.copy()
        p = p.copy()
        x.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "locations", x)
        object.__setattr__(self, "masses", p)

    @classmethod
    def from_points(cls, locations, masses, merge_tol=0.0, prune_tol=0.0):
        """Sort, merge near-duplicate locations, prune tiny masses, renormalize.

        Merging is chained: consecutive points with gaps <= merge_tol collapse
        into one mass-weighted centroid.  Pruning drops masses < prune_tol and
        renormalizes the remainder; everything vanishing is an error.
        """
        x = np.asarray(locations, dtype=float)
        p = np.asarray(masses, dtype=float)
        order = x.argsort(kind="stable")
        order = order[p[order] > 0.0]
        x, p = x[order], p[order]
        if x.size == 0:
            raise ValueError("no support points with positive mass")
        if merge_tol >= 0.0 and x.size > 1:
            new_group = np.diff(x) > merge_tol
            group = np.concatenate(([0], np.cumsum(new_group)))
            pm = np.bincount(group, weights=p)
            x, p = np.bincount(group, weights=p * x) / pm, pm
            while x.size > 1 and (x[1:] <= x[:-1]).any():
                # p * x can underflow (subnormal x), so distinct groups may
                # land on one centroid: merge those too
                group = np.concatenate(([0], np.cumsum(np.diff(x) > 0.0)))
                pm = np.bincount(group, weights=p)
                x, p = np.bincount(group, weights=p * x) / pm, pm
        if prune_tol > 0.0:
            keep = p >= prune_tol
            if not keep.any():
                raise ValueError("pruning removed all support points")
            x, p = x[keep], p[keep]
        p = p / p.sum()
        return cls(x, p)

@dataclass(frozen=True)
class OutputPmf:
    """Probability mass function over the K quantizer bins."""

    probs: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.probs, dtype=float)
        if r.ndim != 1 or r.size < 2:
            raise ValueError("OutputPmf needs a 1-d vector of length >= 2")
        if not np.all(np.isfinite(r)) or np.any(r < 0.0):
            raise ValueError("OutputPmf entries must be finite and >= 0")
        if abs(float(r.sum()) - 1.0) > PROB_ATOL:
            raise ValueError(f"OutputPmf must sum to 1 (got {r.sum()!r})")
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "probs", r)


def bin_probability_matrix(x, thresholds, sigma):
    """Row-stochastic matrix of P(bin | input) for an array of inputs.

    Row i is the conditional law of the quantized output given input x[i].
    An interior bin with standardized edges a < b has probability Q(a) - Q(b)
    if a >= 0, (1 - Q(b)) - (1 - Q(a)) if b <= 0, else 1 - (1 - Q(a)) - Q(b):
    both operands stay in the same tail, so nothing cancels catastrophically
    far from the thresholds.  An interior bin reads Q(z) at an edge z only
    where z >= 0, and 1 - Q(z) = Q(-z) only where z <= 0, and there z and
    -z are the very double |z|: one erfc per threshold, Q(|z|), serves
    every interior bin, bit for bit.  The edge bins take 1 - Q(z) at the
    first threshold and Q(z) at the last, whatever their signs.  Non-finite
    x or thresholds raise ValueError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    thr = np.asarray(thresholds, dtype=float)
    # thresholds along axis 0, so that every pass runs over contiguous rows
    z = (thr[:, None] - x[None, :]) / sigma  # ascending along axis 0
    cuts = z.shape[0]
    # one erfc call on -z at the first threshold, z at the last and, when
    # there are interior bins, |z| at every threshold
    arg = np.empty((cuts + 2 if cuts > 1 else 2, x.size))
    np.negative(z[0], out=arg[0])
    arg[1] = z[-1]
    if cuts > 1:
        np.abs(z, out=arg[2:])
    q = gaussian_q(arg)
    bins = np.empty((cuts + 1, x.size))
    bins[0] = q[0]
    bins[-1] = q[1]
    if cuts > 1:
        ak, ak1 = q[2:-1], q[3:]
        inner = np.where(z[1:] <= 0.0, ak1 - ak, 1.0 - ak - ak1)
        bins[1:-1] = np.where(z[:-1] >= 0.0, ak - ak1, inner)
    out = np.empty((x.size, cuts + 1))
    np.clip(bins.T, 0.0, 1.0, out=out)
    return out


def _row_negentropy_bits(w):
    """sum_k w_k log2 w_k for each row of w; zero entries contribute zero."""
    return xlogy(w, w).sum(axis=1) / LN2


def _divergences_bits(w, negent, r):
    """KL divergence D(w_j || r) in bits for each row w_j of w.

    negent is _row_negentropy_bits(w), passed in so that callers evaluating
    many output laws against the same rows compute it once.  A zero r_k is
    floored at _R_FLOOR; it is harmless only when no row reaches bin k, which
    callers that cannot rule it out check first.  KL >= 0, so the tiny
    negatives that rounding leaves are clamped to zero.
    """
    return np.maximum(negent - w @ np.log2(np.maximum(r, _R_FLOOR)), 0.0)


def _log_ratios_bits(w, t, r):
    """Delta_k = log2(w_{k+1}/w_k) - log2(r_{k+1}/r_k), the log ratio of
    adjacent bins, for each row of the bin probabilities w, whose rows have
    the standardized thresholds t_k = (q_k - x)/sigma, against the output
    pmf r (zeros floored at _R_FLOOR).

    An entry of w below _TINY_BIN may have lost its precision or
    underflowed, so its logarithm is retaken as log Q(a) + log(1 - Q(b)/Q(a))
    from the bin's standardized edges a < b, mirrored to (-b, -a) when
    a + b < 0, so that the bin lies mostly above x, where Q keeps its
    relative precision.  So Delta_k stays exact, and finite, where the rows
    hold zeros.
    """
    log_w = np.log2(np.maximum(w, _TINY_BIN))
    tiny = w < _TINY_BIN
    if np.any(tiny):
        i, k = np.nonzero(tiny)
        edges = np.pad(t, ((0, 0), (1, 1)), constant_values=((0.0, 0.0), (-np.inf, np.inf)))
        a, b = edges[i, k], edges[i, k + 1]
        low = a + b < 0.0
        a, b = np.where(low, -b, a), np.where(low, -a, b)
        log_qa, log_qb = log_ndtr(-a), log_ndtr(-b)
        log_w[tiny] = (log_qa + np.log(-np.expm1(log_qb - log_qa))) / LN2
    return np.diff(log_w - np.log2(np.maximum(r, _R_FLOOR)), axis=1)


def _mass_point(p, w, negent):
    """(R, d, I) at masses p on the rows w, in bits: the output law R = p W,
    the divergence d_j = D(w_j || R) of every row and the mutual information
    I = p @ d.  negent is _row_negentropy_bits(w)."""
    r = p @ w
    d = _divergences_bits(w, negent, r)
    return r, d, float(p @ d)


class _Profile(NamedTuple):
    """The divergence profile of a support x with masses p under their own
    output law r = p W (floored at _R_FLOOR), in bits: the rows w, d(x_i),
    the standardized thresholds t_ik = (q_k - x_i)/sigma, the densities
    phi_ik = phi(t_ik)/sigma, the flow matrix phi_ik Delta_ik, its row sums
    d'(x_i) and the rate p @ d."""

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray
    r: np.ndarray
    d: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    flow: np.ndarray
    slope: np.ndarray
    rate: float


def _profile(x, p, thresholds, sigma, w=None) -> _Profile:
    """The profile of the inputs x with masses p; w, when given, is x's rows.

    Raising x_i by dx moves mass phi_ik dx from bin k to bin k+1 across each
    threshold q_k, so the flow phi_ik Delta_ik, with Delta_ik the log ratio
    of adjacent bins of `_log_ratios_bits`, has row sums
    d'(x_i) = dD(W(.|x_i) || r)/dx.  Raising q_k moves the same mass the
    other way, and at r = p w the terms from the change in r sum to zero, so
    -(p @ flow) is dI/dq_k at the input (x, p).
    """
    x = np.asarray(x, dtype=float)
    if w is None:
        w = bin_probability_matrix(x, thresholds, sigma)
    law, d, rate = _mass_point(p, w, _row_negentropy_bits(w))
    r = np.maximum(law, _R_FLOOR)
    t = (np.asarray(thresholds, dtype=float)[None, :] - x[:, None]) / sigma
    phi = np.exp(-0.5 * t * t) / (math.sqrt(2.0 * math.pi) * sigma)
    flow = phi * _log_ratios_bits(w, t, r)
    return _Profile(x, p, w, r, d, t, phi, flow, flow.sum(axis=1), rate)


def _threshold_hessian_bits(prof, sigma):
    """Hessian in bits of the mutual information over the thresholds at the
    fixed input of the profile `prof` (see `_profile`).

    With t_ik = (q_k - x_i)/sigma, phi_ik = phi(t_ik)/sigma and g_k = sum_i
    p_i phi_ik, the mass that q_k moves from bin k + 1 to bin k: raising q_k
    scales phi_ik by -t_ik/sigma and moves Delta_ik through bins k and k + 1
    of w and r, so H_kk = sum_i p_i [t_ik flow_ik/sigma + phi_ik^2 (1/w_ik +
    1/w_i,k+1)/ln 2] - g_k^2 (1/r_k + 1/r_k+1)/ln 2, and q_k+1 moves it
    through bin k + 1 alone, so H_k,k+1 = [g_k g_k+1/r_k+1 - sum_i p_i phi_ik
    phi_i,k+1/w_i,k+1]/ln 2.  Thresholds further apart share no bin, so H is
    tridiagonal.  1/w is taken as 0 where w is 0.
    """
    p, w, r, t, phi = prof.p, prof.w, prof.r, prof.t, prof.phi
    # phi_ik / w_ik and phi_ik / w_i,k+1 (0 where w is 0), and g_k / r_k and
    # g_k / r_k+1; as ratios they stay finite where w is subnormal
    lo = np.divide(phi, w[:, :-1], out=np.zeros_like(phi), where=w[:, :-1] > 0.0)
    hi = np.divide(phi, w[:, 1:], out=np.zeros_like(phi), where=w[:, 1:] > 0.0)
    g = p @ phi
    g_lo, g_hi = g / r[:-1], g / r[1:]
    diag = p @ (t * prof.flow) / sigma + (p @ (phi * (lo + hi)) - g * (g_lo + g_hi)) / LN2
    off = (g[:-1] * g_lo[1:] - p @ (phi[:, :-1] * lo[:, 1:])) / LN2
    m = diag.size
    hess = np.zeros((m, m))
    hess.flat[:: m + 1] = diag
    hess.flat[1 :: m + 1] = hess.flat[m :: m + 1] = off
    return hess


def mutual_information(dist: InputDistribution, spec: ChannelSpec) -> float:
    """Mutual information in bits between the input and the quantized output."""
    w = bin_probability_matrix(dist.locations, spec.quantizer.thresholds, spec.sigma)
    r, _, mi = _mass_point(dist.masses, w, _row_negentropy_bits(w))
    hit_zero = (r <= 0.0) & np.any(w > 0.0, axis=0)
    if np.any(hit_zero):
        bins = np.nonzero(hit_zero)[0].tolist()
        raise OutputBinZeroError(
            f"output bins {bins} have zero probability but are reachable"
        )
    return mi
