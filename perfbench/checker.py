"""Independent checker for capacity results (numpy and scipy only).

Nothing here calls into ``quantcap``: the transition rows come from
``scipy.special.ndtr``, the divergence from ``xlogy``, and the duality value
from a convex one-dimensional minimisation over the power multiplier.  A result is
passed in as plain numbers (support, masses, quantizer thresholds, power and
the solver's reported figures), so the checker also works on results whose
classes a later change renames.

For an output pmf R and any gamma >= 0, weak duality gives

    capacity <= sup_x [ D(W(.|x) || R) + gamma (P - x^2) ],

so min over gamma of the maximum over a fine x-grid is an independent
estimate of the bound the solver should have reported for the output law of
its own input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, xlogy

LN2 = math.log(2.0)

#: masses must sum to one within this
MASS_ATOL = 1e-9
#: E X^2 <= P (1 + POWER_RTOL)
POWER_RTOL = 1e-9
#: recomputed mutual information must match the reported capacity this closely
MI_ATOL = 1e-9
#: capacity <= upper_bound + BOUND_RTOL * max(1, |upper_bound|): rounding only
BOUND_RTOL = 1e-12

#: the solver's default input grid: 2001 points on [-10 sqrt(P), 10 sqrt(P)]
SOLVER_HALF_WIDTH = 10.0
SOLVER_POINTS = 2001
#: the checker's grid is this many times finer than the solver's
REFINE = 10
MIN_POINTS = 20001
#: the checker's grid reaches max(|q|, sqrt(P)) plus this many noise sigmas
TAIL_SIGMAS = 12.0


@dataclass(frozen=True)
class Solve:
    """One capacity result as plain numbers, with the channel it solved."""

    thresholds: tuple
    power: float
    sigma: float
    locations: np.ndarray
    masses: np.ndarray
    capacity: float
    upper_bound: float
    converged: bool


@dataclass(frozen=True)
class Verdict:
    """What the checker found for one result.

    ``bound`` is the independent duality value; ``errors`` is empty when every
    check passed.  Bound excess is reported, never counted as an error.
    """

    mi: float
    bound: float
    errors: tuple

    @property
    def ok(self) -> bool:
        return not self.errors


def transition_rows(x, thresholds, sigma):
    """P(bin | x) for each x, each bin as a difference of same-side tails."""
    x = np.asarray(x, dtype=float)
    edges = np.concatenate(([-np.inf], np.asarray(thresholds, dtype=float), [np.inf]))
    z = (edges[None, :] - x[:, None]) / sigma
    # Only the small tail ndtr(-|z|) is computed; its complement is near 1
    # and accurate in absolute terms.
    tail = ndtr(-np.abs(z))
    below = z < 0.0
    cdf = np.where(below, tail, 1.0 - tail)
    ccdf = np.where(below, 1.0 - tail, tail)
    # A bin entirely above x has both edges in the upper tail, where
    # Q(lo) - Q(hi) is accurate; otherwise lower-tail values are.
    upper = ~below[:, :-1]
    w = np.where(upper, ccdf[:, :-1] - ccdf[:, 1:], cdf[:, 1:] - cdf[:, :-1])
    return np.maximum(w, 0.0)


def divergence_bits(w, r):
    """Row-wise KL divergence D(w_i || r) in bits, for r > 0."""
    return xlogy(w, w / r[None, :]).sum(axis=1) / LN2


def envelope_minimum(d, s):
    """min over gamma >= 0 of max_i (d_i + gamma s_i), for some s_i > 0.

    The envelope is convex and piecewise linear in gamma, so its minimiser is
    where the slope of the active line changes sign.  That point is bracketed
    by doubling, narrowed by bisection on the sign, and closed by intersecting
    the lines active at the two ends.  The value returned is the envelope
    itself at the best gamma tried, so it never undercuts the true minimum.
    """

    def active(g):
        return int(np.argmax(d + g * s))

    def envelope(g):
        return float(np.max(d + g * s))

    if s[active(0.0)] >= 0.0:
        return envelope(0.0), 0.0
    lo, hi = 0.0, 1.0
    while s[active(hi)] < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if s[active(mid)] < 0.0:
            lo = mid
        else:
            hi = mid
    a, b = active(lo), active(hi)
    candidates = [lo, hi]
    if s[b] > s[a]:
        candidates.append(min(max((d[a] - d[b]) / (s[b] - s[a]), lo), hi))
    value, gamma = min((envelope(g), g) for g in candidates)
    return value, float(gamma)


def check_grid(solve: Solve) -> np.ndarray:
    """x-grid at least REFINE times finer than the solver's default grid."""
    root_p = math.sqrt(solve.power)
    reach = max(float(np.max(np.abs(solve.thresholds))), root_p) + TAIL_SIGMAS * solve.sigma
    solver_step = 2.0 * SOLVER_HALF_WIDTH * root_p / (SOLVER_POINTS - 1)
    points = max(MIN_POINTS, int(math.ceil(2.0 * reach / (solver_step / REFINE))) + 1)
    return np.linspace(-reach, reach, points)


def check(solve: Solve) -> Verdict:
    """Recompute mutual information and the duality value; list violations."""
    errors = []
    x = np.asarray(solve.locations, dtype=float)
    p = np.asarray(solve.masses, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p)) and np.all(p >= 0.0)):
        return Verdict(math.nan, math.nan, ("support or masses not finite and nonnegative",))
    if abs(float(p.sum()) - 1.0) > MASS_ATOL:
        errors.append(f"masses sum to {float(p.sum())!r}")
    power_used = float(p @ x**2)
    if power_used > solve.power * (1.0 + POWER_RTOL):
        errors.append(f"E X^2 = {power_used!r} exceeds P = {solve.power!r}")
    if not solve.converged:
        errors.append("solver reports converged = false")

    w_sup = transition_rows(x, solve.thresholds, solve.sigma)
    r = p @ w_sup
    mi = float(p @ divergence_bits(w_sup, r))
    if not abs(mi - solve.capacity) <= MI_ATOL:
        errors.append(f"capacity {solve.capacity!r} but recomputed MI {mi!r}")
    ub = solve.upper_bound
    if not solve.capacity <= ub + BOUND_RTOL * max(1.0, abs(ub)):
        errors.append(f"capacity {solve.capacity!r} above reported bound {ub!r}")

    xs = check_grid(solve)
    d = divergence_bits(transition_rows(xs, solve.thresholds, solve.sigma), r)
    bound, _ = envelope_minimum(d, solve.power - xs**2)
    return Verdict(mi, bound, tuple(errors))


def summarize(solves, verdicts):
    """Accuracy figures over a workload's checked results.

    certified_gap_bits: largest independent bound minus achieved MI.
    certified_gap_mean_bits: the mean of the same differences.
    bound_excess_bits: largest independent bound minus reported bound, >= 0.
    rate_mean_bits: mean achieved MI.
    """
    gaps = [v.bound - s.capacity for s, v in zip(solves, verdicts)]
    excess = [v.bound - s.upper_bound for s, v in zip(solves, verdicts)]
    return {
        "certified_gap_bits": max(gaps),
        "certified_gap_mean_bits": float(np.mean(gaps)),
        "bound_excess_bits": max(0.0, max(excess)),
        "rate_mean_bits": float(np.mean([s.capacity for s in solves])),
    }
