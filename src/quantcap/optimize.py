"""Input-distribution optimizers for a fixed quantizer.

Two independent routes to the same optimum:

* a cutting-plane scheme that grows a small support set, re-optimizes the
  masses on it (a finite concave program solved by an active-set Newton
  method with the analytic gradient and Hessian), and certifies progress
  with the exact minimax multiplier from the duality envelope, so the
  reported kkt_max_violation is a true bound on the distance to the
  grid-restricted capacity;
* a tilted Blahut-Arimoto fixed point over the whole grid at a given
  multiplier gamma; at the cutting plane's gamma* its value equals C by
  strong duality.  This is the independent oracle used for cross-checks.

The bound path, `duality_upper_bound`, moves the cutting plane's support
over continuous x by Newton on the optimality conditions of a finite input
(`_kkt_polish`) and certifies the output law it reaches.  Each polish step
evaluates `channel._profile`, whose densities and flow give both the
conditions and their Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd, dposv

from .bounds import _certified_bound, minimize_max_affine
from .channel import (
    ChannelSpec,
    InputDistribution,
    OutputPmf,
    PRUNE_TOL,
    Quantizer,
    _R_FLOOR,
    _divergences_bits,
    _mass_point,
    _profile,
    _row_negentropy_bits,
    bin_probability_matrix,
)
from .special import LN2, binary_entropy, gaussian_q

# Half-width of every input grid, in units of sqrt(P).
_GRID_HALF_WIDTH = 10.0

# The certified gap, in bits, at which a capacity solve stops by default;
# the joint searches and the C(q) curve solve to it too.
_DEFAULT_TOL = 1e-4


@dataclass(frozen=True)
class GridConfig:
    """Input-support search grid: [-10 sqrt(P), 10 sqrt(P)] with n points.

    The fixed half-width 10 sqrt(P) (_GRID_HALF_WIDTH) reaches far beyond
    where optimal supports live (the per-input divergence saturates past the
    outermost threshold), and an odd point count keeps 0 exactly on the grid.
    """

    point_count: int = 2001

    def __post_init__(self):
        if self.point_count < 101 or self.point_count % 2 == 0:
            raise ValueError(
                f"point_count must be odd and >= 101, got {self.point_count!r}"
            )

    def points(self, power: float) -> np.ndarray:
        half = _GRID_HALF_WIDTH * math.sqrt(power)
        return np.linspace(-half, half, self.point_count)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of one capacity computation for a fixed channel."""

    capacity: float
    dist: InputDistribution
    gamma: float
    upper_bound: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        if not math.isfinite(self.capacity) or self.capacity < -1e-12:
            raise ValueError(f"capacity must be finite and >= 0, got {self.capacity}")
        if not math.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.capacity > self.upper_bound + 1e-6:
            raise ValueError(
                f"capacity {self.capacity} exceeds certified upper bound {self.upper_bound}"
            )

    @property
    def kkt_max_violation(self) -> float:
        """Certified gap upper_bound - capacity, clamped at zero."""
        return max(self.upper_bound - self.capacity, 0.0)

    def to_text(self) -> str:
        lines = [
            f"capacity {self.capacity:.16e}",
            f"upper_bound {self.upper_bound:.16e}",
            f"gamma {self.gamma:.16e}",
            f"kkt_max_violation {self.kkt_max_violation:.16e}",
            f"iterations {self.iterations}",
            f"converged {str(self.converged).lower()}",
        ]
        lines.extend(
            f"point {x:.16e} {p:.16e}"
            for x, p in zip(self.dist.locations, self.dist.masses)
        )
        return "\n".join(lines) + "\n"


def onebit_capacity(snr: float) -> float:
    """Capacity of the symmetric one-bit quantizer: 1 - h(Q(sqrt(snr))) bits.

    Achieved by antipodal signaling at +/- sqrt(P), so it doubles as ground
    truth for the numerical optimizers on single-threshold channels.
    """
    if not math.isfinite(snr) or snr <= 0.0:
        raise ValueError(f"snr must be finite and > 0, got {snr!r}")
    return 1.0 - binary_entropy(gaussian_q(math.sqrt(snr)))


def _noise_units(spec):
    """(s, the channel in units of s), with s the largest power of two not
    above sigma: noise variance, power and thresholds divided by s^2, s^2
    and s.  Dividing by a power of two is exact (short of underflow), so the
    channel is the same, with sigma in [1, 2); at a tiny or huge sigma the
    power slopes P - x^2 would otherwise sit near the limits of the double
    range, where the envelope's bracket cannot find a rising line."""
    s = math.ldexp(1.0, math.frexp(spec.sigma)[1] - 1)
    if s == 1.0:
        return s, spec
    thresholds = tuple(t / s for t in spec.quantizer.thresholds)
    unit = ChannelSpec(spec.noise_variance / (s * s), spec.power_constraint / (s * s),
                       Quantizer(thresholds))
    return s, unit


def _scaled(dist, s):
    """`dist` with its support multiplied by s."""
    return dist if s == 1.0 else InputDistribution(dist.locations * s, dist.masses)


def _feasible_start(p, xsq, power):
    """Blend a candidate mass vector back onto the power budget.

    Mixes toward the restriction q of p to the points with x^2 <= power
    (boundary points at x^2 = power included) just far enough to spend the
    budget exactly, so that the solve can start on the power face.  When
    every point that carries mass sits on x^2 = power at rounding, q is not
    below p's power, and q itself is returned.
    """
    cur = float(p @ xsq)
    if cur <= power:
        return p
    inside = xsq <= power
    if not np.any(inside):
        raise ValueError("no support point satisfies the power constraint alone")
    q = np.where(inside, p, 0.0)
    total = q.sum()
    q = q / total if total > 0.0 else inside / inside.sum()
    below = float(q @ xsq)
    if below >= cur:
        return q
    # q sits on x^2 <= power < cur, so the blend reaches the budget by t = 1
    t = min(1.0, (cur - power) / (cur - below))
    mix = (1.0 - t) * p + t * q
    return mix / mix.sum()


# Mass solve tolerances, all in bits.  A point joins the free set when its
# reduced gradient exceeds _ADD_TOL; a face is optimal when the KKT residual
# on its free set is at most _FACE_TOL; the line search treats objective
# values within _F_NOISE (relative) as equal, since a step whose gain is below
# rounding cannot be checked.  Singular values below _RANK_RTOL, and a
# spread of x^2 over the free set below _RANK_RTOL of its scale, count as
# zero, and a reduced Hessian whose singular values spread past
# 1/_RANK_RTOL is singular to working precision.  B^T B squares the
# conditioning of B, so a Newton step is solved by Cholesky only while the
# factor's diagonal stays above _CHOL_RTOL times its largest entry (and 1);
# past that B may be near singular, and the step comes from B's SVD.
_ADD_TOL = 1e-13
_FACE_TOL = 1e-12
_F_NOISE = 1e-15
_RANK_RTOL = 1e-10
_CHOL_RTOL = 1e-5
# In the capacity_sweep benchmark a solve takes about 6 steps, 24 at most.
_NEWTON_MAX_ITER = 200
# Cap on the cutting-plane rounds; a solve that reaches it is unconverged.
_CUT_MAX_ITER = 200


def _face_basis(xsq, power_row):
    """Directions v with sum(v) = 0, and xsq @ v = 0 if `power_row`.

    Returns (z, pair): the columns of z span those directions.  With the
    power row, each column moves mass between one point and the two points
    `pair` of smallest and largest x^2; the KKT multipliers of a face are then
    the line through the gradients at `pair`.  When x^2 is constant over the
    face the power row repeats the sum row and is left out (pair is None).
    """
    n = xsq.size
    if power_row:
        xl = xsq.tolist()
        a, b = xl.index(min(xl)), xl.index(max(xl))
        span = xl[b] - xl[a]
        if span > _RANK_RTOL * xl[b]:
            # Fortran order: the layout picks the BLAS path of wf.T @ z,
            # and so the last bits of every step
            z = np.zeros((n, n - 2), order="F")
            col = 0
            for k, xk in enumerate(xl):
                if k != a and k != b:
                    z[k, col] = 1.0
                    z[a, col] = (xk - xl[b]) / span
                    z[b, col] = (xl[a] - xk) / span
                    col += 1
            return z, (a, b)
    z = np.eye(n, n - 1)
    z[-1] = -1.0
    return z, None


def _brent_root(f, a, b, fa, fb, xtol):
    """Root of f between a and b, given fa = f(a) and fb = f(b) of
    different signs, by Brent's method (Algorithms for Minimization without
    Derivatives, 1973): inverse quadratic or secant steps that fall back to
    bisection.  It stops at the root within xtol + 4 eps |x|, and after 100
    steps returns its last iterate.  It repeats scipy's C brentq operation
    for operation, so every iterate is the same double."""
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    rtol = 4.0 * 2.0**-52
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    return xcur


def _join_step(pf, wf, negf, xf, power, j, f):
    """Masses moved from pf, whose objective is f, toward the vertex that
    mixes point j at exactly the power level with the face point of most
    different x^2 on the other side of it, to the exact maximum of I on that
    segment, with their _mass_point; None if there is no such point or the
    gain is below rounding."""
    beyond = (xf - power) * (xf[j] - power) < -_RANK_RTOL * power**2
    if not np.any(beyond):
        return None
    k = int(np.argmax(np.where(beyond, np.abs(xf - xf[j]), -1.0)))
    vertex = np.zeros_like(pf)
    vertex[j] = (power - xf[k]) / (xf[j] - xf[k])
    vertex[k] = 1.0 - vertex[j]
    v = vertex - pf

    def slope(t):
        return float(_divergences_bits(wf, negf, (pf + t * v) @ wf) @ v)

    t, at_1 = 1.0, slope(1.0)
    if at_1 < 0.0:
        # a root near 0 can need more than the root search's 100 iterations
        # to reach xtol; its last iterate is still a point of the segment
        at_0 = slope(0.0)
        t = _brent_root(slope, 0.0, 1.0, at_0, at_1, 1e-300) if at_0 > 0.0 else 0.0
    q = np.maximum(pf + t * v, 0.0)
    point = _mass_point(q, wf, negf)
    return (q, *point) if point[2] > f + _F_NOISE * max(1.0, abs(f)) else None


def _optimal_masses_rows(w, negent, xsq, power, start=None, careful=False):
    """Maximize mutual information over masses on a fixed support.

    Active-set Newton method for the concave program max_p sum_j p_j d_j(p)
    subject to sum(p) = 1, p @ xsq <= power and p >= 0, where d_j is the
    divergence of row j from the output law R = p W.  On the face of free
    points F (and the power row while that constraint is active), with a
    basis z of the face's directions, each step solves the
    equality-constrained Newton system B^T B y = z^T d for the direction
    v = z y.  The Hessian is -W_F diag(1/R) W_F^T / ln2, so
    B = diag(1/sqrt(R ln2)) W_F^T z, with W_F^T z formed once per face.
    The step then takes a ratio test against p >= 0 and the power budget
    and backtracks (Armijo), evaluating R, d and I once per trial point and
    carrying the accepted point's values into the next step.  Along a
    direction that leaves R unchanged the objective is linear; such a face
    is left by an LP pivot to the next vertex, which keeps at most K+1 free
    points.  At a face optimum the multipliers nu, gamma of the face give the
    reduced gradient d_j - nu - gamma x_j^2 of every other point: the power
    row is released if gamma < 0 beyond rounding, else the point with the
    largest reduced gradient joins F, and the solve ends when none exceeds
    _ADD_TOL.

    The Newton system is solved by Cholesky (LAPACK dposv).  An SVD of B
    (dgesdd) takes its place only where the Cholesky factor cannot settle
    the step: when the face has K or more free directions, so that B has a
    null direction to pivot along; when the factorization fails or its
    diagonal spreads past _CHOL_RTOL, so that B may be singular; and for
    the careful rank test of a join below.

    A point that joins F and alone reaches some bin sees R near 0 there, and
    its 1/R curvature can shrink every Newton step below rounding.  It can
    also swamp B's small singular values, so that a direction along which R
    moves looks null: no pivot is taken along a direction along which R
    moves beyond _RANK_RTOL, and the Newton step keeps to the directions B
    resolves.  A solve that stalls reruns `careful`: such a join (a reduced
    Hessian singular to working precision) takes a _join_step, or is left
    out if that gains nothing; RuntimeError if this stalls too.  In either
    mode, a join whose Newton step would drop the point again takes the same
    way out.

    Starts from `start` when given, else from uniform masses.  A start at
    or over the budget is blended onto it by _feasible_start and the solve
    starts on the power face.  The program is concave, so any KKT point is
    a global optimum.  Returns (masses, mutual_information_bits).
    """
    m, bins = w.shape
    if m == 1:
        return np.ones(1), 0.0
    p = np.full(m, 1.0 / m)
    if start is not None:
        # points without warm mass start off the face and join it only if
        # their reduced gradient asks for them
        s = np.maximum(np.asarray(start, dtype=float), 0.0)
        total = s.sum()
        if total > 0.0:
            p = s / total
    on_power = float(p @ xsq) >= power
    p = np.array(_feasible_start(p, xsq, power), dtype=float)
    free = p > 0.0
    added = -1
    left_out = []
    steps = 0
    while True:
        idx = free.nonzero()[0]
        pf, wf, xf, negf = p[idx], w[idx], xsq[idx], negent[idx]
        z, pair = _face_basis(xf, on_power)
        wz = wf.T @ z
        wzt = wz.T / LN2
        r, g, f = _mass_point(pf, wf, negf)
        # Newton steps on this face, until it is optimal or the face changes
        while True:
            steps += 1
            if steps > _NEWTON_MAX_ITER:
                if not careful:
                    return _optimal_masses_rows(w, negent, xsq, power, start, True)
                raise RuntimeError(
                    f"mass optimization did not converge in {_NEWTON_MAX_ITER} Newton iterations"
                )
            v = None
            # The gradient is d - 1/ln2; the constant is orthogonal to every
            # face direction and only shifts nu.
            zg = g @ z
            # a NaN component is not stationary
            stationary = all(abs(c) <= _FACE_TOL for c in zg.tolist())
            # A stationary face is optimal unless it has more free directions
            # than the K - 1 that R can take; such a face is degenerate.
            if stationary and zg.size < bins:
                break
            # Reduced Hessian z^T W_F diag(1/R) W_F^T z / ln2 = B^T B; bins
            # that no free point reaches add zero rows to B.
            rr = np.maximum(r, _R_FLOOR)
            y = None
            pivot = False
            # the careful rank test of a join reads the singular values
            if zg.size < bins and not (careful and added >= 0):
                factor, y, info = dposv((wzt / rr) @ wz, zg)
                diag = factor.diagonal().tolist()
                if info or min(diag) <= _CHOL_RTOL * max(1.0, max(diag)):
                    y = None
            if y is None:
                _, sv, vt, info = dgesdd(wz / np.sqrt(rr * LN2)[:, None])
                if info:
                    raise np.linalg.LinAlgError("SVD of the reduced Hessian did not converge")
                null = sv.size < zg.size or sv[-1] <= _RANK_RTOL
                # A null direction is a pivot only if R stays within
                # _RANK_RTOL along it; else it is B's rounding (a row scaled
                # by 1/sqrt(R) with R near 0 swamps the small singular values)
                pivot = null and float(np.abs(wz @ vt[-1]).max()) <= _RANK_RTOL
                if pivot:
                    # R is constant along this null direction, so the
                    # objective is linear there with slope g @ v (= negent @ v).
                    y = vt[-1] if zg @ vt[-1] >= 0.0 else -vt[-1]
                elif stationary:
                    break
                elif null:
                    # Newton along the directions that B resolves
                    live = sv > _RANK_RTOL
                    resolved = vt[: sv.size][live]
                    y = ((resolved @ zg) / sv[live] ** 2) @ resolved
                else:
                    y = ((vt @ zg) / sv**2) @ vt
            v = z @ y
            if added >= 0:
                j = np.searchsorted(idx, added)
                # With fewer free directions than K, a direction that leaves
                # R unchanged needs rows that distinct points do not give, so
                # a pivot there is rounding: like singular values spread past
                # 1/_RANK_RTOL, it marks a reduced Hessian singular to
                # working precision.
                singular = careful and (
                    zg.size < bins if pivot else sv[-1] < _RANK_RTOL * sv[0]
                )
                if singular or v[j] < 0.0:
                    joined = _join_step(pf, wf, negf, xf, power, j, f)
                    if joined is not None:
                        pf, r, g, f = joined
                        added = -1
                        continue
                    # leave the point out: a boundary step that drops it
                    v, hit = -np.eye(idx.size)[j], added
                    left_out.append(added)
                    break
            added = -1
            # Ratio test against p >= 0, on Python floats: a tiny component of
            # v gives an infinite ratio, not an overflow warning.
            t_max, hit = math.inf, None
            for k, (pk, vk) in enumerate(zip(pf.tolist(), v.tolist())):
                if vk < 0.0 and pk / -vk < t_max:
                    t_max, hit = pk / -vk, k
            if hit is not None:
                hit = int(idx[hit])
            if not on_power:
                rise = float(xf @ v)
                if rise > 0.0:
                    t_power = max(power - float(pf @ xf), 0.0) / rise
                    if t_power <= t_max:
                        t_max, hit = t_power, None
            if pivot:
                pf = np.maximum(pf + t_max * v, 0.0)
                break
            t = min(1.0, t_max)
            gain = float(zg @ y)
            slack = _F_NOISE * max(1.0, abs(f))
            while True:
                q = np.maximum(pf + v if t == 1.0 else pf + t * v, 0.0)
                r_new, g_new, f_new = _mass_point(q, wf, negf)
                if f_new >= f + 1e-4 * t * gain - slack:
                    break
                t *= 0.5
            pf, r, g, f = q, r_new, g_new, f_new
            if t == t_max:
                break
        p[idx] = pf
        if v is not None:  # a step reached the boundary of the face
            if hit is None:
                on_power = True
            else:
                p[hit] = 0.0
            free[idx[(p[idx] == 0.0) & (v < 0.0)]] = False
            continue
        # Face optimum: multipliers, then the reduced gradient off the face.
        if pair is None:
            nu, gamma = float(np.mean(g)), 0.0
        else:
            a, b = pair
            span = float(xf[b] - xf[a])
            gamma = float(g[b] - g[a]) / span
            # Release only a multiplier that is negative beyond the face's
            # residual; the step that follows then lowers the power.
            if gamma * span < -10.0 * _FACE_TOL:
                on_power = False
                continue
            gamma = max(gamma, 0.0)
            nu = float(g[a]) - gamma * float(xf[a])
        reduced = _divergences_bits(w, negent, r) - nu - gamma * xsq
        reduced[idx] = -np.inf
        if left_out:
            reduced[left_out] = -np.inf
        j = int(reduced.argmax())
        if reduced[j] <= _ADD_TOL:
            return p, f
        free[j] = True
        added = j


def _canonical_dist(locations, masses, spec, merge_tol):
    """Symmetrize (when the quantizer allows) and fuse grid-resolution clusters.

    Adjacent-grid mass splitting is how a grid-restricted optimum represents
    an off-grid support point; fusing everything within a few grid steps into
    its mass-weighted centroid recovers the small canonical support.
    """
    locs = np.asarray(locations, dtype=float)
    ms = np.asarray(masses, dtype=float)
    if spec.quantizer.is_symmetric():
        locs = np.concatenate([locs, -locs[::-1]])
        ms = 0.5 * np.concatenate([ms, ms[::-1]])
    return InputDistribution.from_points(
        locs, ms, merge_tol=merge_tol, prune_tol=PRUNE_TOL
    )


def _certify(dist, spec, w_grid, negent_grid, slopes, tol, last, best):
    """Self-consistent numbers for a finished distribution.

    Returns (mi, gamma, bound): mi is the exact mutual information of `dist`,
    and bound = min over gamma of the max of d(x) + gamma (P - x^2) over the
    grid plus dist's own (possibly off-grid) support, under dist's own law,
    so that bound - mi is the worst KKT violation at the minimax gamma.  The
    support keeps bound >= mi by weak duality, for any output law, even
    after cluster merging moves points off the grid.  Pruning and fusion can
    leave dist's law far from the loop's, so when bound - mi exceeds `tol`
    the loop's `last` law and its `best` (of the round with the lowest
    envelope) are certified too, and the smallest bound is kept.
    """
    w_sup = bin_probability_matrix(dist.locations, spec.quantizer.thresholds, spec.sigma)
    negent_sup = _row_negentropy_bits(w_sup)
    own, d_sup, mi = _mass_point(dist.masses, w_sup, negent_sup)
    lines = np.concatenate([slopes, spec.power_constraint - dist.locations**2])

    def envelope(law, d_law):
        d_grid = _divergences_bits(w_grid, negent_grid, law)
        return minimize_max_affine(np.concatenate([d_grid, d_law]), lines)

    gamma, bound = envelope(own, d_sup)
    if bound - mi > tol:
        for law in (last,) if best is last else (last, best):
            env = envelope(law, _divergences_bits(w_sup, negent_sup, law))
            if env.value < bound:
                gamma, bound = env
    return mi, gamma, bound


def optimize_input_cutting_plane(
    spec: ChannelSpec,
    grid: GridConfig | None = None,
    tol: float = _DEFAULT_TOL,
    initial_support=None,
) -> CapacityResult:
    """Capacity and an optimal input for a fixed quantizer via cutting planes.

    Starting from a three-point support, alternates (a) exact mass
    re-optimization on the current support with (b) adding the grid point
    that most violates the optimality condition d(x;F) + gamma (P - x^2) <=
    I(F).  gamma is chosen each round as the exact minimizer of the duality
    envelope of the current output law, which makes the measured violation an
    upper bound on the remaining capacity gap: termination at `tol` is a real
    certificate rather than a stall test.  The result is unconverged at
    three other stops: the largest violation off the support is within
    `tol` (new points cannot close the gap); a round's input, its support,
    warm-start masses and previous cuts, repeats an earlier round's, so the
    deterministic loop would only cycle; or _CUT_MAX_ITER rounds.  For
    symmetric quantizers the returned distribution is symmetrized, which
    never lowers the objective.  `grid` defaults to GridConfig().  The
    solve runs in the units of `_noise_units`, and its support and gamma are
    scaled back.
    """
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    scale, spec = _noise_units(spec)
    power = spec.power_constraint
    xs = (grid or GridConfig()).points(power)
    w = bin_probability_matrix(xs, spec.quantizer.thresholds, spec.sigma)
    negent = _row_negentropy_bits(w)
    slopes = power - xs**2
    spacing = float(xs[1] - xs[0])

    root_p = math.sqrt(power)
    seeds = (
        [-root_p, 0.0, root_p]
        if initial_support is None
        else (np.asarray(initial_support, dtype=float) / scale).tolist()
    )
    # Feasibility anchor: neither seeding nor pruning may leave the working
    # set without a point inside the power budget (a warm-start support can
    # sit exactly on the power sphere and round to just outside it), or the
    # mass problem goes infeasible.
    anchor = int(np.argmin(np.abs(xs)))
    support = sorted({int(np.argmin(np.abs(xs - s))) for s in seeds} | {anchor})

    warm: dict[int, float] = {}
    fresh: set[int] = set()
    seen = set()
    idx = np.asarray(support, dtype=int)
    p_cur = np.full(idx.size, 1.0 / idx.size)
    start = None
    converged = False
    iterations = 0
    best_value, best_r = math.inf, None
    for iterations in range(1, _CUT_MAX_ITER + 1):
        idx = np.asarray(support, dtype=int)
        w_sup = w[idx]
        p_cur, mi = _optimal_masses_rows(w_sup, negent[idx], xs[idx] ** 2, power, start=start)
        warm = dict(zip(idx.tolist(), p_cur.tolist()))

        r = p_cur @ w_sup
        d_all = _divergences_bits(w, negent, r)
        env = minimize_max_affine(d_all, slopes)
        if env.value < best_value:
            best_value, best_r = env.value, r
        if env.value - mi <= tol:
            converged = True
            break

        g_outside = d_all + env.gamma * slopes
        g_outside[idx] = -np.inf
        best = float(g_outside.max())
        if best - mi <= tol:
            # The certified gap sits on the support: new points cannot close it.
            break
        # At the minimax gamma the binding violations come in pairs with
        # opposite power slopes (one point inside the power budget, one
        # outside); mass can only flow to the outer one together with the
        # inner one, so take the best near-tied cut from each sign.
        near = (g_outside >= best - max(1e-12, 0.01 * tol)).nonzero()[0]
        cuts = set()
        for group in (near[slopes[near] > 0.0], near[slopes[near] <= 0.0]):
            if group.size:
                top = float(g_outside[group].max())
                cand = group[g_outside[group] >= top - 1e-12]
                cuts.add(int(cand[np.argmin(np.abs(xs[cand]))]))
        kept = set(idx[p_cur > 1e-12].tolist()) | fresh | {anchor}
        fresh = cuts
        support = sorted(kept | cuts)
        # The next round's whole input; checked before idx moves on, so the
        # result below keeps this round's support with its own masses.
        masses = [warm.get(j, 1e-3) for j in support]
        start = np.array(masses)
        round_input = (tuple(support), tuple(masses), tuple(sorted(fresh)))
        if round_input in seen:
            break
        seen.add(round_input)

    dist = _canonical_dist(xs[idx], p_cur, spec, 2.5 * spacing)
    mi, gamma, bound = _certify(dist, spec, w, negent, slopes, tol, r, best_r)
    return CapacityResult(
        capacity=mi,
        dist=_scaled(dist, scale),
        gamma=gamma / (scale * scale),
        upper_bound=bound,
        iterations=iterations,
        converged=converged,
    )


# KKT polish settings.  The polish stops when the norm of the KKT residual
# falls to _KKT_TOL, and hands its support to the mass solve when a step
# halved _KKT_HALVINGS times does not lower that norm, or after
# _KKT_MAX_STEPS steps.  It starts without the masses below
# _KKT_MASS_FLOOR.  On Table I and the joint table cells it takes at most 4
# steps; the flat high-SNR profiles, whose multiplier is near 0, converge
# only linearly and use the step cap.
_KKT_TOL = 1e-13
_KKT_HALVINGS = 6
_KKT_MAX_STEPS = 30
_KKT_MASS_FLOOR = 1e-10


def _kkt_residual(prof, gamma, info, root_p):
    """The KKT conditions of `_kkt_polish` in the scaled unknowns u = x /
    sqrt(P) and gamma P: d(x_i) + gamma (P - x_i^2) - I, sqrt(P) (d'(x_i) -
    2 gamma x_i), sum(p) - 1 and (p @ x^2 - P) / P."""
    u, p = prof.x / root_p, prof.p
    return np.concatenate((
        prof.d + gamma * (1.0 - u * u) - info,
        root_p * prof.slope - 2.0 * gamma * u,
        (p.sum() - 1.0, p @ (u * u) - 1.0),
    ))


def _multipliers(prof, root_p):
    """(gamma P, I) that minimize the residual of the 2n profile conditions
    of `_kkt_residual` at a fixed support and masses."""
    u = prof.x / root_p
    n = u.size
    a = np.zeros((2 * n, 2))
    a[:n, 0], a[:n, 1], a[n:, 0] = 1.0 - u * u, -1.0, -2.0 * u
    rhs = -np.concatenate((prof.d, root_p * prof.slope))
    gamma, info = np.linalg.lstsq(a, rhs, rcond=None)[0]
    return float(gamma), float(info)


def _kkt_jacobian(prof, gamma, sigma, root_p):
    """Jacobian of `_kkt_residual` in (u, p, gamma P, I), from the profile's
    standardized thresholds t and densities phi.

    With W' = dW/dx, d' = sum_k W'_k log2(W_k / r_k) and d'' = sum_k W''_k
    log2(W_k / r_k) + sum_k W'_k^2 / (W_k ln 2); summed by parts, the first
    term of d'' is the flow matrix weighted by t_k / sigma.  Moving p_j or
    x_j moves r by W_j or p_j W'_j, which moves d(x_i) by -sum_k W_ik dr_k /
    (r_k ln 2) and d'(x_i) likewise with W'_i.
    """
    x, p, w, r, t, flow = prof.x, prof.p, prof.w, prof.r, prof.t, prof.flow
    n = x.size
    u = x / root_p
    # raising x moves mass phi_k across threshold k from bin k to bin k + 1
    wp = np.zeros_like(w)
    wp[:, 1:] += prof.phi
    wp[:, :-1] -= prof.phi
    fisher = np.divide(wp * wp, w, out=np.zeros_like(w), where=w > 0.0).sum(axis=1)
    curve = (t / sigma * flow).sum(axis=1) + fisher / LN2
    a, b = w / (r * LN2), wp / (r * LN2)
    diag = np.arange(n)
    jac = np.zeros((2 * n + 2, 2 * n + 2))
    jac[:n, :n] = -root_p * (a @ wp.T) * p
    jac[diag, diag] += root_p * prof.slope - 2.0 * gamma * u
    jac[:n, n : 2 * n] = -(a @ w.T)
    jac[:n, 2 * n] = 1.0 - u * u
    jac[:n, 2 * n + 1] = -1.0
    jac[n : 2 * n, :n] = -root_p**2 * (b @ wp.T) * p
    jac[n + diag, diag] += root_p**2 * curve - 2.0 * gamma
    jac[n : 2 * n, n : 2 * n] = -root_p * (b @ w.T)
    jac[n : 2 * n, 2 * n] = -2.0 * u
    jac[2 * n, n : 2 * n] = 1.0
    jac[2 * n + 1, :n] = 2.0 * p * u
    jac[2 * n + 1, n : 2 * n] = u * u
    return jac


def _support_masses(x, p, spec):
    """The mass solve on the support x, warm from p, with a point at 0 added
    when no point of x lies within the budget: the profile of the masses
    it keeps."""
    if not np.any(x * x <= spec.power_constraint):
        k = int(np.searchsorted(x, 0.0))
        x, p = np.insert(x, k, 0.0), np.insert(p, k, 0.0)
    w = bin_probability_matrix(x, spec.quantizer.thresholds, spec.sigma)
    q, _ = _optimal_masses_rows(w, _row_negentropy_bits(w), x * x, spec.power_constraint, start=p)
    keep = q > 0.0
    # rows are elementwise in x, so the kept points' rows are those of w
    return _profile(x[keep], q[keep], spec.quantizer.thresholds, spec.sigma, w[keep])


def _kkt_polish(spec: ChannelSpec, dist: InputDistribution):
    """Polish the support of the cutting-plane optimum `dist` over
    continuous x, by damped Newton on the optimality conditions of a finite
    input (Smith; Huang & Meyn).  By the K+1 theorem an optimal input has
    n <= K + 1 mass points, so with the power multiplier gamma and the rate
    I they form a square system in the 2n + 2 unknowns (x, p, gamma, I):

        d(x_i) + gamma (P - x_i^2) = I  and  d'(x_i) = 2 gamma x_i  at each x_i,
        sum(p) = 1  and  p @ x^2 = P,

    with d(x) = D(W(.|x) || p W) in bits.  `_kkt_jacobian` gives the
    analytic Jacobian; `_kkt_residual` scales the conditions so that x is
    in units of sqrt(P) and gamma in bits per P.

    It starts from the points of `dist` with mass above _KKT_MASS_FLOOR
    and least-squares multipliers, and accepts a step, halved at most
    _KKT_HALVINGS times, only if it lowers the residual's norm.  A full step
    that takes a mass to 0 or below drops the first point to reach it, and
    the polish restarts, after the mass solve re-solves the masses on the
    rest of the support when some point lies strictly inside the budget.
    This removes the grid-split clusters that the cutting plane's fusion
    leaves (such as a point at 0 with a light pair near +/-0.14 in the
    3-bit table cell at 10.939 dB): Newton sends the light masses through 0.
    A step that would reorder two points is cut short.  Where the Newton
    step is singular or not finite, where no step lowers the residual, or
    after _KKT_MAX_STEPS steps, the mass solve takes the support as it
    stands.  The returned input is never below the
    start's mutual information: if it would be, the start is returned.

    Returns the `channel._profile` of the input it reaches and the norm of
    the scaled KKT residual there.
    """
    root_p = math.sqrt(spec.power_constraint)
    thr, sigma = spec.quantizer.thresholds, spec.sigma
    keep = dist.masses > _KKT_MASS_FLOOR
    p = dist.masses[keep]
    start = prof = _profile(dist.locations[keep], p / p.sum(), thr, sigma)
    restart, norm = True, math.inf
    for _ in range(_KKT_MAX_STEPS):
        if restart:
            gamma, info = _multipliers(prof, root_p)
            res = _kkt_residual(prof, gamma, info, root_p)
            norm = float(np.linalg.norm(res))
            restart = False
        if norm <= _KKT_TOL:
            break
        n = prof.x.size
        try:
            step = np.linalg.solve(_kkt_jacobian(prof, gamma, sigma, root_p), -res)
        except np.linalg.LinAlgError:
            break
        # a bin too thin or far out for its log ratios makes the flow NaN
        if not np.isfinite(step).all():
            break
        x, p = prof.x, prof.p
        dx, dp = root_p * step[:n], step[n : 2 * n]
        # a mass the full step takes to 0: drop the first point to reach it
        hit = dp <= -p
        if np.any(hit):
            j = int(np.argmax(np.where(hit, -dp / p, 0.0)))
            keep = np.arange(n) != j
            x, p = x[keep], p[keep] / p[keep].sum()
            # with no point strictly inside the budget the mass solve can
            # only pin the masses, so Newton moves x instead
            inside = np.any(x * x < (1.0 - _RANK_RTOL) * spec.power_constraint)
            prof = _support_masses(x, p, spec) if inside else _profile(x, p, thr, sigma)
            restart = True
            continue
        # a step that would reorder adjacent points stops halfway to the
        # first meeting
        gap, closing = np.diff(x), -np.diff(dx)
        cross = closing >= gap
        limit = 0.5 * float(np.min(gap[cross] / closing[cross])) if np.any(cross) else 1.0
        for halving in range(_KKT_HALVINGS + 1):
            t = limit * 0.5**halving
            trial = _profile(x + t * dx, p + t * dp, thr, sigma)
            trial_gamma, trial_info = gamma + t * step[2 * n], info + t * step[2 * n + 1]
            trial_res = _kkt_residual(trial, trial_gamma, trial_info, root_p)
            trial_norm = float(np.linalg.norm(trial_res))
            if trial_norm < norm:
                break
        else:
            break
        prof, gamma, info, res, norm = trial, trial_gamma, trial_info, trial_res, trial_norm
    if norm > _KKT_TOL:
        # a capped step sequence can stop a flat profile over the budget:
        # scale the support back onto it, or the mass solve would move mass
        # inward to meet it and tilt the output law
        p = prof.p / prof.p.sum()
        scale = math.sqrt(spec.power_constraint / max(float(p @ prof.x**2), spec.power_constraint))
        prof = _support_masses(prof.x * scale, p, spec)
    if prof.rate < start.rate:
        prof = start
    if norm > _KKT_TOL or prof is start:
        norm = float(np.linalg.norm(_kkt_residual(prof, *_multipliers(prof, root_p), root_p)))
    return prof, norm


def duality_upper_bound(spec: ChannelSpec, result: CapacityResult | None = None):
    """Duality upper bound on capacity over continuous x, for any quantizer:
    (bound, output pmf R).  The tightest R is the optimal input's output law.

    `_kkt_polish` moves the support of the cutting-plane optimum `result`
    (solved here when None) to the optimality conditions over continuous x,
    by Newton on their KKT system, and `bounds._certified_bound` certifies
    its output law over continuous x: it proves the sup of the tilted
    divergence profile by branch and bound, each cell bounded by its chord
    plus a curvature term from the monotone log ratio of adjacent bins (the
    Fisher information term dropped), with a rounding allowance, and bounds
    the tails past its grid in closed form.  Both run in the units of
    `_noise_units`.
    """
    scale, spec = _noise_units(spec)
    if result is None:
        dist = optimize_input_cutting_plane(spec).dist
    else:
        dist = _scaled(result.dist, 1.0 / scale)
    r = _kkt_polish(spec, dist)[0].r
    out = OutputPmf(r / r.sum())
    return _certified_bound(spec, out), out


_MASS_FLOOR = 1e-300


def _ba_arrays(w, negent, xsq, gamma, tol, max_iter):
    """Tilted Blahut-Arimoto ascent of I(F) - gamma E[X^2] on a grid.

    The base update p <- p * 2^(d - gamma x^2) / Z is the standard fixed
    point with an exponential power tilt, started from uniform masses; every
    third evaluation applies a squared-extrapolation step in log-mass space
    (Varadhan-Roland style) to collapse the near-unit eigenmode that
    otherwise makes plain iteration crawl.  Extrapolations that fail to keep
    the objective monotone are discarded.  Stops when the sup-gap
    max_j g_j - sum_j p_j g_j, which bounds all remaining improvement, drops
    to tol, and raises RuntimeError if that takes more than max_iter
    evaluations.  Returns (p, d): the masses and their divergence profile.
    """
    n = negent.size
    p = np.full(n, 1.0 / n)
    p /= p.sum()  # normalized like every later iterate
    evals = 0
    sup_gap = math.inf

    def step(q):
        # One evaluation at q: (update of q, divergences, tilted value, sup-gap)
        nonlocal evals
        if evals == max_iter:
            raise RuntimeError(
                f"Blahut-Arimoto did not converge in {max_iter} evaluations "
                f"(sup-gap {sup_gap:.3g} > tol {tol:g})"
            )
        evals += 1
        d = _divergences_bits(w, negent, q @ w)
        g = d - gamma * xsq
        value = float(q @ g)
        gap = float(np.max(g) - value)
        nxt = q * np.exp(LN2 * (g - np.max(g)))
        total = float(nxt.sum())
        if not math.isfinite(total) or total <= 0.0:
            # A degenerate iterate (all mass far from the tilted optimum)
            # can underflow the whole update; leave it unchanged and let
            # the monotonicity safeguard discard the candidate.
            return q, d, value, gap
        return nxt / total, d, value, gap

    while True:
        p1, d, _, sup_gap = step(p)
        if sup_gap <= tol:
            return p, d
        p2, d, value1, sup_gap = step(p1)
        if sup_gap <= tol:
            return p1, d
        u0 = np.log(np.maximum(p, _MASS_FLOOR))
        u1 = np.log(np.maximum(p1, _MASS_FLOOR))
        u2 = np.log(np.maximum(p2, _MASS_FLOOR))
        r = u1 - u0
        v = u2 - 2.0 * u1 + u0
        vv = float(v @ v)
        if vv <= 0.0:
            p = p2
            continue
        alpha = min(max(-math.sqrt(float(r @ r) / vv), -32.0), -1.0)
        u = u0 - 2.0 * alpha * r + alpha * alpha * v
        u -= np.max(u)
        cand = np.exp(u)
        cand /= cand.sum()
        p3, _, value_c, _ = step(cand)
        p = p3 if value_c >= value1 - 1e-12 else p2


def optimize_input_blahut_arimoto(
    spec: ChannelSpec,
    grid: GridConfig | None = None,
    gamma: float = 0.0,
    *,
    tol: float,
    max_iter: int = 100_000,
):
    """Grid-restricted maximizer of the power-penalized mutual information.

    Runs the tilted multiplicative fixed point for a fixed multiplier and
    returns (distribution, value) where value = I(F) - gamma (E[X^2] - P) in
    bits.  By strong duality the value at the optimal multiplier gamma* (the
    cutting plane's CapacityResult.gamma) is the capacity, and any other
    gamma gives a value above it.  The distribution keeps every grid point
    that retains positive mass; no merging is applied, since this routine is
    the raw oracle.  Raises RuntimeError when the sup-gap does not reach
    `tol` within `max_iter` evaluations.

    `tol` is required: where the sup-gap stalls depends on the channel and
    grid (for +-2 at 5 dB and gamma*, 1e-6 converges on 501 points but the
    gap stalls near 4.5e-6 on the default 2,001), so no default is safe.
    """
    if not math.isfinite(gamma) or gamma < 0.0:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma!r}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    power = spec.power_constraint
    xs = (grid or GridConfig()).points(power)
    w = bin_probability_matrix(xs, spec.quantizer.thresholds, spec.sigma)
    xsq = xs**2
    p, d = _ba_arrays(w, _row_negentropy_bits(w), xsq, gamma, tol, max_iter)
    keep = p > 0.0
    dist = InputDistribution(xs[keep], p[keep] / p[keep].sum())
    return dist, float(p @ d) - gamma * (float(p @ xsq) - power)
