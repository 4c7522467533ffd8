"""Self-check suites: structural facts the solvers are supposed to guarantee.

Each check reports a signed margin, and one rule decides every check: it
passes when its margin is >= 0, so a regression shows up as a negative margin
rather than a silent drift.  The sandwich and cardinality suites run on Table
I's channels, its SNRs (`reference.py`) and its K=4 quantizer, and read their
solves through the tables' cache; only the K=2 cardinality cases solve on
their own, on the 501-point scan grid.  The `verify` CLI subcommand is a thin
wrapper over `run_suite`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, Quantizer
from .optimize import optimize_input_cutting_plane
from .quantopt import _SCAN_GRID
from .reference import REFERENCE_TABLES
from .special import convexity_witness, hq_of_sqrt, second_derivative_scan
from .tables import table_i_mutual_information, table_i_upper_bound

# Reference stationary point of the 4-bin channel at 5 dB, used as a spot
# check that the optimizer lands where the duality certificate says it must.
_KKT_SNR_DB = 5.0
_KKT_SUPPORT = (-2.86, -0.52, 0.52, 2.86)
_KKT_GAMMA = 0.1530

_TABLE_I_DB = REFERENCE_TABLES["I"].columns


@dataclass(frozen=True)
class CheckResult:
    """One verified property and its signed margin: it passes when the
    margin is >= 0, with that much room."""

    name: str
    margin: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


def convexity_checks(cache=None) -> list[CheckResult]:
    """Convexity of the binary entropy of the Gaussian tail, h(Q(sqrt(y))).

    A central-difference scan covers (0, 2]; past 2 the closed-form witness
    expression exceeding 1 certifies the second derivative's sign.
    """
    out = []

    grid = np.linspace(0.002, 2.0, 500)
    scan = second_derivative_scan(hq_of_sqrt, grid)
    margin = float(np.min(scan))
    at = float(grid[int(np.argmin(scan))])
    out.append(
        CheckResult(
            name="second difference positive on (0, 2]",
            margin=margin,
            detail=f"min {margin:.6g} at y={at:.4f}",
        )
    )

    w2 = float(convexity_witness(2.0))
    dev = abs(w2 - 1.133)
    out.append(
        CheckResult(
            name="witness value at y=2",
            margin=5e-3 - dev,
            detail=f"witness(2) = {w2:.6f}, expected 1.133 +/- 0.005",
        )
    )

    tail = np.linspace(2.0, 60.0, 300)
    wmin = float(np.min(convexity_witness(tail)))
    out.append(
        CheckResult(
            name="witness above 1 on [2, 60]",
            margin=wmin - 1.0,
            detail=f"min witness {wmin:.6g}",
        )
    )
    return out


def kkt_checks(cache=None) -> list[CheckResult]:
    """Optimality conditions at the 4-bin, 5 dB spot check."""
    result = table_i_mutual_information(_KKT_SNR_DB, cache)
    out = []

    support = np.sort(np.asarray(result.dist.locations))
    expected = np.asarray(_KKT_SUPPORT)
    if support.size == expected.size:
        err = float(np.max(np.abs(support - expected)))
        detail = "support " + ", ".join(f"{x:.4f}" for x in support)
    else:
        err = float("inf")
        detail = f"support has {support.size} points, expected {expected.size}"
    out.append(
        CheckResult(
            name="support matches reference points",
            margin=0.05 - err,
            detail=detail,
        )
    )

    gdev = abs(result.gamma - _KKT_GAMMA)
    out.append(
        CheckResult(
            name="power multiplier near reference",
            margin=0.02 - gdev,
            detail=f"gamma = {result.gamma:.6f}, expected {_KKT_GAMMA} +/- 0.02",
        )
    )

    viol = result.kkt_max_violation
    out.append(
        CheckResult(
            name="stationarity residual small",
            margin=5e-3 - viol,
            detail=f"max residual {viol:.3e}",
        )
    )
    return out


def sandwich_checks(cache=None) -> list[CheckResult]:
    """Duality bound dominates the achieved rate at every probed SNR."""
    out = []
    for db in _TABLE_I_DB:
        mi = table_i_mutual_information(db, cache).capacity
        ub = table_i_upper_bound(db, cache)
        gap = ub - mi
        out.append(
            CheckResult(
                name=f"bound >= rate at {db:g} dB",
                margin=gap,
                detail=f"rate {mi:.6f}, bound {ub:.6f}",
            )
        )
    return out


def _sign_capacity(snr_db: float, cache=None):
    """The sign quantizer's capacity solve on the scan grid (not cached)."""
    spec = ChannelSpec.from_snr_db(snr_db, Quantizer((0.0,)))
    return optimize_input_cutting_plane(spec, grid=_SCAN_GRID)


def cardinality_checks(cache=None) -> list[CheckResult]:
    """Optimal support needs at most one more point than output levels: the
    sign quantizer's solves (K=2) and Table I's (K=4), at Table I's SNRs."""
    out = []
    for bins, solve in ((2, _sign_capacity), (4, table_i_mutual_information)):
        for db in _TABLE_I_DB:
            size = int(np.asarray(solve(db, cache).dist.locations).size)
            out.append(
                CheckResult(
                    name=f"support size at K={bins}, {db:g} dB",
                    margin=float(bins + 1 - size),
                    detail=f"{size} points for {bins} output levels",
                )
            )
    return out


SUITES = {
    "convexity": convexity_checks,
    "kkt": kkt_checks,
    "sandwich": sandwich_checks,
    "cardinality": cardinality_checks,
}


def run_suite(name: str, cache=None) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(cache))
        return out
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES) + ['all']}"
        ) from None
    return suite(cache)


def all_passed(records) -> bool:
    return all(r.passed for r in records)
