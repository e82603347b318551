"""Start-up cost curves and their minimal step-function approximation.

A unit that has been offline for ``l`` periods costs

    K(l) = V * (1 - exp(-lam * l)) + F

to restart. The MILP formulations cannot carry the exponential directly,
so it is approximated over the off-times 1..T-1 by a piecewise-constant
nondecreasing step function whose relative error never exceeds ``ktol``.
``approximate_steps`` builds one greedily; ``minimal_steps_oracle`` is an
independent dynamic program that certifies the step count is minimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Unit


def startup_cost(unit: Unit, l: int) -> float:
    """Exact restart cost after ``l`` offline periods: V(1-e^{-lam*l}) + F."""
    if l < 0:
        raise ValueError(f"off-time must be >= 0, got {l}")
    return unit.startup_var_cost * (1.0 - math.exp(-unit.heat_loss * l)) \
        + unit.startup_fixed_cost


@dataclass
class Step:
    lo: int       # first off-time covered (inclusive)
    hi: int       # last off-time covered (inclusive)
    value: float  # constant approximate cost on [lo, hi]


@dataclass
class StepFunction:
    """Piecewise-constant approximation of a start-up cost curve.

    The steps partition the off-times 1..domain_end consecutively with
    strictly increasing values, and each value stays within the relative
    band ``|value - K(l)| <= ktol * K(l)`` for every covered off-time l.
    """

    steps: list[Step]
    domain_end: int
    ktol: float

    def __post_init__(self):
        lo = 1
        prev = -math.inf
        for s in self.steps:
            if s.lo != lo or s.hi < s.lo:
                raise ValueError("steps must partition the off-time range "
                                 "consecutively with lo <= hi")
            if s.value <= prev:
                raise ValueError("step values must be strictly increasing")
            prev = s.value
            lo = s.hi + 1
        if self.steps and lo != self.domain_end + 1:
            raise ValueError(f"steps end at {lo - 1}, expected {self.domain_end}")

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _band_feasible(k_lo: float, k_hi: float, ktol: float) -> bool:
    """Whether one constant can cover costs k_lo..k_hi within the band.

    For a nondecreasing cost curve an interval admits a constant iff the
    tightest upper allowance at the low end reaches the lowest lower
    allowance at the high end. Kept exact (no epsilon) so that ktol = 0
    collapses to "merge only identical costs".
    """
    return (1.0 - ktol) * k_hi <= (1.0 + ktol) * k_lo


def approximate_steps(unit: Unit, horizon: int, ktol: float) -> StepFunction:
    """Greedy minimal step cover of the cost curve over off-times 1..T-1.

    Scans left to right and extends the current step while a single
    constant can still serve the whole interval; each emitted value is the
    midpoint of the interval's allowance band, which keeps it inside the
    band at both ends, makes the sequence strictly increasing, and
    reproduces the exact costs when ``ktol`` is 0.
    """
    if not ktol >= 0:  # also rejects nan
        raise ValueError(f"ktol must be >= 0, got {ktol}")
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    end = horizon - 1
    cost = [startup_cost(unit, l) for l in range(end + 1)]  # cost[0] unused here
    steps: list[Step] = []
    lo = 1
    while lo <= end:
        hi = lo
        while hi + 1 <= end and _band_feasible(cost[lo], cost[hi + 1], ktol):
            hi += 1
        value = 0.5 * ((1.0 - ktol) * cost[hi] + (1.0 + ktol) * cost[lo])
        steps.append(Step(lo, hi, value))
        lo = hi + 1
    return StepFunction(steps=steps, domain_end=end, ktol=ktol)


def minimal_steps_oracle(unit: Unit, horizon: int, ktol: float) -> int:
    """Exact minimum piece count by dynamic programming over breakpoints.

    best[j] = fewest pieces covering off-times 1..j; a piece [i, j] is
    usable iff its whole cost range fits one band-feasible constant. Works
    for any nondecreasing tabulated curve, so it certifies the greedy
    without sharing its reasoning. The tests use it as the reference
    step count for ``approximate_steps``.
    """
    if not ktol >= 0:  # also rejects nan
        raise ValueError(f"ktol must be >= 0, got {ktol}")
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    end = horizon - 1
    cost = [startup_cost(unit, l) for l in range(end + 1)]
    best = [0] * (end + 1)  # best[0] = 0 pieces for the empty prefix
    for j in range(1, end + 1):
        b = math.inf
        for i in range(j, 0, -1):  # candidate piece [i, j]
            if not _band_feasible(cost[i], cost[j], ktol):
                break  # longer pieces only get worse on a monotone curve
            if best[i - 1] + 1 < b:
                b = best[i - 1] + 1
        best[j] = b
    return best[end]

