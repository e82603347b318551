"""Bundled exact LP/MIP solver.

The LP engine is a bounded dual simplex over a dense basis inverse,
updated by a rank-1 pivot and refactorized every REFACTOR_EVERY pivots.
No presolve, no scaling, no cuts — formulation comparisons need the raw
constraint systems, so the solver must not tighten anything behind the
model's back. ``solve_lp`` only checks, before any simplex work, that
each row can be met within the variable bounds (``_unreachable_row``); a
row that cannot makes the LP infeasible at once. The check changes no
row and no bound, and it reports infeasible only where the simplex could
not have reported optimal.

Every LP enters the dual loop through ``LpCore.solve``. Without a
parent it starts from the slack basis (every ``solve_lp``, every root
that ``solve_mip`` is given no start for).
A branch-and-bound child's warm start is its parent's optimal
``_LpResult``: copies of the parent's basis, statuses and inverse, not
a refactorization. An LP ends optimal only on a checked inverse (see
below), so the inverse a child starts from is within CHECK_TOL of an
exact one, and the check at the child's own verdict bounds the drift
that the child adds. An optimal result also keeps the nonbasic values,
the unclipped basic values and the reduced costs that its verdict
computed from that inverse. A child fixes a binary that is basic in its
parent, so none of its nonbasic values moves, and it takes copies of
those three (a ``_Warm`` start) instead of computing the same bits
again; so does the rounding LP below, which fixes each nonbasic binary
where it rests. A child is handed its first pivot too: the branched
binary's row is its only row out of bounds, ``_branch`` has already
formed that row's pivot row for the branching penalty, and it picks the
entering column from that row by the loop's own rule. A child whose
pivot row has no entry of at least DUAL_PIVOT_TOL gets no step; it still
takes the copied values, and its first pass refactorizes before it
pivots. Every other LP settles before its first iteration: ``solve_lp``,
a root, and ``LpCore.solve`` given a bare parent result and other
bounds. The tree therefore holds one result, its x, its fresh values and
its m×m inverse, per open parent, shared by its two children. The slack
basis starts from the identity, bit for bit its computed inverse. It
rests each structural at its lower bound when finite, else at its upper
bound when finite, else free at 0; a column with both bounds finite and
a negative cost rests at its upper bound.
Both bases are dual feasible on every unit-commitment model: fixing a
binary keeps the parent's reduced costs sign-correct, and every cost is
>= 0. The leaving row is chosen by dual steepest edge (Forrest &
Goldfarb, Math. Prog. 57, 1992): the largest viol^2 / ||Binv[r]||^2
among the rows outside their bounds by more than FEAS_TOL, ties going to
the lowest row. The weights are exact, computed from the dense inverse
each iteration at the O(m^2) cost of the rank-1 update, so no reference
framework and no update formulas are needed. The entering column
minimizes |reduced cost| / |pivot-row entry| over the columns that push
the leaving variable back, ties going to the largest entry and then to
the lowest index. The reduced costs d follow the pivot row
alpha = Binv[r] A that this ratio test already holds:
d -= (d_q / alpha_q) alpha, with d_q = 0, in O(n) per pivot. They are
recomputed from scratch, as c - (c_B Binv) A, on every refactorized or
checked basis, and dual feasibility is tested on those fresh values only.

A verdict rests on a checked inverse, not on a second factorization
(Koberstein, The dual simplex method, PhD thesis, Paderborn 2005). The
dual reports optimal when no row is out of its bounds, and infeasible
when a violated row has no column that can repair it. Before either, the
rank-1-updated inverse is checked (``_verified``): the residual
||A[:, basis] Binv - I|| in the infinity norm must be at most CHECK_TOL,
and the condition number that ``_factorize`` refuses at 1/eps must stay
below it. If the check fails, the basis is refactorized. Either way xB
and the reduced costs are recomputed from that inverse and the loop
decides again. An optimal end also passes the dual-feasibility test and
the bound and residual checks of ``_finish``.

A start basis that is not dual feasible is repaired first. A column with
both bounds finite moves to the bound its reduced cost prefers. If a
column with an infinite bound prices wrong, a dual phase one solves the
auxiliary problem min c'x, A x + s = 0, over the box [-1, 1] for free
columns, [0, 1] for columns bounded only below, [-1, 0] for those
bounded only above and [0, 0] for the rest, with the same loop from the
same basis (Koberstein 2005). Its optimum is 0 exactly when the LP's
dual is feasible, and then its final basis, each column resting at the
bound its reduced cost prefers, starts phase two. Otherwise the LP is
infeasible or unbounded, and one more run with a zero cost tells which.

Three guards keep the loop going where a textbook dual would fail. A
pivot-row entry below DUAL_PIVOT_TOL is taken only when a
refactorization (not a checked inverse) leaves no larger one, and the
basis is refactorized right after it. When the dual objective has not
risen for 10·(m+n) iterations, or a refactorization finds the basis
singular and the last invertible one is restored, the loop switches to
Bland's rule (Bland, Math. Oper. Res. 2, 1977): the leaving row is the
violated one whose basic column has the lowest index, and ratio ties go
to the lowest column index. After five restores a singular basis ends
the solve in one place: ``refresh`` raises ``_Singular``, and
``_Simplex.dual`` returns it as the solve's error.

MIP solving is best-first branch-and-bound on binary variables, with
node selection by (bound, creation index). A node branches on one of its
fractional binaries, chosen by Driebeek–Tomlin penalties
(``_branch``): the objective rise of the dual simplex's first step in
each child, read off the node's optimal basis, which bounds that child's
optimum from below. The branch variable has the largest product score
max(D, 1e-6)·max(U, 1e-6) of its down and up penalties (Achterberg, Koch
& Martin, Oper. Res. Lett. 33, 2005), ties within 1e-9 relative going to
the lowest variable index. Each child's bound is its parent's objective
plus its own penalty. A child whose penalty is infinite has no column
that can start that step, so its LP would end infeasible after 0
iterations; it is never pushed. Node and iteration counts are
deterministic for a fixed BLAS library, kernel set and thread count; a
product can round differently under another and lead to another pivot,
or flip a check of the inverse. The seeded 3×12 extended/one_bin root
takes 199 iterations under one thread and 196 under two. The gap-0 tree
of extended/temp on ``generate_instance(5021, 2, 3)`` takes 69 LP
iterations over 10 nodes under both OpenBLAS's SkylakeX and Haswell
kernels, but that of extended/three_bin on
``generate_instance(1032, 3, 3)`` takes 132 over 19 under SkylakeX and
131 under Haswell.
The root node is solved whatever the time budget, on the model's own
bounds; its objective is kept as ``Solution.root_bound`` (NaN unless
that LP is optimal), so a caller that wants both z_LP and z_MIP needs
one run. Without a start the root is solved cold, i.e. exactly as
``solve_lp`` solves a model that passes its row check (a model that
fails it has no optimal root either).

A start (``root_start``) is the optimal basis of a base model that the
MIP's model extends: the same columns, bounds, costs and rows first,
then more rows and columns, whose new columns have no term in the base
rows. That is how each start-up module extends its instance's base, so
one base LP serves the four modules' roots. The root then starts, as a
child does, from the base's basis, statuses and checked inverse,
extended by one basic column per new row. A crash (Bixby, ORSA J.
Computing 4(3), 1992; ``_crash``) puts some new rows on a new column of
cost 0 in place of their slack: equality rows first, then the rest,
each row taking the untaken such column with its largest |coefficient|;
the other new rows keep their slacks. With X the new rows restricted to
the base's basic columns and D their block over the new basic columns
(the identity where a slack stayed), the extended basis is
[[B_b, 0], [X, D]], and its inverse is
[[Binv_b, 0], [-D^-1 X Binv_b, D^-1]]. Only S, the picks' block of
their own rows, is inverted (see ``_extended``); an S that
``_factorize`` refuses leaves every new row on its slack, so that D = I
and the lower block is -X Binv_b, one product. That inverse stands in
for a checked one as a parent's does: its top block is the base's
checked inverse, and the lower block is a few products with it, whose
rounding adds about m·eps·|X||Binv_b|, times up to κ∞(S), to the
residual. The start is dual feasible: every new basic column costs
0, so the new rows' duals are 0, every old column keeps its base reduced
cost and every new column's reduced cost is its cost; a new column and
a displaced slack rest where ``_resting`` puts them for that cost. A
new column has no term in a base row, so the base rows keep the base's
basic values, and the dual simplex starts with only the new rows' basic
columns out of their bounds. A crashed row spares the dual simplex the
pivot that would have taken its slack out of the basis, as ``temp``'s
rows defining its temperature and heating columns otherwise cost. The
root's optimum is the same LP's, but it can be another vertex of it,
and its objective can differ from a cold root's in the last bits.

With a positive gap target, an optimal root that
is fractional is followed by one more LP: the root's binaries fixed at
their nearest integers, solved from the root's result. If it is
optimal, it is the first incumbent, and the gap test may end the search
at the next node popped. At gap 0 it is skipped: best-first search pops
every node whose bound is below the optimum whatever the incumbent, so
it would only cost an LP. ``Solution.nodes`` counts the nodes whose LP
was solved: not the rounding LP, not a child closed by an infinite
penalty, and not one popped after the incumbent has reached its bound.
``Solution.iterations`` of a MIP is the LP iteration count summed over
all nodes and the rounding LP. One DEBUG line per ``solve_mip`` reports
status, nodes, iterations, how the root started (the slack basis, or a
base's basis with how many of the new rows the crash put on a column)
and its iterations, the children solved from their parent's step,
those without one and those an infinite penalty closed, root and best
bound, and seconds, and one INFO line per new incumbent reports it
with the nodes solved so far, the best bound of the open nodes and the
relative gap.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .milp import INF, KINDS, Model

log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
RESID_TOL = 1e-6  # row residual accepted at the end, relative to 1 + max|b|
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10  # smallest pivot-row entry that can repair a row
DUAL_PIVOT_TOL = 1e-7  # smaller entries are taken only when refactorized
INT_TOL = 1e-6
REFACTOR_EVERY = 64
CHECK_TOL = 1e-11  # residual ||B Binv - I|| an updated inverse may carry
_COND_LIMIT = 1.0 / np.finfo(np.float64).eps  # κ∞ at which a basis is singular
BACKENDS = ("reference",)  # every backend runs in the process


@dataclass
class SolveConfig:
    """Knobs of a MIP solve. ``backend`` must be one of BACKENDS; any
    other name raises ValueError naming it."""

    # relative MIP gap target (0 = prove optimal); above 0 it also buys
    # one LP on the rounded root (see ``solve_mip``)
    gap: float = 1e-6
    time_limit: float = 3600.0   # seconds
    backend: str = "reference"

    def __post_init__(self):
        if not self.gap >= 0:  # also rejects nan
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if not self.time_limit > 0:  # also rejects nan
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected "
                             f"one of {BACKENDS}")


@dataclass
class Solution:
    """Outcome of a solve: status, objective, bound, variable values."""

    status: str                      # optimal | infeasible | unbounded |
                                     # gap_reached | time_limit | error
    objective: float = math.nan
    best_bound: float = math.nan
    values: dict[str, float] = field(default_factory=dict)
    nodes: int = 0
    iterations: int = 0              # LP iterations, summed over all LPs
    message: str = ""
    root_bound: float = math.nan     # root relaxation objective (MIP only)


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

_BASIC, _AT_LOWER, _AT_UPPER, _AT_FREE = 0, 1, 2, 3
# which way a column may move from its status, indexed by vstat (an intp
# array: numpy indexes with an int8 one about four times slower)
_CAN_INC = np.array([False, True, False, True])
_CAN_DEC = np.array([False, False, True, True])

# bounds of the slack that carries each row sense
_SLACK_LO = {"<=": 0.0, ">=": -INF, "=": 0.0}
_SLACK_UP = {"<=": INF, ">=": 0.0, "=": 0.0}


@dataclass
class _LpResult:
    status: str
    objective: float
    x: np.ndarray | None          # structural variable values
    # the final basis and nonbasic statuses, which a child starts from;
    # set when optimal, None for every other status
    basis: np.ndarray | None
    vstat: np.ndarray | None
    iterations: int
    message: str = ""
    # the inverse of A[:, basis] that the optimal verdict rested on: a
    # refactorization's, or a rank-1-updated one that ``_verified``
    # accepted, so a child that starts from this result need not invert
    # its basis again; set when optimal, like basis
    Binv: np.ndarray | None = None
    # the fresh nonbasic values, unclipped basic values and reduced costs
    # that verdict rested on: ``_branch`` reads rc, and a ``_Warm``
    # start copies all three; set when optimal, like basis
    rc: np.ndarray | None = None
    xN: np.ndarray | None = None
    xB: np.ndarray | None = None


class _Warm(NamedTuple):
    """A start from an optimal parent result whose nonbasic values the
    LP's bounds leave where they are: a branch-and-bound child, whose
    branched binary is basic in the parent, or the rounding LP, which
    fixes each nonbasic binary where it rests. The LP takes copies of the
    parent's fresh xN, xB and rc, bit for bit what ``settle`` would
    compute from the parent's inverse, and then applies step, if any: its
    first pivot (r, q, alpha), which ``_branch`` read off the pivot row
    that priced the child's penalty. Every child starts this way, with a
    step or without one."""

    parent: _LpResult
    step: tuple[int, int, np.ndarray] | None = None


class _Singular(Exception):
    """No invertible basis is left; ``_Simplex.dual`` ends the solve."""


class LpCore:
    """Standard-form data for one model: min c'x, A x + s = b, l <= . <= u.

    One slack column per row carries the sense through its bounds
    (<= : s in [0, inf), >= : s in (-inf, 0], = : s fixed at 0). The core
    is built once per model; repeated solves may override the structural
    bounds (how branch-and-bound fixes binaries) and reuse everything.
    """

    def __init__(self, model: Model):
        model.freeze()
        self.model = model
        m = model.n_constraints
        ns = model.n_variables
        self.n_struct = ns
        self.m = m
        A = np.zeros((m, ns + m))
        rows = np.arange(m)
        A[np.repeat(rows, np.diff(model.starts)),
          np.asarray(model.ids)] = np.asarray(model.coeffs)
        A[rows, ns + rows] = 1.0
        self.A = A
        self.b = np.array(model.rhs, dtype=np.float64)
        c = np.zeros(ns + m)
        c[:ns] = np.asarray(model.objective)
        self.c = c
        lo = np.empty(ns + m)
        up = np.empty(ns + m)
        lo[:ns] = np.asarray(model.lb)
        up[:ns] = np.asarray(model.ub)
        lo[ns:] = [_SLACK_LO[sense] for sense in model.senses]
        up[ns:] = [_SLACK_UP[sense] for sense in model.senses]
        self.lo = lo
        self.up = up
        self.resid_tol = _resid_tol(self.b)
        self.binary_ids = np.flatnonzero(
            np.asarray(model.kinds) == KINDS.index("binary"))

    def solve(self, lo: np.ndarray | None = None, up: np.ndarray | None = None,
              parent: _LpResult | _Warm | None = None) -> _LpResult:
        """The dual simplex within bounds lo, up (the core's by default),
        from the slack basis or from copies of an optimal parent's basis,
        statuses and checked inverse, which ``pivot`` updates in place.
        The inherited inverse counts as checked, not as refactorized: a
        tiny pivot needs a refactorization first. A bare parent result
        (the module root that ``_extended`` builds, or a caller's start on
        other bounds) settles its start on the bounds given, whatever they
        are; a ``_Warm`` start, whose bounds must leave the parent's
        nonbasic values as they are, takes the parent's fresh values and
        its first step, if it has one."""
        lo = self.lo if lo is None else lo
        up = self.up if up is None else up
        if parent is None:
            return _Simplex(self.A, self.b, self.c, lo, up,
                            *_cold_start(self.A, lo, up, self.c),
                            resid_tol=self.resid_tol).dual()
        state = step = None
        if isinstance(parent, _Warm):
            parent, step = parent
            state = (parent.xN.copy(), parent.xB.copy(), parent.rc.copy())
        return _Simplex(self.A, self.b, self.c, lo, up, parent.basis.copy(),
                        parent.vstat.copy(), parent.Binv.copy(),
                        factored=False, resid_tol=self.resid_tol,
                        state=state, step=step).dual()


def _resid_tol(b):
    """The largest row residual ``_finish`` accepts: RESID_TOL * (1 +
    max|b|)."""
    return RESID_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))


def _resting(lo, up, d, basis):
    """Status of each column for this basis: basic, or resting at the
    bound its reduced cost d prefers when both bounds are finite, else at
    its finite bound, else free at 0."""
    vstat = np.where((lo > -INF) & ~((d < 0) & (up < INF)), _AT_LOWER,
                     np.where(up < INF, _AT_UPPER, _AT_FREE)).astype(np.intp)
    vstat[basis] = _BASIC
    return vstat


def _cold_start(A, lo, up, c):
    """Slack basis, each structural resting where ``_resting`` puts it
    for the reduced costs c, and its inverse: the identity, bit for bit
    what inverting the slack columns would give."""
    m, n = A.shape
    basis = np.arange(n - m, n, dtype=np.int64)
    return basis, _resting(lo, up, c, basis), np.eye(m)


def _nonbasic_values(vstat, lo, up):
    x = np.zeros(len(vstat))
    at_l = vstat == _AT_LOWER
    at_u = vstat == _AT_UPPER
    x[at_l] = lo[at_l]
    x[at_u] = up[at_u]
    return x


def _directions(vstat, movable):
    """Masks of the columns that may rise and of those that may fall
    from where they rest; basic and fixed columns do neither."""
    return _CAN_INC[vstat] & movable, _CAN_DEC[vstat] & movable


def _priced_wrong(inc, dec, rc):
    """Which nonbasic columns the reduced costs rc would pay to leave the
    bound they rest at (the dual infeasibilities), given the
    ``_directions`` masks inc and dec."""
    return (inc & (rc < -OPT_TOL)) | (dec & (rc > OPT_TOL))


class _Simplex:
    """The state of one bounded dual simplex solve.

    The basis changes only through ``pivot`` (a rank-1 update of Binv
    and of the reduced costs rc, refactorized every REFACTOR_EVERY
    pivots) and ``refresh``. ``fresh`` says that xB and rc were just
    recomputed on a checked or refactorized inverse, so that a verdict
    may rest on them; ``factored``, that Binv is a refactorization's
    (or the slack basis's identity) with no update since. A solve starts
    with ``settle`` on its start inverse, unless it is handed the fresh
    state (xN, xB, rc) of that inverse; then, if one is handed over, with
    step: a first pivot (r, q, alpha) that its first pass would take.
    The nonbasic values xN follow each pivot, so that a settle on a
    checked inverse keeps them; only a new basis from ``refresh`` or from
    the dual phase one rebuilds them. The state lives on an
    object rather than in nested closures: under CPython 3.11, closures
    over 20 variables made per solve raised a process's peak RSS by about
    0.3 MB (their freed closure tuples piled up until a full garbage
    collection)."""

    def __init__(self, A, b, c, lo, up, basis, vstat, Binv, iters=0,
                 factored=True, resid_tol=None, state=None, step=None):
        self.A, self.b, self.c, self.lo, self.up = A, b, c, lo, up
        m, n = A.shape
        self.basis, self.vstat, self.Binv = basis, vstat, Binv
        self.max_iter = 10000 + 200 * (m + n)
        self.stall_limit = 10 * (m + n)
        self.bland = False
        self.since_refactor = 0
        self.factored = factored  # Binv is a refactorization's, not updated
        self.iters = iters
        self.movable = (up - lo) > 0  # fixed columns never enter
        self.ckpt = (basis.copy(), vstat.copy())  # last invertible basis
        self.restores = 0
        self.resid_tol = _resid_tol(b) if resid_tol is None else resid_tol
        self.step = step
        if state is None:
            self.settle()
        else:
            self.xN, self.xB, self.rc = state
            self.fresh = True

    def error(self, message):
        return _LpResult("error", math.nan, None, None, None, self.iters,
                         message)

    def settle(self, keep_xN=False):
        """Recompute xB and the reduced costs rc from scratch from Binv,
        which a verdict may now rest on, and the nonbasic values xN from
        the statuses unless keep_xN: the values the pivots kept are the
        same bits."""
        A = self.A
        if not keep_xN:
            self.xN = _nonbasic_values(self.vstat, self.lo, self.up)
        self.xB = self.Binv @ (self.b - A @ self.xN)
        self.rc = self.c - (self.c[self.basis] @ self.Binv) @ A
        self.fresh = True

    def verify(self):
        """Settle on the updated Binv if ``_verified`` accepts it for the
        current basis, else refactorize."""
        if _verified(self.A, self.basis, self.Binv):
            self.settle(keep_xN=True)
        else:
            self.refresh()

    def refresh(self):
        """Refactorize the current basis and ``settle`` on it. A
        drifted Binv can accept a pivot that is zero in exact arithmetic,
        leaving a basis behind that ``_factorize`` finds singular; in that
        case restore the last good checkpoint and switch to Bland's rule
        so the replayed trajectory diverges from the poisoned one. Raises
        _Singular if no invertible basis is left."""
        A = self.A
        B = _factorize(A, self.basis)
        if B is None:
            if self.restores >= 5:
                raise _Singular
            self.restores += 1
            self.bland = True
            self.basis = self.ckpt[0].copy()
            self.vstat = self.ckpt[1].copy()
            # the checkpoint inverted fine before, or is a child's start,
            # whose inverse passed the check at its parent's verdict
            B = _factorize(A, self.basis)
            if B is None:  # pragma: no cover
                raise _Singular
        self.ckpt = (self.basis.copy(), self.vstat.copy())
        self.Binv = B
        self.since_refactor = 0
        self.factored = True
        self.settle()

    def pivot(self, r, q, alpha, rising, refactor):
        """Move nonbasic column q into row r, whose pivot row is alpha =
        Binv[r] A, until the variable of row r reaches the bound it
        violates and leaves there: its lower bound if rising, else its
        upper one; count the iteration and refactorize when due, or at
        once if refactor."""
        basis, vstat, xN, xB = self.basis, self.vstat, self.xN, self.xB
        w = self.Binv @ self.A[:, q]
        leave = int(basis[r])
        bound = self.lo[leave] if rising else self.up[leave]
        delta = (xB[r] - bound) / alpha[q]
        vstat[leave] = _AT_LOWER if rising else _AT_UPPER
        xN[leave] = bound
        enter_val = (xN[q] if vstat[q] != _AT_FREE else 0.0) + delta
        xB -= delta * w
        xB[r] = enter_val
        vstat[q] = _BASIC
        xN[q] = 0.0
        basis[r] = q

        self.iters += 1
        self.since_refactor += 1
        self.fresh = self.factored = False
        if refactor or self.since_refactor >= REFACTOR_EVERY:
            self.refresh()
            return
        Binv = self.Binv
        row = Binv[r] / w[r]
        Binv -= w[:, None] * row
        Binv[r] = row
        # the dual step that prices q at zero, along the pivot row
        rc = self.rc
        rc -= (rc[q] / alpha[q]) * alpha
        rc[q] = 0.0

    def dual(self) -> _LpResult:
        """Run the bounded dual simplex to the end of the solve."""
        try:
            return self.iterate()
        except _Singular:
            return self.error("basis became singular")

    def iterate(self) -> _LpResult:
        """The dual loop, which ``_Singular`` ends early."""
        A, b, c, lo, up = self.A, self.b, self.c, self.lo, self.up
        movable = self.movable
        n = A.shape[1]
        # per-column buffers, reused every pass
        mag, abs_rc, ratios = np.empty(n), np.empty(n), np.empty(n)
        best = -INF
        stalled = 0
        if self.step is not None:
            # the first pass's pivot, handed over: that pass would find the
            # start fresh and dual feasible, row r the only one out of its
            # bounds and q its entering column, and would set best here
            r, q, alpha = self.step
            best = float(c[self.basis] @ self.xB + c @ self.xN)
            k = self.basis[r]
            self.pivot(r, q, alpha,
                       bool(lo[k] - self.xB[r] > self.xB[r] - up[k]), False)
        while True:
            if self.iters >= self.max_iter:
                return self.error("iteration limit exceeded")
            rc = self.rc
            inc, dec = _directions(self.vstat, movable)
            if self.fresh and np.count_nonzero(_priced_wrong(inc, dec, rc)):
                res = self.make_dual_feasible(rc)
                if res is not None:
                    return res
                continue
            basis, vstat, Binv = self.basis, self.vstat, self.Binv
            xB, xN = self.xB, self.xN

            short = lo[basis] - xB
            over = xB - up[basis]
            viol = np.maximum(short, over)
            out = viol > FEAS_TOL
            if not np.count_nonzero(out):
                if self.fresh:
                    return _finish(A, b, c, lo, up, basis, vstat, Binv, xB,
                                   self.iters, xN, rc, self.resid_tol)
                self.verify()
                continue

            # the dual objective is the current point's cost; it must rise
            if not self.bland:
                obj_now = float(c[basis] @ xB + c @ xN)
                if obj_now > best + 1e-12 * (1.0 + abs(obj_now)):
                    best, stalled = obj_now, 0
                else:
                    stalled += 1
                    if stalled > self.stall_limit:
                        log.debug("dual simplex: switching to Bland's rule "
                                  "after %d stalled iterations", stalled)
                        self.bland = True

            if self.bland:
                rows = out.nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            else:
                # dual steepest edge: the largest viol^2 / ||Binv[r]||^2,
                # with exact weights from the dense inverse
                score = np.where(out, viol * viol, 0.0)
                score /= np.einsum("ij,ij->i", Binv, Binv)
                r = int(score.argmax())  # first max -> lowest row on ties

            # entering column: one whose move pushes x_B[r] toward the
            # violated bound; the smallest |rc| / |alpha| keeps every
            # reduced cost sign-correct
            rising = bool(short[r] > over[r])
            alpha = Binv[r] @ A
            # x_B[r] falls as a column with alpha > 0 rises, so a rising
            # x_B[r] needs columns with alpha < 0 to rise or alpha > 0 to
            # fall, and a falling one the reverse
            up_ok, down_ok = (dec, inc) if rising else (inc, dec)
            eligible = ((up_ok & (alpha > PIVOT_TOL))
                        | (down_ok & (alpha < -PIVOT_TOL)))
            if not np.count_nonzero(eligible):
                if self.fresh:
                    return _LpResult("infeasible", math.nan, None, None,
                                     None, self.iters)
                self.verify()
                continue
            np.abs(alpha, out=mag)
            large = eligible & (mag >= DUAL_PIVOT_TOL)
            small = not np.count_nonzero(large)
            if not small:
                eligible = large
            elif not self.factored:
                # tiny entries may be drift; look again on a refactorization
                self.refresh()
                continue
            ratios.fill(INF)
            np.divide(np.abs(rc, out=abs_rc), mag, out=ratios, where=eligible)
            q = _entering(ratios, mag, self.bland)
            self.pivot(r, q, alpha, rising, small)

    def make_dual_feasible(self, rc):
        """Repair a fresh basis on which the reduced costs rc price some
        column wrong. Returns None once the basis is dual feasible, else
        the end of the solve: unbounded, infeasible or an error.

        Only a column with an infinite bound needs the dual phase one of
        the module docstring; the others just rest where ``_resting``
        puts them."""
        A, c, lo, up = self.A, self.c, self.lo, self.up
        boxed = (lo > -INF) & (up < INF)
        wrong = _priced_wrong(*_directions(self.vstat, self.movable), rc)
        if np.count_nonzero(wrong & ~boxed):
            aux_lo = np.where(lo > -INF, 0.0, -1.0)
            aux_up = np.where(up < INF, 0.0, 1.0)
            aux = _Simplex(A, np.zeros(len(self.b)), c, aux_lo, aux_up,
                           self.basis, _resting(aux_lo, aux_up, rc,
                                                self.basis),
                           self.Binv, self.iters, self.factored)
            res = aux.dual()
            self.iters = aux.iters
            if res.status != "optimal":
                return self.error(
                    f"dual phase one: {res.message or res.status}")
            self.basis, self.Binv = aux.basis, aux.Binv
            rc = aux.rc  # the costs are c in both problems
        self.vstat = _resting(lo, up, rc, self.basis)
        self.refresh()
        if not np.count_nonzero(_priced_wrong(
                *_directions(self.vstat, self.movable), self.rc)):
            return None
        # the LP's dual is infeasible, so the LP is unbounded if it has a
        # feasible point at all, and infeasible if not
        res = _Simplex(A, self.b, np.zeros(len(c)), lo, up, self.basis,
                       self.vstat, self.Binv, self.iters,
                       resid_tol=self.resid_tol).dual()
        if res.status == "optimal":
            return _LpResult("unbounded", -INF, None, None, None,
                             res.iterations)
        return res


def _entering(ratios, mag, bland):
    """The entering column of a pivot row alpha, given mag = |alpha| and
    the ratios |rc| / |alpha| at its eligible columns, INF at the others:
    the smallest ratio, ties within 1e-12 going to the largest |alpha| and
    then to the lowest index, or under Bland's rule to the lowest index."""
    ties = (ratios <= np.minimum.reduce(ratios) + 1e-12).nonzero()[0]
    if bland:
        return int(ties[0])
    return int(ties[mag[ties].argmax()])


def _factorize(A, basis):
    """inv(A[:, basis]), or None if the basis is singular. A basis whose
    condition number in the infinity norm, ||B|| * ||inv(B)||, reaches
    1/eps counts as singular too: ``np.linalg.inv`` raises only on an
    exact zero pivot, and the inverse of such a basis is rounding noise."""
    B = A[:, basis]
    norm = _norm(B)
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    del B  # so that the m×m temporary below does not raise the peak memory
    if not norm * _norm(Binv) < _COND_LIMIT:  # or nan
        return None
    return Binv


def _verified(A, basis, Binv) -> bool:
    """Whether a verdict may rest on Binv, an inverse of A[:, basis] that
    rank-1 updates have drifted from a refactorization: the residual
    ||A[:, basis] Binv - I|| in the infinity norm is at most CHECK_TOL,
    and the condition number that ``_factorize`` refuses at 1/eps stays
    below it."""
    B = A[:, basis]
    norm = _norm(B)
    resid = B @ Binv
    del B
    resid.ravel()[::len(basis) + 1] -= 1.0  # the diagonal of a fresh array
    if not _norm(resid, out=resid) <= CHECK_TOL:  # also a nan
        return False
    return norm * _norm(Binv) < _COND_LIMIT


def _norm(M, out=None):
    """||M|| in the infinity norm (0 for an empty M); |M| goes to out."""
    return np.abs(M, out=out).sum(axis=1).max(initial=0.0)


def _finish(A, b, c, lo, up, basis, vstat, Binv, xB, iters, xN, rc,
            resid_tol) -> _LpResult:
    """The end of a solve on a fresh basis with no row out of bounds:
    optimal, unless x breaks its bounds by more than 1e-7 or a row by
    more than resid_tol (``_resid_tol``). xN holds the fresh nonbasic
    values, xB the basic ones and rc the reduced costs, which an optimal
    result keeps."""
    m, n = A.shape
    x = xN.copy()
    x[basis] = xB
    clipped = np.clip(x, lo, up)
    drift = float(np.max(np.abs(x - clipped), initial=0.0))
    if drift > 1e-7:
        return _LpResult("error", math.nan, None, None, None, iters,
                         f"solution violates bounds by {drift:g}")
    x = clipped
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    if resid > resid_tol:
        return _LpResult("error", math.nan, None, None, None, iters,
                         f"row residual {resid:g} after solve")
    ns = n - m
    return _LpResult("optimal", float(c @ x), x[:ns], basis, vstat, iters,
                     Binv=Binv, rc=rc, xN=xN, xB=xB)


# ---------------------------------------------------------------------------
# public LP / MIP entry points
# ---------------------------------------------------------------------------

def _unreachable_row(model: Model) -> str | None:
    """Name of the first row whose right-hand side lies farther outside
    the range its activity spans within the variable bounds than the
    simplex could close, or None.

    Sound: ``_finish`` calls an LP optimal only after clipping x into its
    bounds and finding every row residual at most RESID_TOL * (1 +
    max|b|). Within the bounds a row's activity lies in [lo, hi] below,
    so a rhs beyond that interval by more than the margin leaves a
    residual ``_finish`` refuses at any point the simplex could end on.
    The margin is twice that residual bound, plus 1e-15 per term times
    the row's largest |a * bound| sum, which covers the rounding of both
    the sums here and the product in ``_finish``. A row with an infinite
    bound among its terms gets an infinite margin and always passes.
    """
    tol = 2.0 * RESID_TOL * (1.0 + max(map(abs, model.rhs), default=0.0))
    lbs, ubs = model.lb.tolist(), model.ub.tolist()
    ids, coeffs, starts = model.ids, model.coeffs, model.starts
    for i, (sense, b) in enumerate(zip(model.senses, model.rhs)):
        lo = hi = size = 0.0
        for k in range(starts[i], starts[i + 1]):
            a, v = coeffs[k], ids[k]
            e1, e2 = a * lbs[v], a * ubs[v]
            if e1 > e2:
                e1, e2 = e2, e1
            lo += e1
            hi += e2
            size += max(-e1, e2)
        margin = tol + 1e-15 * (starts[i + 1] - starts[i] + 2) * size
        if (sense != ">=" and lo > b + margin) \
                or (sense != "<=" and hi < b - margin):
            return model.row_names[i]
    return None


def solve_lp(model: Model) -> Solution:
    """Solve the LP relaxation (integrality ignored; bounds kept).

    A model with a row no point within the bounds can meet (see
    ``_unreachable_row``) is infeasible without a simplex run: zero
    iterations, and the message names the row.
    """
    row = _unreachable_row(model.freeze())
    if row is not None:
        return Solution(status="infeasible",
                        message=f"row {row!r} cannot be met within the "
                                "variable bounds")
    res = LpCore(model).solve()
    sol = Solution(status=res.status, iterations=res.iterations,
                   message=res.message)
    if res.status == "optimal":
        sol.objective = sol.best_bound = res.objective
        sol.values = dict(zip(model.var_names, res.x.tolist()))
    elif res.status == "unbounded":
        sol.best_bound = -INF
    return sol


class _RootStart(NamedTuple):
    """What ``root_start`` keeps of a base model's optimal LP: the model,
    its basis, its nonbasic statuses and the checked inverse of its
    basis, all three arrays read-only. No dense ``A``: each module's
    ``LpCore`` has its own."""

    model: Model
    basis: np.ndarray
    vstat: np.ndarray
    Binv: np.ndarray


def root_start(base: Model) -> _RootStart | None:
    """Solve the LP of ``base`` (frozen here, as ``solve_lp`` freezes it)
    from the slack basis, for ``solve_mip``'s ``start``: the roots of the
    models that extend ``base`` then start from its optimal basis. None
    when that LP is not optimal; those roots then run cold."""
    res = LpCore(base).solve()
    if res.status != "optimal":
        return None
    for a in (res.basis, res.vstat, res.Binv):
        a.setflags(write=False)
    return _RootStart(base, res.basis, res.vstat, res.Binv)


def _first(diff: np.ndarray) -> int | None:
    """The first index where the boolean array diff is set, or None."""
    hits = np.flatnonzero(diff)
    return int(hits[0]) if hits.size else None


def _misfit(model: Model, base: Model) -> str | None:
    """How ``model`` fails to extend ``base``, named at the first
    difference, or None when it does: it has at least the base's columns
    and rows, and over those its bounds, costs, senses, right-hand sides
    and row terms are the base's. Each store's prefix is compared by value
    in one C-level equality of memoryviews or lists, in O(nnz) of the
    base; numpy looks for the first difference only to name it."""
    n, m = base.n_variables, base.n_constraints
    if model.n_variables < n or model.n_constraints < m:
        return (f"the model has {model.n_variables} columns and "
                f"{model.n_constraints} rows, the base {n} and {m}")
    for what, mine, theirs in (("lower bound", model.lb, base.lb),
                               ("upper bound", model.ub, base.ub),
                               ("cost", model.objective, base.objective)):
        if memoryview(mine)[:n] == memoryview(theirs):
            continue
        mine = np.frombuffer(mine, np.float64, n)
        theirs = np.frombuffer(theirs, np.float64)
        j = _first(mine != theirs)
        if j is not None:
            return (f"column {model.var_names[j]!r} has {what} "
                    f"{float(mine[j])!r} in the model and "
                    f"{float(theirs[j])!r} in the base")
    for what, mine, theirs in (("sense", model.senses, base.senses),
                               ("right-hand side", model.rhs, base.rhs)):
        if mine[:m] == theirs:
            continue
        i = _first(np.asarray(mine[:m]) != np.asarray(theirs))
        if i is not None:
            return (f"row {model.row_names[i]!r} has {what} {mine[i]!r} in "
                    f"the model and {theirs[i]!r} in the base")
    nnz = base.starts[-1]
    if (memoryview(model.starts)[:m + 1] == memoryview(base.starts)
            and memoryview(model.ids)[:nnz] == memoryview(base.ids)
            and memoryview(model.coeffs)[:nnz] == memoryview(base.coeffs)):
        return None
    starts = np.frombuffer(base.starts, np.int64)
    i = _first(np.frombuffer(model.starts, np.int64, m + 1) != starts)
    if i is None:
        k = _first((np.frombuffer(model.ids, np.int64, nnz)
                    != np.frombuffer(base.ids, np.int64))
                   | (np.frombuffer(model.coeffs, np.float64, nnz)
                      != np.frombuffer(base.coeffs, np.float64)))
        if k is None:
            return None
        i = int(np.searchsorted(starts, k, side="right"))
    return (f"row {model.row_names[i - 1]!r} has other terms in the model "
            "than in the base")


def _crash(model: Model, ns_b: int, m_b: int) -> tuple[list[int], list[int]]:
    """A crash basis (Bixby, ORSA J. Computing 4(3), 1992) for the rows
    that ``model`` adds to a base of ns_b columns and m_b rows: the rows
    that start on a new column instead of their slack, and those
    columns. A candidate is a new column of cost 0 with up > lo. The new
    rows are visited equality rows first, then the rest, each group in
    row order, and each takes the untaken candidate with its largest
    |coefficient|, ties going to the lowest id. The new rows' terms are
    read as lists once; a model stores no zero term."""
    cost, lb, ub = model.objective, model.lb, model.ub
    free = {j for j in range(ns_b, model.n_variables)
            if cost[j] == 0.0 and ub[j] > lb[j]}
    rows: list[int] = []
    cols: list[int] = []
    if not free:
        return rows, cols
    s0 = model.starts[m_b]
    ends = [s - s0 for s in model.starts[m_b:]]
    ids, coeffs = model.ids[s0:].tolist(), model.coeffs[s0:].tolist()
    senses = model.senses[m_b:]
    for i in ([i for i, s in enumerate(senses) if s == "="]
              + [i for i, s in enumerate(senses) if s != "="]):
        pick, size = -1, 0.0
        for k in range(ends[i], ends[i + 1]):
            j = ids[k]
            if j in free:
                a = abs(coeffs[k])
                if a > size or (a == size and j < pick):
                    pick, size = j, a
        if pick >= 0:
            free.remove(pick)
            rows.append(m_b + i)
            cols.append(pick)
    return rows, cols


def _extended(core: LpCore, start: _RootStart) -> _LpResult:
    """The start's optimal basis, statuses and inverse on the model of
    core, which extends the start's base: the base's basic columns, with
    each base slack moved past the model's structurals, then one basic
    column per new row, the new column ``_crash`` picks for it or else
    its slack; the block-triangular inverse of the module docstring. A
    new column and a displaced slack rest where ``_resting`` puts them
    for their cost.

    Only the picks' block S of their own rows is inverted. Over the new
    rows the basis is D = I + (C - E) E', with C the picks' columns and E
    the identity's columns of their rows, so D^-1 = I - (C - E) S^-1 E'
    (Woodbury), and the lower block D^-1 [-X Binv_b | I] of the inverse
    is [-X Binv_b | I] less (C - E) G, where G is S^-1 times that
    block's picked rows. An S that ``_factorize`` refuses leaves every
    new row on its slack, as does a model with no candidate: its start
    is then the slack rows' start, bit for bit, with no algebra added."""
    base = start.model
    ns_b, m_b = base.n_variables, base.n_constraints
    ns, m = core.n_struct, core.m
    old = np.where(start.basis < ns_b, start.basis, start.basis + (ns - ns_b))
    basis = np.concatenate((old, np.arange(ns + m_b, ns + m)))
    Binv = np.zeros((m, m))
    Binv[:m_b, :m_b] = start.Binv
    Binv[m_b:, :m_b] = -(core.A[m_b:, old] @ start.Binv)
    np.fill_diagonal(Binv[m_b:, m_b:], 1.0)
    rows, cols = _crash(core.model, ns_b, m_b)
    if rows:
        rows, cols = np.array(rows), np.array(cols)
        Sinv = _factorize(core.A[rows], cols)
        if Sinv is not None:
            G = Sinv @ Binv[rows]
            Binv[m_b:] -= core.A[m_b:, cols] @ G
            Binv[rows] += G
            basis[rows] = cols
    vstat = _resting(core.lo, core.up, core.c, basis)
    vstat[:ns_b] = start.vstat[:ns_b]
    vstat[ns:ns + m_b] = start.vstat[ns_b:]
    return _LpResult("optimal", math.nan, None, basis, vstat, 0, Binv=Binv)


def solve_mip(model: Model, config: SolveConfig | None = None,
              start: _RootStart | None = None) -> Solution:
    """Best-first branch-and-bound over the model's binary variables.

    Nodes are keyed by (bound, creation index), where a child's bound is
    its parent's LP objective plus the child's Driebeek–Tomlin penalty.
    The branch variable is the fractional binary with the largest product
    of its two penalties, ties within 1e-9 relative going to the lowest
    variable id, and a child whose penalty is infinite is infeasible and
    never pushed (see the module docstring). ``Solution.nodes`` counts
    the nodes whose LP was solved. Node and iteration counts are
    deterministic for a fixed BLAS library, kernel set and thread count.
    The root LP is solved whatever the time budget. Each child LP starts
    from its parent's optimal ``_LpResult``, with the basis, the inverse
    and the fresh values that the parent's verdict rested on, takes as
    its first pivot the step ``_branch`` priced on the parent's pivot
    row (none when that row has no entry of at least DUAL_PIVOT_TOL), and
    needs no refactorization to reach its own verdict when its updated
    inverse passes the check. The DEBUG line counts the children with a
    step and those without one.

    Without ``start`` the root LP is solved from the slack basis, so
    ``root_bound`` is always, bit for bit, the relaxation ``solve_lp``
    would report. With ``start``, what ``root_start`` returned for a
    base that ``model`` extends, the root starts from that base's
    optimal basis, with a crash basis (Bixby, ORSA J. Computing 4(3),
    1992) that puts some of the model's new rows on zero-cost new
    columns and the others on their slacks (see the module docstring),
    and ``root_bound`` is the same relaxation's optimum, up to rounding.
    A model that does not extend the start's base raises ValueError,
    naming the first difference, before any LP.

    With ``config.gap > 0``, a fractional optimal root is rounded: one LP
    with every binary fixed at ``round(x)``, from the root's result. An
    optimal rounding LP is the first incumbent; a failed one changes
    nothing. It is not a node, but its iterations count. Each new
    incumbent is logged at INFO.
    """
    config = config or SolveConfig()
    if start is not None:
        misfit = _misfit(model, start.model)
        if misfit is not None:
            raise ValueError(f"the start does not fit: {misfit}")
    core = LpCore(model)
    t0 = time.monotonic()
    root = None if start is None else _extended(core, start)
    sol, (root_iters, stepped, stepless, closed) = _branch_and_bound(
        core, config, t0, root)
    if log.isEnabledFor(logging.DEBUG):
        how = "the slack basis"
        if root is not None:  # the new rows whose basic column is no slack
            m_b = start.model.n_constraints
            crashed = np.count_nonzero(root.basis[m_b:] < core.n_struct)
            how = (f"a base's basis, {crashed} of {core.m - m_b} new rows "
                   "crashed")
        log.debug("mip: %s after %d nodes, %d LP iterations (%d at the "
                  "root, from %s), %d children solved from their parent's "
                  "step, %d without one, %d closed by an infinite penalty; "
                  "root bound %r, best bound %r; %.3f s",
                  sol.status, sol.nodes, sol.iterations, root_iters, how,
                  stepped, stepless, closed, sol.root_bound, sol.best_bound,
                  time.monotonic() - t0)
    return sol


def _branch(A, res: _LpResult, movable, cols):
    """The branch variable among cols, the fractional binaries of the
    optimal node result res, and its children as (value, penalty, step),
    the down child first, all read off res's basis in one pass.

    Fixing x_j = x_B[r] at 0 or at 1 leaves row r as the only row out of
    its bounds, by x_j or by 1 - x_j. The dual simplex's first step from
    res's basis takes the pivot row alpha = Binv[r] A, formed here row by
    row as that step forms it, so that the two agree bit for bit, and the
    columns that ``_Simplex.iterate`` finds eligible to push x_j that way.
    One dual step of length t = min |rc_k / alpha_k| over them stays dual
    feasible for the child and raises its objective by x_j t (or
    (1 - x_j) t): the child's Driebeek–Tomlin penalty, a lower bound on
    its optimum by weak duality (Driebeek, Mgmt. Sci. 12, 1966; Tomlin,
    Oper. Res. 19, 1971). A direction with no eligible column has an
    infinite penalty: from res's basis the dual simplex reports that child
    infeasible after 0 iterations. The variable has the largest product
    score of its two penalties (Achterberg, Koch & Martin, Oper. Res.
    Lett. 33, 2005), ties within 1e-9 relative going to the lowest id.

    A child's step is that first pivot (r, q, alpha): q is the column that
    ``_entering`` picks from the penalty's ratios among the eligible
    entries of at least DUAL_PIVOT_TOL, as the child's first pass would.
    None when no entry reaches DUAL_PIVOT_TOL: that pass would
    refactorize first."""
    row_of = np.empty(A.shape[1], dtype=np.intp)
    row_of[res.basis] = np.arange(len(res.basis))
    rows = row_of[cols]
    alpha = np.stack([res.Binv[r] @ A for r in rows])
    mag = np.abs(alpha)
    pos, neg = alpha > PIVOT_TOL, alpha < -PIVOT_TOL
    inc, dec = _directions(res.vstat, movable)
    ratios = np.divide(np.abs(res.rc), mag, out=np.full(alpha.shape, INF),
                       where=pos | neg)
    down = (inc & pos) | (dec & neg)  # the columns that push x_j down
    up = (dec & pos) | (inc & neg)
    x = res.x[cols]
    falls = x * ratios.min(axis=1, where=down, initial=INF)
    rises = (1.0 - x) * ratios.min(axis=1, where=up, initial=INF)
    score = np.maximum(falls, 1e-6) * np.maximum(rises, 1e-6)
    i = int(np.argmax(score >= score.max() * (1.0 - 1e-9)))
    large = mag[i] >= DUAL_PIVOT_TOL
    children = []
    for val, penalty, eligible in ((0.0, falls[i], down[i] & large),
                                   (1.0, rises[i], up[i] & large)):
        step = None
        if np.count_nonzero(eligible):
            step = (int(rows[i]),
                    _entering(np.where(eligible, ratios[i], INF), mag[i],
                              False),
                    alpha[i])
        children.append((val, float(penalty), step))
    return int(cols[i]), children


def _branch_and_bound(core: LpCore, config: SolveConfig, t0: float,
                      root: _LpResult | None) -> tuple[Solution, tuple]:
    """The search of ``solve_mip``, whose root LP starts from ``root``
    as a child from its parent (None: from the slack basis); also the
    counts its DEBUG line reports: the root's iterations, the children
    solved from their parent's step, those without one, and those an
    infinite penalty closed."""
    bin_ids = core.binary_ids
    incumbent = math.inf
    incumbent_x: np.ndarray | None = None
    nodes_solved = 0
    stepped = stepless = 0    # children solved from a step, or without
    closed = 0                # children an infinite penalty closed
    iterations = 0
    root_bound = math.nan
    root_iters = 0
    counter = 0
    # heap entries: (bound, creation index, lo, up, start), where a
    # child's bound is its parent's LP objective plus the child's penalty
    # and its start a ``_Warm`` one from its parent's result, with or
    # without a first step; the counter breaks bound ties
    # deterministically and keeps heapq from ever comparing the payloads.
    # The root has the core's own bounds, which each child copies before
    # it fixes a binary.
    heap: list = [(-INF, counter, core.lo, core.up, root)]
    stop: str | None = None   # why the loop broke, if early
    best_open = math.inf      # bound of the best node left unexplored

    def done(status: str, **kw) -> tuple[Solution, tuple]:
        return Solution(status=status, nodes=nodes_solved,
                        iterations=iterations, root_bound=root_bound,
                        **kw), (root_iters, stepped, stepless, closed)

    def take(res: _LpResult) -> None:
        """Make an integral LP result the incumbent and log it."""
        nonlocal incumbent, incumbent_x
        incumbent = res.objective
        incumbent_x = res.x
        if log.isEnabledFor(logging.INFO):
            # res's node is closed or branched; the open ones are
            # bounded by heap[0], unless it lies within the 1e-9 relative
            # of the incumbent that makes the search drop every one of them
            close = incumbent - 1e-9 * max(1.0, abs(incumbent))
            open_bound = (heap[0][0] if heap and heap[0][0] < close
                          else incumbent)
            log.info("mip: incumbent %r after %d nodes; best bound %r, "
                     "gap %.3g", incumbent, nodes_solved, open_bound,
                     (incumbent - open_bound) / max(abs(incumbent), 1e-9))

    while heap:
        bound, _, lo, up, start = heapq.heappop(heap)
        if bound >= incumbent - 1e-9 * max(1.0, abs(incumbent)):
            continue  # cannot improve the incumbent; neither can the rest,
                      # but draining the heap here is cheap and simple
        if incumbent < math.inf and config.gap > 0:
            gap_now = (incumbent - bound) / max(abs(incumbent), 1e-9)
            if gap_now <= config.gap:
                stop, best_open = "gap_reached", bound
                break
        if nodes_solved and time.monotonic() - t0 > config.time_limit:
            stop, best_open = "time_limit", bound
            break

        res = core.solve(lo, up, start)
        nodes_solved += 1
        iterations += res.iterations
        if nodes_solved == 1:
            root_iters = res.iterations
            if res.status == "optimal":
                root_bound = res.objective
        elif start.step is not None:
            stepped += 1
        else:
            stepless += 1
        if res.status == "infeasible":
            continue
        if res.status == "unbounded":
            # binaries are bounded, so unboundedness lives in the relaxation
            return done("unbounded", best_bound=-INF, message=res.message)
        if res.status != "optimal":
            return done("error", message=f"node LP failed: {res.message}")
        if res.objective >= incumbent - 1e-9 * max(1.0, abs(incumbent)):
            continue

        xb = res.x[bin_ids]
        fractional = np.minimum(xb - np.floor(xb), np.ceil(xb) - xb) > INT_TOL
        if not np.count_nonzero(fractional):
            take(res)
            continue
        j, children = _branch(core.A, res, (up - lo) > 0,
                              bin_ids[fractional])
        for val, penalty, step in children:
            if penalty == INF:  # its LP would end infeasible at once
                closed += 1
                continue
            lo2, up2 = lo.copy(), up.copy()
            lo2[j] = up2[j] = val  # j is basic in res: no nonbasic moves
            counter += 1
            heapq.heappush(heap, (res.objective + penalty, counter, lo2, up2,
                                  _Warm(res, step)))
        if nodes_solved == 1 and config.gap > 0:
            # the root rounded: one LP with every binary fixed at its
            # nearest integer, from the root's result and its fresh
            # values, since each nonbasic binary is fixed where it rests;
            # not a node
            lo2, up2 = lo.copy(), up.copy()
            lo2[bin_ids] = up2[bin_ids] = np.round(xb)
            rounded = core.solve(lo2, up2, _Warm(res))
            iterations += rounded.iterations
            if rounded.status == "optimal":
                take(rounded)

    if incumbent < math.inf:
        names = core.model.var_names
        values = dict(zip(names, incumbent_x.tolist()))
        for vid in bin_ids.tolist():  # snap near-integral binaries
            values[names[vid]] = float(round(values[names[vid]]))
        if stop is None:  # tree exhausted: the incumbent is proven optimal
            return done("optimal", objective=incumbent,
                        best_bound=incumbent, values=values)
        return done(stop, objective=incumbent,
                    best_bound=min(best_open, incumbent), values=values)
    if stop == "time_limit":
        return done("time_limit", best_bound=best_open)
    return done("infeasible", message="no feasible binary assignment")

