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
that the child adds. Every LP, a child too, computes its basic values
and reduced costs from its start inverse before its first iteration.
The tree therefore holds one result, its x, its reduced costs and its
m×m inverse, per open parent, shared by its two children. The slack
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
(``_penalties``): the objective rise of the dual simplex's first step in
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
extended with the new rows' slacks, which are basic. With X the new
rows restricted to the base's basic columns, the extended basis is
[[B_b, 0], [X, I]], and its inverse is [[Binv_b, 0], [-X Binv_b, I]].
That inverse stands in for a checked one as a parent's does: its top
block is the base's checked inverse, the identity is exact, and the
lower block is one product, whose rounding adds about m·eps·|X||Binv_b|
to the residual. The start is dual feasible: the new rows' duals are 0,
so every old column keeps its base reduced cost and every new column's
reduced cost is its cost, and a new column rests where ``_resting``
puts it for that cost. The base rows keep the base's basic values, so
the dual simplex starts with only new rows out of their bounds. The
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
status, nodes, iterations, how the root started (the slack basis or a
base's basis) and its iterations, the children closed by an infinite
penalty, root and best bound, and seconds, and one INFO line per new
incumbent reports it with the nodes solved so far, the best bound of
the open nodes and the relative gap.
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
    # the fresh reduced costs that verdict rested on, which ``_penalties``
    # reads; set when optimal, like basis
    rc: np.ndarray | None = None


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
        self.binary_ids = np.flatnonzero(
            np.asarray(model.kinds) == KINDS.index("binary"))

    def solve(self, lo: np.ndarray | None = None, up: np.ndarray | None = None,
              parent: _LpResult | None = None) -> _LpResult:
        """The dual simplex within bounds lo, up (the core's by default),
        from the slack basis or from copies of an optimal parent's basis,
        statuses and checked inverse, which ``pivot`` updates in place.
        The inherited inverse counts as checked, not as refactorized: a
        tiny pivot needs a refactorization first."""
        lo = self.lo if lo is None else lo
        up = self.up if up is None else up
        if parent is None:
            start = _cold_start(self.A, lo, up, self.c)
        else:
            start = (parent.basis.copy(), parent.vstat.copy(),
                     parent.Binv.copy())
        return _Simplex(self.A, self.b, self.c, lo, up, *start,
                        factored=parent is None).dual()


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
    (or the slack basis's identity) with no update since. Every solve
    starts with ``settle`` on its start inverse. The state lives on an
    object rather than in nested closures: under CPython 3.11, closures
    over 20 variables made per solve raised a process's peak RSS by about
    0.3 MB (their freed closure tuples piled up until a full garbage
    collection)."""

    def __init__(self, A, b, c, lo, up, basis, vstat, Binv, iters=0,
                 factored=True):
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
        self.settle()

    def error(self, message):
        return _LpResult("error", math.nan, None, None, None, self.iters,
                         message)

    def settle(self):
        """Recompute xB and the reduced costs rc from scratch from Binv,
        which a verdict may now rest on."""
        A = self.A
        self.xN = _nonbasic_values(self.vstat, self.lo, self.up)
        self.xB = self.Binv @ (self.b - A @ self.xN)
        self.rc = self.c - (self.c[self.basis] @ self.Binv) @ A
        self.fresh = True

    def verify(self):
        """Settle on the updated Binv if ``_verified`` accepts it for the
        current basis, else refactorize."""
        if _verified(self.A, self.basis, self.Binv):
            self.settle()
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

    def pivot(self, r, q, alpha, delta, leave_upper, refactor):
        """Move nonbasic column q by delta into row r, whose pivot row is
        alpha = Binv[r] A and whose variable leaves for its upper bound if
        leave_upper, else for its lower one; count the iteration and
        refactorize when due, or at once if refactor."""
        basis, vstat, xN, xB = self.basis, self.vstat, self.xN, self.xB
        w = self.Binv @ self.A[:, q]
        leave = int(basis[r])
        if leave_upper:
            vstat[leave] = _AT_UPPER
            xN[leave] = self.up[leave]
        else:
            vstat[leave] = _AT_LOWER
            xN[leave] = self.lo[leave]
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
                                   self.iters, xN, rc)
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
            ties = (ratios <= np.minimum.reduce(ratios) + 1e-12).nonzero()[0]
            if self.bland:
                q = int(ties[0])
            else:
                # largest |alpha|, then the lowest j
                q = int(ties[mag[ties].argmax()])

            target = lo[basis[r]] if rising else up[basis[r]]
            self.pivot(r, q, alpha, (xB[r] - target) / alpha[q], not rising,
                       small)

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
                       self.vstat, self.Binv, self.iters).dual()
        if res.status == "optimal":
            return _LpResult("unbounded", -INF, None, None, None,
                             res.iterations)
        return res


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


def _finish(A, b, c, lo, up, basis, vstat, Binv, xB, iters, xN,
            rc) -> _LpResult:
    """The end of a solve on a fresh basis with no row out of bounds:
    optimal, unless x breaks its bounds or a row by more than the
    tolerances. xN holds the fresh nonbasic values and rc the reduced
    costs, which an optimal result keeps."""
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
    if resid > RESID_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        return _LpResult("error", math.nan, None, None, None, iters,
                         f"row residual {resid:g} after solve")
    ns = n - m
    return _LpResult("optimal", float(c @ x), x[:ns], basis, vstat, iters,
                     Binv=Binv, rc=rc)


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
    and row terms are the base's. Numpy compares the prefixes, in O(nnz)
    of the base."""
    n, m = base.n_variables, base.n_constraints
    if model.n_variables < n or model.n_constraints < m:
        return (f"the model has {model.n_variables} columns and "
                f"{model.n_constraints} rows, the base {n} and {m}")
    for what, mine, theirs in (("lower bound", model.lb, base.lb),
                               ("upper bound", model.ub, base.ub),
                               ("cost", model.objective, base.objective)):
        mine = np.frombuffer(mine, np.float64, n)
        theirs = np.frombuffer(theirs, np.float64)
        j = _first(mine != theirs)
        if j is not None:
            return (f"column {model.var_names[j]!r} has {what} "
                    f"{float(mine[j])!r} in the model and "
                    f"{float(theirs[j])!r} in the base")
    for what, mine, theirs in (("sense", model.senses, base.senses),
                               ("right-hand side", model.rhs, base.rhs)):
        i = _first(np.asarray(mine[:m]) != np.asarray(theirs))
        if i is not None:
            return (f"row {model.row_names[i]!r} has {what} {mine[i]!r} in "
                    f"the model and {theirs[i]!r} in the base")
    starts = np.frombuffer(base.starts, np.int64)
    nnz = int(starts[-1])
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


def _extended(core: LpCore, start: _RootStart) -> _LpResult:
    """The start's optimal basis, statuses and inverse on the model of
    core, which extends the start's base: the base's basic columns, with
    each base slack moved past the model's structurals, then the new
    rows' slacks; the block-triangular inverse of the module docstring.
    A new column rests where ``_resting`` puts it for its cost."""
    base = start.model
    ns_b, m_b = base.n_variables, base.n_constraints
    ns, m = core.n_struct, core.m
    old = np.where(start.basis < ns_b, start.basis, start.basis + (ns - ns_b))
    basis = np.concatenate((old, np.arange(ns + m_b, ns + m)))
    vstat = _resting(core.lo, core.up, core.c, basis)
    vstat[:ns_b] = start.vstat[:ns_b]
    vstat[ns:ns + m_b] = start.vstat[ns_b:]
    Binv = np.zeros((m, m))
    Binv[:m_b, :m_b] = start.Binv
    Binv[m_b:, :m_b] = -(core.A[m_b:, old] @ start.Binv)
    np.fill_diagonal(Binv[m_b:, m_b:], 1.0)
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
    from its parent's optimal ``_LpResult``, with the basis and the
    inverse that the parent's verdict rested on, and needs no
    refactorization to reach its own verdict when its updated inverse
    passes the check.

    Without ``start`` the root LP is solved from the slack basis, so
    ``root_bound`` is always, bit for bit, the relaxation ``solve_lp``
    would report. With ``start``, what ``root_start`` returned for a
    base that ``model`` extends, the root starts from that base's
    optimal basis (see the module docstring), and ``root_bound`` is the
    same relaxation's optimum, up to rounding. A model that does not
    extend the start's base raises ValueError, naming the first
    difference, before any LP.

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
    sol, closed, root_iters = _branch_and_bound(core, config, t0, root)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("mip: %s after %d nodes, %d LP iterations (%d at the "
                  "root, from %s), %d children closed by an infinite "
                  "penalty; root bound %r, best bound %r; %.3f s",
                  sol.status, sol.nodes, sol.iterations, root_iters,
                  "the slack basis" if start is None else "a base's basis",
                  closed, sol.root_bound, sol.best_bound,
                  time.monotonic() - t0)
    return sol


def _penalties(A, res: _LpResult, movable, cols):
    """Driebeek–Tomlin penalties (down, up) of fixing each binary of cols,
    basic and fractional in the optimal node result res, at 0 and at 1.

    Fixing x_j = x_B[r] at 0 or at 1 leaves row r as the only row out of
    its bounds, by x_j or by 1 - x_j. The dual simplex's first step from
    res's basis takes the pivot row alpha = Binv[r] A and the columns that
    ``_Simplex.iterate`` finds eligible to push x_j that way; one dual
    step of length t = min |rc_k / alpha_k| over them stays dual feasible
    for the child and raises its objective by x_j t (or (1 - x_j) t), a
    lower bound on the child's optimum by weak duality (Driebeek, Mgmt.
    Sci. 12, 1966; Tomlin, Oper. Res. 19, 1971).
    A direction with no eligible column has an infinite penalty: from
    res's basis the dual simplex reports that child infeasible after 0
    iterations. Each alpha is computed as the child's first iteration
    computes it, so the two agree bit for bit."""
    row_of = np.empty(A.shape[1], dtype=np.intp)
    row_of[res.basis] = np.arange(len(res.basis))
    alpha = np.stack([res.Binv[r] @ A for r in row_of[cols]])
    pos, neg = alpha > PIVOT_TOL, alpha < -PIVOT_TOL
    inc, dec = _directions(res.vstat, movable)
    ratios = np.divide(np.abs(res.rc), np.abs(alpha),
                       out=np.full(alpha.shape, INF), where=pos | neg)
    falls = ratios.min(axis=1, where=(inc & pos) | (dec & neg), initial=INF)
    rises = ratios.min(axis=1, where=(dec & pos) | (inc & neg), initial=INF)
    x = res.x[cols]
    return x * falls, (1.0 - x) * rises


def _branch_and_bound(core: LpCore, config: SolveConfig, t0: float,
                      root: _LpResult | None) -> tuple[Solution, int, int]:
    """The search of ``solve_mip``, whose root LP starts from ``root``
    as a child from its parent (None: from the slack basis); also how
    many children an infinite penalty closed, and the root's
    iterations."""
    bin_ids = core.binary_ids
    incumbent = math.inf
    incumbent_x: np.ndarray | None = None
    nodes_solved = 0
    closed = 0                # children an infinite penalty closed
    iterations = 0
    root_bound = math.nan
    root_iters = 0
    counter = 0
    # heap entries: (bound, creation index, lo, up, parent LP), where a
    # child's bound is its parent's LP objective plus the child's penalty;
    # the counter breaks bound ties deterministically and keeps heapq from
    # ever comparing the payloads. The root has the core's own bounds,
    # which each child copies before it fixes a binary.
    heap: list = [(-INF, counter, core.lo, core.up, root)]
    stop: str | None = None   # why the loop broke, if early
    best_open = math.inf      # bound of the best node left unexplored

    def done(status: str, **kw) -> tuple[Solution, int, int]:
        return Solution(status=status, nodes=nodes_solved,
                        iterations=iterations, root_bound=root_bound,
                        **kw), closed, root_iters

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
        bound, _, lo, up, parent = heapq.heappop(heap)
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

        res = core.solve(lo, up, parent)
        nodes_solved += 1
        iterations += res.iterations
        if nodes_solved == 1:
            root_iters = res.iterations
            if res.status == "optimal":
                root_bound = res.objective
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
        cols = bin_ids[fractional]
        falls, rises = _penalties(core.A, res, (up - lo) > 0, cols)
        # the product score (Achterberg, Koch & Martin, Oper. Res. Lett.
        # 33, 2005); ties within 1e-9 relative go to the lowest id
        score = np.maximum(falls, 1e-6) * np.maximum(rises, 1e-6)
        i = int(np.argmax(score >= score.max() * (1.0 - 1e-9)))
        j = int(cols[i])
        for val, penalty in ((0.0, float(falls[i])), (1.0, float(rises[i]))):
            if penalty == INF:  # its LP would end infeasible at once
                closed += 1
                continue
            lo2, up2 = lo.copy(), up.copy()
            lo2[j] = up2[j] = val
            counter += 1
            heapq.heappush(heap, (res.objective + penalty, counter, lo2, up2,
                                  res))
        if nodes_solved == 1 and config.gap > 0:
            # the root rounded: one LP with every binary fixed at its
            # nearest integer, from the root's result; not a node
            lo2, up2 = lo.copy(), up.copy()
            lo2[bin_ids] = up2[bin_ids] = np.round(xb)
            rounded = core.solve(lo2, up2, res)
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

