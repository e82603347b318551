"""Bundled exact LP/MIP solver and the external-solver bridge.

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
parent it starts from the slack basis (every ``solve_lp``, every root).
A branch-and-bound child's warm start is its parent's optimal
``_LpResult``: copies of the parent's basis, statuses and inverse, not
a refactorization. An LP ends optimal only on a fresh inverse, so that
inverse is bit for bit the one a refactorization would compute. The
tree therefore holds one result, its x and its m×m inverse, per open
parent, shared by its two children. The slack basis starts from the
identity, bit for bit its computed inverse. It rests each structural at
its lower bound when finite, else at its upper bound when finite, else
free at 0; a column with both bounds finite and a negative cost rests at
its upper bound.
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
the lowest index. The dual reports infeasible only when a fresh
refactorization still shows a violated row no column can repair, and
optimal only through a fresh refactorization, a dual-feasibility recheck
and the bound and residual checks of ``_finish``.

A start basis that is not dual feasible is repaired first. A column
with both bounds finite moves to the bound its reduced cost prefers. If
a column with an infinite bound prices wrong, a dual phase one solves
the auxiliary problem min c'x, A x + s = 0, over the box [-1, 1] for
free columns, [0, 1] for columns bounded only below, [-1, 0] for those
bounded only above and [0, 0] for the rest, with the same loop from the
same basis (Koberstein, The dual simplex method, PhD thesis, Paderborn
2005). Its optimum is 0 exactly when the LP's dual is feasible, and then
its final basis, each column resting at the bound its reduced cost
prefers, starts phase two. Otherwise the LP is infeasible or unbounded,
and one more run with a zero cost tells which.

Three guards keep the loop going where a textbook dual would fail. A
pivot-row entry below DUAL_PIVOT_TOL is taken only when a fresh
refactorization leaves no larger one, and the basis is refactorized
right after it. When the dual objective has not risen for 10·(m+n)
iterations, or a refactorization finds the basis singular and the last
invertible one is restored, the loop switches to Bland's rule (Bland,
Math. Oper. Res. 2, 1977): the leaving row is the violated one whose
basic column has the lowest index, and ratio ties go to the lowest
column index. After five restores a singular basis ends the solve in
one place: ``refresh`` raises ``_Singular``, and ``_Simplex.dual``
returns it as the solve's error.

MIP solving is best-first branch-and-bound on binary variables:
node selection by (bound, creation index), branching on the most
fractional binary with ties to the lowest variable index. Node and
iteration counts are deterministic for a fixed BLAS library, kernel set
and thread count; a product can round differently under another and
lead to another pivot (the seeded 3×12 extended/one_bin root takes 199
iterations under one thread and 196 under two, and the gap-0 tree of
extended/one_bin on ``generate_instance(1004, 2, 3)`` takes 40 LP
iterations under OpenBLAS's SkylakeX kernels and 37 under its Haswell
ones). The root node is solved whatever the time budget, cold, on the
model's own bounds, i.e. exactly as ``solve_lp`` solves a model that
passes its row check (a model that fails it has no optimal root
either); its objective is kept as ``Solution.root_bound``
(NaN unless that LP is optimal), so a caller that wants both z_LP and
z_MIP needs one run. ``Solution.iterations`` of a MIP is the LP
iteration count summed over all nodes. One DEBUG line per ``solve_mip``
reports status, nodes, iterations, root and best bound, and seconds, and
one INFO line per new incumbent reports it with the nodes solved so far,
the best bound of the open nodes and the relative gap.

``solve_mip`` with a command template as its backend ships the model to
that command-line solver via MPS and reads the solution back from a file
(two-column text or an XML-like format, auto-detected).
"""

from __future__ import annotations

import heapq
import logging
import math
import shlex
import subprocess
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .milp import INF, Model, write_mps

log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
RESID_TOL = 1e-6  # row residual accepted at the end, relative to 1 + max|b|
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10  # smallest pivot-row entry that can repair a row
DUAL_PIVOT_TOL = 1e-7  # smaller entries are taken only on a fresh basis
INT_TOL = 1e-6
REFACTOR_EVERY = 64
BACKENDS = ("reference",)  # run in the process; any other is a template


@dataclass
class SolveConfig:
    """Knobs of a MIP solve. ``backend`` is one of BACKENDS or a command
    template that carries both ``{input}`` and ``{output}``, splits as a
    shell would and formats with those two keys alone; anything else
    raises ValueError naming it."""

    gap: float = 1e-6            # relative MIP gap target (0 = prove optimal)
    time_limit: float = 3600.0   # seconds
    backend: str = "reference"

    def __post_init__(self):
        if not self.gap >= 0:  # also rejects nan
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if not self.time_limit > 0:  # also rejects nan
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")
        if self.backend in BACKENDS:
            return
        try:  # the command must carry both stand-in paths
            argv = " ".join(_command(self.backend, "\0", "\1"))
            why = "" if "\0" in argv and "\1" in argv else "one is missing"
        except (ValueError, LookupError, AttributeError) as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why:
            raise ValueError(f"backend {self.backend!r} is neither one of "
                             f"{BACKENDS} nor a command template with "
                             f"{{input}} and {{output}}: {why}")


@dataclass
class Solution:
    """Outcome of a solve: status, objective, bound, variable values."""

    status: str                      # optimal | infeasible | unbounded |
                                     # gap_reached | time_limit | error
    objective: float = math.nan
    best_bound: float = math.nan
    values: dict[str, float] = field(default_factory=dict)
    nodes: int = 0
    iterations: int = 0              # LP iterations, summed over all nodes
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
    basis: np.ndarray | None      # for warm starts
    vstat: np.ndarray | None
    iterations: int
    message: str = ""
    # inv(A[:, basis]) of an optimal end, fresh from a refactorization (or
    # the start's own inverse), so a child that starts from this result
    # need not invert its basis again; None for every other status
    Binv: np.ndarray | None = None


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
        A[np.repeat(rows, np.diff(model.starts)), model.ids] = model.coeffs
        A[rows, ns + rows] = 1.0
        self.A = A
        self.b = np.array(model.rhs, dtype=np.float64)
        c = np.zeros(ns + m)
        for vid, coeff in model.objective.items():
            c[vid] = coeff
        self.c = c
        lo = np.empty(ns + m)
        up = np.empty(ns + m)
        lo[:ns] = [var.lb for var in model.variables]
        up[:ns] = [var.ub for var in model.variables]
        lo[ns:] = [_SLACK_LO[sense] for sense in model.senses]
        up[ns:] = [_SLACK_UP[sense] for sense in model.senses]
        self.lo = lo
        self.up = up
        self.binary_ids = np.array(
            [vid for vid, v in enumerate(model.variables) if v.kind == "binary"],
            dtype=np.int64)

    def solve(self, lo: np.ndarray | None = None, up: np.ndarray | None = None,
              parent: _LpResult | None = None) -> _LpResult:
        """The dual simplex within bounds lo, up (the core's by default),
        from the slack basis or from copies of an optimal parent's basis,
        statuses and inverse, which ``pivot`` updates in place."""
        lo = self.lo if lo is None else lo
        up = self.up if up is None else up
        if parent is None:
            start = _cold_start(self.A, lo, up, self.c)
        else:
            start = (parent.basis.copy(), parent.vstat.copy(),
                     parent.Binv.copy())
        return _Simplex(self.A, self.b, self.c, lo, up, *start).dual()


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

    The basis changes only through ``pivot`` (a rank-1 update of Binv,
    refactorized every REFACTOR_EVERY pivots) and ``refresh``. The state
    lives on an object rather than in nested closures: under CPython
    3.11, closures over 20 variables made per solve raised a process's
    peak RSS by about 0.3 MB (their freed closure tuples piled up until a
    full garbage collection)."""

    def __init__(self, A, b, c, lo, up, basis, vstat, Binv, iters=0):
        self.A, self.b, self.c, self.lo, self.up = A, b, c, lo, up
        m, n = A.shape
        self.basis, self.vstat, self.Binv = basis, vstat, Binv
        self.xN = _nonbasic_values(vstat, lo, up)
        self.xB = Binv @ (b - A @ self.xN)
        self.max_iter = 10000 + 200 * (m + n)
        self.stall_limit = 10 * (m + n)
        self.bland = False
        self.since_refactor = 0
        self.fresh = True  # Binv/xB just recomputed from scratch
        self.iters = iters
        self.movable = (up - lo) > 0  # fixed columns never enter
        self.ckpt = (basis.copy(), vstat.copy())  # last invertible basis
        self.restores = 0

    def error(self, message):
        return _LpResult("error", math.nan, None, None, None, self.iters,
                         message)

    def reduced_costs(self):
        return self.c - (self.c[self.basis] @ self.Binv) @ self.A

    def refresh(self):
        """Refactorize the current basis and recompute xB from scratch. A
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
            B = _factorize(A, self.basis)  # checkpoint inverted fine before
            if B is None:  # pragma: no cover - inversion is deterministic
                raise _Singular
        self.ckpt = (self.basis.copy(), self.vstat.copy())
        self.Binv = B
        self.xN = _nonbasic_values(self.vstat, self.lo, self.up)
        self.xB = B @ (self.b - A @ self.xN)
        self.since_refactor = 0
        self.fresh = True

    def pivot(self, r, q, w, delta, leave_upper, refactor):
        """Move nonbasic column q by delta (w = Binv A_q) into row r, whose
        variable leaves for its upper bound if leave_upper, else for its
        lower one; count the iteration and refactorize when due, or at
        once if refactor."""
        basis, vstat, xN, xB = self.basis, self.vstat, self.xN, self.xB
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

        if not refactor:
            Binv = self.Binv
            row = Binv[r] / w[r]
            Binv -= w[:, None] * row
            Binv[r] = row
            self.since_refactor += 1
        self.iters += 1
        self.fresh = False
        if refactor or self.since_refactor >= REFACTOR_EVERY:
            self.refresh()

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
            rc = self.reduced_costs()
            inc, dec = _directions(self.vstat, movable)
            if np.count_nonzero(_priced_wrong(inc, dec, rc)):
                if not self.fresh:
                    self.refresh()
                    continue
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
                                   self.iters)
                self.refresh()
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
                    return _LpResult("infeasible", math.nan, None, basis,
                                     vstat, self.iters)
                self.refresh()
                continue
            np.abs(alpha, out=mag)
            large = eligible & (mag >= DUAL_PIVOT_TOL)
            small = not np.count_nonzero(large)
            if not small:
                eligible = large
            elif not self.fresh:
                # tiny entries may be drift; look again on a fresh basis
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
            self.pivot(r, q, Binv @ A[:, q], (xB[r] - target) / alpha[q],
                       not rising, small)

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
                           self.Binv, self.iters)
            res = aux.dual()
            self.iters = aux.iters
            if res.status != "optimal":
                return self.error(
                    f"dual phase one: {res.message or res.status}")
            self.basis, self.Binv = aux.basis, aux.Binv
            rc = self.reduced_costs()
        self.vstat = _resting(lo, up, rc, self.basis)
        self.refresh()
        if not np.count_nonzero(_priced_wrong(
                *_directions(self.vstat, self.movable), self.reduced_costs())):
            return None
        # the LP's dual is infeasible, so the LP is unbounded if it has a
        # feasible point at all, and infeasible if not
        res = _Simplex(A, self.b, np.zeros(len(c)), lo, up, self.basis,
                       self.vstat, self.Binv, self.iters).dual()
        if res.status == "optimal":
            return _LpResult("unbounded", -INF, None, res.basis, res.vstat,
                             res.iterations)
        return res


def _factorize(A, basis):
    """inv(A[:, basis]), or None if the basis is singular. A basis whose
    condition number in the infinity norm, ||B|| * ||inv(B)||, reaches
    1/eps counts as singular too: ``np.linalg.inv`` raises only on an
    exact zero pivot, and the inverse of such a basis is rounding noise."""
    B = A[:, basis]
    norm = np.abs(B).sum(axis=1).max(initial=0.0)
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    del B  # so that the m×m temporary below does not raise the peak memory
    cond = norm * np.abs(Binv).sum(axis=1).max(initial=0.0)
    if not cond < 1.0 / np.finfo(np.float64).eps:  # also a nan or inf
        return None
    return Binv


def _finish(A, b, c, lo, up, basis, vstat, Binv, xB, iters) -> _LpResult:
    m, n = A.shape
    x = _nonbasic_values(vstat, lo, up)
    x[basis] = xB
    clipped = np.clip(x, lo, up)
    drift = float(np.max(np.abs(x - clipped), initial=0.0))
    if drift > 1e-7:
        return _LpResult("error", math.nan, None, basis, vstat, iters,
                         f"solution violates bounds by {drift:g}")
    x = clipped
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    if resid > RESID_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        return _LpResult("error", math.nan, None, basis, vstat, iters,
                         f"row residual {resid:g} after solve")
    ns = n - m
    return _LpResult("optimal", float(c @ x), x[:ns], basis, vstat, iters,
                     Binv=Binv)


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
    lbs = [v.lb for v in model.variables]
    ubs = [v.ub for v in model.variables]
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
        sol.values = dict(zip((v.name for v in model.variables),
                              res.x.tolist()))
    elif res.status == "unbounded":
        sol.best_bound = -INF
    return sol


def solve_mip(model: Model, config: SolveConfig | None = None) -> Solution:
    """Best-first branch-and-bound over the model's binary variables for
    the ``reference`` backend; any other runs ``_solve_external``.

    Nodes are keyed by (LP bound of the parent, creation index); the
    branch variable is the most fractional binary, ties going to the
    lowest variable id. Node and iteration counts are deterministic for a
    fixed BLAS library, kernel set and thread count (see the module
    docstring). The root LP is
    solved from the slack basis, whatever the time budget, so
    ``root_bound`` is always, bit for bit, the relaxation ``solve_lp``
    would report. Each child LP starts from its parent's optimal
    ``_LpResult``. Each new incumbent is logged at INFO.
    """
    config = config or SolveConfig()
    if config.backend != "reference":
        return _solve_external(model, config)
    core = LpCore(model)
    t0 = time.monotonic()
    sol = _branch_and_bound(core, config, t0)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("mip: %s after %d nodes, %d LP iterations; root bound %r, "
                  "best bound %r; %.3f s", sol.status, sol.nodes,
                  sol.iterations, sol.root_bound, sol.best_bound,
                  time.monotonic() - t0)
    return sol


def _branch_and_bound(core: LpCore, config: SolveConfig,
                      t0: float) -> Solution:
    bin_ids = core.binary_ids
    incumbent = math.inf
    incumbent_x: np.ndarray | None = None
    nodes_solved = 0
    iterations = 0
    root_bound = math.nan
    counter = 0
    # heap entries: (parent LP bound, creation index, lo, up, parent LP);
    # the counter breaks bound ties deterministically and keeps heapq from
    # ever comparing the payloads. The root has no parent and the core's
    # own bounds, which each child copies before it fixes a binary.
    heap: list = [(-INF, counter, core.lo, core.up, None)]
    stop: str | None = None   # why the loop broke, if early
    best_open = math.inf      # bound of the best node left unexplored

    def done(status: str, **kw) -> Solution:
        return Solution(status=status, nodes=nodes_solved,
                        iterations=iterations, root_bound=root_bound, **kw)

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
        if nodes_solved == 1 and res.status == "optimal":
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

        xb = res.x[bin_ids] if len(bin_ids) else np.zeros(0)
        frac = np.minimum(xb - np.floor(xb), np.ceil(xb) - xb)
        if not len(frac) or frac.max() <= INT_TOL:
            incumbent = res.objective
            incumbent_x = res.x
            if log.isEnabledFor(logging.INFO):
                # this node is closed; the open ones are bounded by heap[0]
                open_bound = min(heap[0][0], incumbent) if heap else incumbent
                log.info("mip: incumbent %r after %d nodes; best bound %r, "
                         "gap %.3g", incumbent, nodes_solved, open_bound,
                         (incumbent - open_bound) / max(abs(incumbent), 1e-9))
            continue
        j = int(bin_ids[np.argmax(frac)])  # argmax: lowest index wins ties
        for val in (0.0, 1.0):
            lo2, up2 = lo.copy(), up.copy()
            lo2[j] = up2[j] = val
            counter += 1
            heapq.heappush(heap, (res.objective, counter, lo2, up2, res))

    if incumbent < math.inf:
        values = dict(zip((v.name for v in core.model.variables),
                          incumbent_x.tolist()))
        for vid in bin_ids:  # snap near-integral binaries for reporting
            name = core.model.variables[vid].name
            values[name] = float(round(values[name]))
        if stop is None:  # tree exhausted: the incumbent is proven optimal
            return done("optimal", objective=incumbent,
                        best_bound=incumbent, values=values)
        return done(stop, objective=incumbent,
                    best_bound=min(best_open, incumbent), values=values)
    if stop == "time_limit":
        return done("time_limit", best_bound=best_open)
    return done("infeasible", message="no feasible binary assignment")


# ---------------------------------------------------------------------------
# external solver bridge
# ---------------------------------------------------------------------------

def _command(template: str, input: str, output: str) -> list[str]:
    """The argv of a command template, split as a shell would, with the
    paths put in for ``{input}`` and ``{output}``."""
    return [part.format(input=input, output=output)
            for part in shlex.split(template)]


def _solve_external(model: Model, config: SolveConfig) -> Solution:
    """Write MPS, run the configured command, read the solution file back.

    The backend is a command template, e.g. ``mysolver {input} --write
    {output}``. The command must exit 0 and leave a solution file at
    ``{output}`` in either supported dialect (see
    docs/solution-formats.md). Every value must lie within its bounds and
    every row must hold within ``_finish``'s residual tolerance; the
    objective is recomputed from the model — the file's own claim is not
    trusted.
    """
    model.freeze()
    with tempfile.TemporaryDirectory(prefix="ucbench-") as tmp:
        in_path = Path(tmp) / "model.mps"
        out_path = Path(tmp) / "solution.out"
        in_path.write_text(write_mps(model))
        cmd = _command(config.backend, str(in_path), str(out_path))
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=config.time_limit)
        except (OSError, subprocess.TimeoutExpired) as e:
            return Solution(status="error",
                            message=f"backend failed to run: {e}")
        if proc.returncode != 0:
            return Solution(status="error",
                            message=f"backend exited {proc.returncode}: "
                                    f"{proc.stderr.strip()[:500]}")
        if not out_path.exists():
            return Solution(status="error",
                            message=f"backend wrote no solution file "
                                    f"at {out_path}")
        try:
            parsed = parse_solution_file(out_path.read_text())
        except SolutionParseError as e:
            return Solution(status="error",
                            message=f"unparseable solution file: {e}")

    known = {v.name for v in model.variables}
    for name in parsed:
        if name not in known:
            log.warning("solution file names unknown variable %r; ignored",
                        name)
    missing = [v.name for v in model.variables if v.name not in parsed]
    if missing:
        log.warning("solution file missing %d variable(s) (e.g. %r); "
                    "defaulting to 0", len(missing), missing[0])
    values = {v.name: parsed.get(v.name, 0.0) for v in model.variables}

    for var in model.variables:
        val = values[var.name]
        if val < var.lb - 1e-7 or val > var.ub + 1e-7:
            return Solution(
                status="error", values=values,
                message=f"value {val} for {var.name} violates bounds "
                        f"[{var.lb}, {var.ub}]")
    x, starts = [values[v.name] for v in model.variables], model.starts
    tol = RESID_TOL * (1.0 + max(map(abs, model.rhs), default=0.0))
    for i, (sense, b) in enumerate(zip(model.senses, model.rhs)):
        s = slice(starts[i], starts[i + 1])
        act = sum(a * x[j] for a, j in zip(model.coeffs[s], model.ids[s]))
        miss = {"<=": act - b, ">=": b - act, "=": abs(act - b)}[sense]
        if miss > tol:
            return Solution(status="error", values=values, message=f"row "
                            f"{model.row_names[i]!r} ({sense} {b!r}) is "
                            f"violated by {miss:g}")
    obj = model.objective_value(values)
    return Solution(status="optimal", objective=obj, best_bound=obj,
                    values=values,
                    message="objective recomputed from model; optimality "
                            "as claimed by backend")


class SolutionParseError(ValueError):
    pass


def parse_solution_file(text: str) -> dict[str, float]:
    """Parse an external solution file; dialect by first non-space byte.

    ``<`` opens the XML-like dialect (every element carrying both a
    ``name`` and a ``value`` attribute is taken as a variable). Anything
    else is two-column text: ``name value`` per line, ``#`` comments.
    """
    stripped = text.lstrip()
    if stripped.startswith("<"):
        try:
            root = ET.fromstring(text)
        except ET.ParseError as e:
            raise SolutionParseError(f"bad XML: {e}") from e
        out = {}
        for el in root.iter():  # the root included
            name = el.get("name")
            val = el.get("value")
            if name is None or val is None:
                continue
            try:
                out[name] = float(val)
            except ValueError:
                raise SolutionParseError(
                    f"element {name!r} has non-numeric value {val!r}")
        return out
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise SolutionParseError(
                f"line {lineno}: expected 'name value', got {line!r}")
        try:
            out[tokens[0]] = float(tokens[1])
        except ValueError:
            raise SolutionParseError(
                f"line {lineno}: not a number: {tokens[1]!r}")
    return out
