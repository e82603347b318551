"""Bundled exact LP/MIP solver and the external-solver bridge.

The LP engine is a bounded-variable revised simplex over a dense basis
inverse, with a primal and a dual loop that share the pivot (a rank-1
update of the inverse) and the refactorization every REFACTOR_EVERY
pivots. No presolve, no scaling, no cuts — formulation comparisons need
the raw constraint systems, so the solver must not tighten anything
behind the model's back. ``solve_lp`` only checks, before any simplex
work, that each row can be met within the variable bounds
(``_unreachable_row``); a row that cannot makes the LP infeasible at
once. The check changes no row and no bound, and it reports infeasible
only where the simplex could not have reported optimal.

Every LP takes one path. It starts from a warm basis when one is given
(every branch-and-bound node but the root, from its parent's optimal
basis) and from the slack basis otherwise (every ``solve_lp``, every
root), and it always runs the dual simplex first. Both bases are dual
feasible on every unit-commitment model: fixing a binary keeps the
parent's reduced costs sign-correct, and the slack basis rests each
structural at its lower bound when finite (0 on these models), where a
cost >= 0 prices correctly. The leaving row is chosen by dual steepest edge
(Forrest & Goldfarb, Math. Prog. 57, 1992): the largest viol^2 /
||Binv[r]||^2 among the rows outside their bounds by more than FEAS_TOL,
ties going to the lowest row. The weights are exact, computed from the
dense inverse each iteration at the O(m^2) cost of the rank-1 update,
so no reference framework and no update formulas are needed. The
entering column minimizes |reduced cost| / |pivot-row entry| over the
columns that push the leaving variable back, ties going to the largest
entry and then to the lowest index. The dual reports infeasible only
when a fresh refactorization still shows a violated row no column can
repair, and optimal only through a fresh refactorization, a
dual-feasibility recheck and the same bound and residual checks
(``_finish``) as the primal.

The dual hands the LP to the primal loop when its start basis is not
dual feasible (a negative cost at a lower bound, say), when a
refactorization is singular, when the only pivots left are below
DUAL_PIVOT_TOL, or when the dual objective has not risen for 10·(m+n)
iterations (degenerate cycling). The primal then restarts from the
start basis itself, not from the dual's last one, so such an LP is
solved exactly as a primal-only solver solves it from that basis; the
dual's iterations still count. The primal's Phase I is the composite
method: instead of artificial variables it minimizes the total bound
violation of the current basic solution, so it can start from any
basis; Phase II prices by Dantzig's rule with a Bland fallback.

MIP solving is best-first branch-and-bound on binary variables, fully
deterministic: node selection by (bound, creation index), branching on
the most fractional binary with ties to the lowest variable index. The
root node is solved whatever the time budget, cold, on the model's own
bounds, i.e. exactly as ``solve_lp`` solves a model that passes its
row check (a model that fails it has no optimal root either); its
objective is kept as ``Solution.root_bound`` (NaN unless that LP is
optimal), so a caller that wants both z_LP and z_MIP needs one run.
``Solution.iterations`` of a MIP is the LP iteration count summed over
all nodes. One DEBUG line per ``solve_mip`` reports status, nodes,
iterations, how many nodes the dual finished and how many it handed to
the primal (by reason), root and best bound, and seconds.

``solve_external`` ships a model to any command-line solver via MPS and
reads the solution back from a file (two-column text or an XML-like
format, auto-detected).
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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .milp import INF, Model, write_mps

log = logging.getLogger(__name__)

FEAS_TOL = 1e-9
RESID_TOL = 1e-6  # row residual accepted at the end, relative to 1 + max|b|
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DUAL_PIVOT_TOL = 1e-7  # smallest pivot the dual ratio test takes
INT_TOL = 1e-6
REFACTOR_EVERY = 64


@dataclass
class SolveConfig:
    """Knobs shared by the LP, MIP, and external entry points."""

    gap: float = 1e-6            # relative MIP gap target (0 = prove optimal)
    time_limit: float = 3600.0   # seconds
    backend: str = "reference"   # "reference" or an external command template

    def __post_init__(self):
        if not self.gap >= 0:  # also rejects nan
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if not self.time_limit > 0:  # also rejects nan
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")


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
# which way a column may move from its status, indexed by vstat
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
    dual_end: str = ""            # "done" if the dual simplex ended the
                                  # solve, else why it handed it over


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
              warm: tuple[np.ndarray, np.ndarray] | None = None) -> _LpResult:
        l = self.lo if lo is None else lo
        u = self.up if up is None else up
        return _simplex(self.A, self.b, self.c, l, u, warm)

    def struct_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh copies of the full bound vectors, for per-node overrides."""
        return self.lo.copy(), self.up.copy()


def _cold_start(A, lo, up):
    """Slack basis; each structural rests at its lower bound when finite,
    else at its upper bound when finite, else free at 0."""
    m, n = A.shape
    ns = n - m
    basis = np.arange(ns, n, dtype=np.int64)
    vstat = np.empty(n, dtype=np.int8)
    for j in range(ns):
        if lo[j] > -INF:
            vstat[j] = _AT_LOWER
        elif up[j] < INF:
            vstat[j] = _AT_UPPER
        else:
            vstat[j] = _AT_FREE
    vstat[ns:] = _BASIC
    return basis, vstat


def _nonbasic_values(vstat, lo, up):
    x = np.zeros(len(vstat))
    at_l = vstat == _AT_LOWER
    at_u = vstat == _AT_UPPER
    x[at_l] = lo[at_l]
    x[at_u] = up[at_u]
    return x


def _simplex(A, b, c, lo, up, warm=None) -> _LpResult:
    """Bounded-variable simplex over a dense basis inverse.

    The dual simplex runs first from the warm basis, if one is given and
    inverts, else from the slack basis; the primal loop restarts from
    that same basis when the dual hands the LP over (see the module
    docstring)."""
    m, n = A.shape
    if np.any(lo > up):
        return _LpResult("infeasible", math.nan, None, None, None, 0,
                         "empty variable domain")
    if m == 0:
        # pure box problem: each variable sits at its cheapest bound
        x = np.where(c > 0, lo, np.where(c < 0, up, _nearest_finite(lo, up)))
        if np.any((c > 0) & (lo == -INF)) or np.any((c < 0) & (up == INF)):
            return _LpResult("unbounded", -INF, None, None, None, 0)
        basis = np.zeros(0, dtype=np.int64)
        vstat = np.where(np.isfinite(lo) & (x == lo), _AT_LOWER,
                         np.where(np.isfinite(up) & (x == up), _AT_UPPER,
                                  _AT_FREE)).astype(np.int8)
        return _LpResult("optimal", float(c @ x), x, basis, vstat, 0)

    basis, vstat = None, None
    if warm is not None:
        basis, vstat = warm[0].copy(), warm[1].copy()
        if (len(basis) != m or len(np.unique(basis)) != m
                or basis.min() < 0 or basis.max() >= n):
            basis, vstat = None, None
    if basis is not None:
        Binv = _factorize(A, basis)
        if Binv is None:  # degenerate warm basis; start cold
            basis = None
    if basis is None:
        basis, vstat = _cold_start(A, lo, up)
        Binv = _factorize(A, basis)
        if Binv is None:
            return _LpResult("error", math.nan, None, None, None, 0,
                             "singular slack basis")

    run = _Simplex(A, b, c, lo, up, basis.copy(), vstat.copy(), Binv)
    res = run.dual()
    dual_end = "done"
    if isinstance(res, str):
        # the primal restarts from the start basis, not from the dual's
        # last one, which can be far worse conditioned
        dual_end = res
        run = _Simplex(A, b, c, lo, up, basis, vstat, _factorize(A, basis),
                       iters=run.iters)
        res = run.primal()
    res.dual_end = dual_end
    return res


class _Simplex:
    """The state of one simplex solve, shared by its two loops.

    ``primal`` has a composite (violation-driven) Phase I, Dantzig
    pricing, and a Bland fallback against cycling. ``dual`` is the
    bounded dual simplex with dual steepest-edge pricing. Both change the
    basis only through ``pivot`` (a rank-1 update of Binv, refactorized
    every REFACTOR_EVERY pivots) and ``refresh``. The state lives on an
    object rather than in nested closures: under CPython 3.11, closures
    over 20 variables made per solve raised a process's peak RSS by about
    0.3 MB (their freed closure tuples piled up until a full garbage
    collection)."""

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

    def refresh(self):
        """Refactorize the current basis and recompute xB from scratch;
        False if no invertible basis is left. A drifted Binv can accept a
        pivot that is zero in exact arithmetic, leaving an exactly
        singular basis behind; in that case restore the last good
        checkpoint and force Bland's rule so the replayed trajectory
        diverges from the poisoned one."""
        A = self.A
        B = _factorize(A, self.basis)
        if B is None:
            if self.restores >= 5:
                return False
            self.restores += 1
            self.bland = True
            self.basis = self.ckpt[0].copy()
            self.vstat = self.ckpt[1].copy()
            B = _factorize(A, self.basis)  # checkpoint inverted fine before
            if B is None:  # pragma: no cover - inversion is deterministic
                return False
        self.ckpt = (self.basis.copy(), self.vstat.copy())
        self.Binv = B
        self.xN = _nonbasic_values(self.vstat, self.lo, self.up)
        self.xB = B @ (self.b - A @ self.xN)
        self.since_refactor = 0
        self.fresh = True
        return True

    def pivot(self, r, q, w, delta, leave_upper):
        """Move nonbasic column q by delta (w = Binv A_q) into row r, whose
        variable leaves for its upper bound if leave_upper, else for its
        lower one; count the iteration and refactorize when due. Returns
        an error message if no invertible basis is left."""
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

        piv = w[r]
        if abs(piv) < PIVOT_TOL:
            if not self.refresh():
                return "singular basis after pivot"
        else:
            Binv = self.Binv
            row = Binv[r] / piv
            Binv -= w[:, None] * row
            Binv[r] = row
            self.since_refactor += 1
        self.iters += 1
        self.fresh = False
        if self.since_refactor >= REFACTOR_EVERY and not self.refresh():
            return "basis became singular"
        return None

    def dual(self):
        """Bounded dual simplex. Ends the solve (an _LpResult), or returns
        why the primal should solve it instead: "not dual feasible",
        "stall", "singular" or "small pivot"."""
        A, b, c, lo, up = self.A, self.b, self.c, self.lo, self.up
        movable = self.movable
        n = A.shape[1]
        best = -INF
        stalled = 0
        while True:
            if self.restores:
                return "singular"
            if self.iters >= self.max_iter:
                return self.error("iteration limit exceeded")
            basis, vstat, Binv = self.basis, self.vstat, self.Binv
            xB, xN = self.xB, self.xN
            rc = c - (c[basis] @ Binv) @ A
            if (((_CAN_INC[vstat] & (rc < -OPT_TOL))
                 | (_CAN_DEC[vstat] & (rc > OPT_TOL))) & movable).any():
                if self.fresh:
                    return "not dual feasible"
                if not self.refresh():
                    return self.error("basis became singular")
                continue

            # leaving row by dual steepest edge: the largest viol^2 /
            # ||Binv[r]||^2, with exact weights from the dense inverse
            short = lo[basis] - xB
            over = xB - up[basis]
            viol = np.maximum(short, over)
            out = viol > FEAS_TOL
            if not out.any():
                if self.fresh:
                    return _finish(A, b, c, lo, up, basis, vstat, xB,
                                   self.iters)
                if not self.refresh():
                    return self.error("basis became singular")
                continue
            score = np.where(out, viol * viol, 0.0)
            score /= np.einsum("ij,ij->i", Binv, Binv)
            r = int(np.argmax(score))  # first max -> lowest row on ties

            # the dual objective is the current point's cost; it must rise
            obj_now = float(c[basis] @ xB + c @ xN)
            if obj_now > best + 1e-12 * (1.0 + abs(obj_now)):
                best, stalled = obj_now, 0
            else:
                stalled += 1
                if stalled > self.stall_limit:
                    return "stall"

            # entering column: one whose move pushes x_B[r] toward the
            # violated bound; the smallest |rc| / |alpha| keeps every
            # reduced cost sign-correct
            rising = bool(short[r] > over[r])
            alpha = Binv[r] @ A
            # x_B[r]'s move toward its bound per unit rise of each column
            toward = -alpha if rising else alpha
            eligible = ((_CAN_INC[vstat] & (toward > PIVOT_TOL))
                        | (_CAN_DEC[vstat] & (toward < -PIVOT_TOL))) & movable
            if not eligible.any():
                if self.fresh:
                    return _LpResult("infeasible", math.nan, None, basis,
                                     vstat, self.iters)
                if not self.refresh():
                    return self.error("basis became singular")
                continue
            mag = np.abs(alpha)
            eligible &= mag >= DUAL_PIVOT_TOL
            if not eligible.any():  # a pivot this small wrecks the basis
                return "small pivot"
            ratios = np.full(n, INF)
            np.divide(np.abs(rc), mag, out=ratios, where=eligible)
            ties = np.flatnonzero(ratios <= ratios.min() + 1e-12)
            q = int(ties[np.argmax(mag[ties])])  # largest |alpha|, lowest j

            target = lo[basis[r]] if rising else up[basis[r]]
            msg = self.pivot(r, q, Binv @ A[:, q],
                             (xB[r] - target) / alpha[q], not rising)
            if msg is not None:
                return self.error(msg)

    def primal(self):
        A, b, c, lo, up = self.A, self.b, self.c, self.lo, self.up
        movable = self.movable
        m = A.shape[0]
        stalled = 0
        last_obj = math.inf
        while True:
            if self.iters >= self.max_iter:
                return self.error("iteration limit exceeded")
            basis, vstat, Binv = self.basis, self.vstat, self.Binv
            xB, xN = self.xB, self.xN
            lb_B, ub_B = lo[basis], up[basis]
            below = xB < lb_B - FEAS_TOL
            above = xB > ub_B + FEAS_TOL
            phase1 = bool(below.any() or above.any())

            if phase1:
                d = np.zeros(m)
                d[below] = -1.0
                d[above] = 1.0
                y = d @ Binv
                rc = -(y @ A)
                obj_now = float((lb_B[below] - xB[below]).sum()
                                + (xB[above] - ub_B[above]).sum())
            else:
                y = c[basis] @ Binv
                rc = c - y @ A
                obj_now = float(c[basis] @ xB + c @ xN)

            # entering candidates: improving, movable, nonbasic
            improving = ((_CAN_INC[vstat] & (rc < -OPT_TOL))
                         | (_CAN_DEC[vstat] & (rc > OPT_TOL))) & movable
            scores = np.where(improving, np.abs(rc), -1.0)
            q = int(np.argmax(scores))  # first max -> lowest index on ties

            if scores[q] < 0.0:  # nothing improves
                if not self.fresh:
                    # refresh the factorization and double-check before
                    # exiting
                    if not self.refresh():
                        return self.error("basis became singular")
                    continue
                if phase1:
                    return _LpResult("infeasible", math.nan, None, basis,
                                     vstat, self.iters)
                return _finish(A, b, c, lo, up, basis, vstat, xB, self.iters)

            if self.bland:
                q = int(np.flatnonzero(improving)[0])
            sigma = 1.0 if rc[q] < 0 else -1.0

            w = Binv @ A[:, q]
            rate = -sigma * w  # d x_B / d step

            # ratio test: first breakpoint among basic bounds and the
            # entering variable's own opposite bound. A rising basic
            # variable runs into its upper bound, or its lower one while
            # still below it; a falling one its lower bound, or its upper
            # one while still above it; one moving away from a bound it
            # violates meets none.
            pos = rate > PIVOT_TOL
            neg = rate < -PIVOT_TOL
            target = np.where(np.where(pos, ~below, above), ub_B, lb_B)
            hits = ((pos & ~above) | (neg & ~below)) & (np.abs(target) < INF)
            limits = np.full(m, INF)
            np.divide(target - xB, rate, out=limits, where=hits)
            np.maximum(limits, 0.0, out=limits)

            own = up[q] - lo[q] if (lo[q] > -INF and up[q] < INF) else INF
            r = int(np.argmin(limits))
            step = float(limits[r])
            if own < step:
                # bound flip: the entering variable crosses to its other
                # bound
                xB -= sigma * own * w
                vstat[q] = _AT_UPPER if vstat[q] == _AT_LOWER else _AT_LOWER
                xN[q] = up[q] if vstat[q] == _AT_UPPER else lo[q]
                self.iters += 1
                self.fresh = False
                stalled, last_obj, self.bland = _stall(
                    obj_now, last_obj, stalled, self.stall_limit, self.bland)
                continue
            if not np.isfinite(step):
                if phase1:
                    return self.error("no breakpoint in phase-one direction")
                return _LpResult("unbounded", -INF, None, basis, vstat,
                                 self.iters)

            # tie-break among rows reaching the minimum: largest pivot for
            # stability (Bland mode: lowest variable index for termination)
            ties = np.flatnonzero(limits <= step + 1e-12)
            if len(ties) > 1:  # a lone tie is the argmin row itself
                if self.bland:
                    r = int(ties[np.argmin(basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(w[ties]))])

            # the leaving variable lands on the bound it violates, else on
            # the one it runs into
            msg = self.pivot(r, q, w, sigma * step,
                             not (below[r] or (not above[r] and rate[r] < 0)))
            if msg is not None:
                return self.error(msg)
            stalled, last_obj, self.bland = _stall(
                obj_now, last_obj, stalled, self.stall_limit, self.bland)


def _stall(obj_now, last_obj, stalled, stall_limit, bland):
    if obj_now < last_obj - 1e-12 * (1.0 + abs(last_obj)):
        return 0, obj_now, bland
    stalled += 1
    if stalled > stall_limit and not bland:
        log.debug("simplex: switching to Bland's rule after %d stalled "
                  "iterations", stalled)
        return 0, obj_now, True
    return stalled, min(obj_now, last_obj), bland


def _factorize(A, basis):
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError:
        return None


def _nearest_finite(lo, up):
    out = np.zeros(len(lo))
    only_up = (lo == -INF) & (up < INF)
    out[only_up] = np.minimum(up[only_up], 0.0)
    only_lo = lo > -INF
    out[only_lo] = np.maximum(lo[only_lo], 0.0)
    both = (lo > -INF) & (up < INF)
    out[both] = np.clip(0.0, lo[both], up[both])
    return out


def _finish(A, b, c, lo, up, basis, vstat, xB, iters) -> _LpResult:
    m, n = A.shape
    x = _nonbasic_values(vstat, lo, up)
    x[basis] = xB
    drift = float(np.max(np.abs(x - np.clip(x, lo, up)), initial=0.0))
    if drift > 1e-7:
        return _LpResult("error", math.nan, None, basis, vstat, iters,
                         f"solution violates bounds by {drift:g}")
    np.clip(x, lo, up, out=x)
    resid = float(np.max(np.abs(A @ x - b), initial=0.0))
    if resid > RESID_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        return _LpResult("error", math.nan, None, basis, vstat, iters,
                         f"row residual {resid:g} after solve")
    ns = n - m
    return _LpResult("optimal", float(c @ x), x[:ns], basis, vstat, iters)


# ---------------------------------------------------------------------------
# public LP / MIP entry points
# ---------------------------------------------------------------------------

def _to_solution(core: LpCore, res: _LpResult) -> Solution:
    values = {}
    if res.x is not None:
        names = [v.name for v in core.model.variables]
        values = dict(zip(names, res.x.tolist()))
    obj = res.objective if res.status == "optimal" else math.nan
    return Solution(status=res.status, objective=obj,
                    best_bound=obj if res.status == "optimal" else math.nan,
                    values=values, nodes=0, iterations=res.iterations,
                    message=res.message)


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
    core = LpCore(model)
    res = core.solve()
    sol = _to_solution(core, res)
    if res.status == "unbounded":
        sol.best_bound = -INF
    return sol


def solve_mip(model: Model, config: SolveConfig | None = None) -> Solution:
    """Best-first branch-and-bound over the model's binary variables.

    Deterministic: nodes are keyed by (LP bound of the parent, creation
    index); the branch variable is the most fractional binary, ties going
    to the lowest variable id. The root LP is solved from the slack basis,
    whatever the time budget, so ``root_bound`` is always, bit for bit,
    the relaxation ``solve_lp`` would report. Each child LP starts from
    its parent's optimal basis. Every node runs the dual simplex first,
    which hands the node to the primal loop, restarted from the node's
    start basis, if that basis is not dual feasible, turns singular, is
    left with only tiny pivots or stalls (see the module docstring).
    Among degenerate optima the dual may end a node on another optimal
    basis than the primal would, so node counts, and the incumbent a gap
    stop returns, can differ from a primal-only tree; a proven optimum
    does not.
    """
    config = config or SolveConfig()
    core = LpCore(model)
    t0 = time.monotonic()
    dual_ends = Counter()
    sol = _branch_and_bound(core, config, t0, dual_ends)
    if log.isEnabledFor(logging.DEBUG):
        why = [dual_ends[k] for k in ("not dual feasible", "stall",
                                      "singular", "small pivot")]
        log.debug("mip: %s after %d nodes, %d LP iterations; dual simplex "
                  "finished %d of %d nodes, handed %d to the primal (not "
                  "dual feasible %d, stall %d, singular %d, small pivot %d); "
                  "root bound %r, best bound %r; %.3f s", sol.status,
                  sol.nodes, sol.iterations, dual_ends["done"], sol.nodes,
                  sum(why), *why, sol.root_bound, sol.best_bound,
                  time.monotonic() - t0)
    return sol


def _branch_and_bound(core: LpCore, config: SolveConfig, t0: float,
                      dual_ends: Counter) -> Solution:
    lo0, up0 = core.struct_bounds()
    bin_ids = core.binary_ids
    incumbent = math.inf
    incumbent_x: np.ndarray | None = None
    nodes_solved = 0
    iterations = 0
    root_bound = math.nan
    counter = 0
    # heap entries: (parent LP bound, creation index, lo, up, warm basis);
    # the counter breaks bound ties deterministically and keeps heapq from
    # ever comparing the array payloads
    heap: list = [(-INF, counter, lo0, up0, None)]
    stop: str | None = None   # why the loop broke, if early
    best_open = math.inf      # bound of the best node left unexplored

    def done(status: str, **kw) -> Solution:
        return Solution(status=status, nodes=nodes_solved,
                        iterations=iterations, root_bound=root_bound, **kw)

    while heap:
        bound, _, lo, up, warm = heapq.heappop(heap)
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

        res = core.solve(lo, up, warm)
        dual_ends[res.dual_end] += 1
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
            continue
        j = int(bin_ids[np.argmax(frac)])  # argmax: lowest index wins ties
        for val in (0.0, 1.0):
            lo2, up2 = lo.copy(), up.copy()
            lo2[j] = up2[j] = val
            counter += 1
            heapq.heappush(
                heap, (res.objective, counter, lo2, up2,
                       (res.basis, res.vstat)))

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

def solve_external(model: Model, config: SolveConfig) -> Solution:
    """Write MPS, run the configured command, read the solution file back.

    The backend is a command template with ``{input}`` and ``{output}``
    placeholders, e.g. ``mysolver {input} --write {output}``. The command
    must exit 0 and leave a solution file at ``{output}`` in either
    supported dialect (see docs/solution-formats.md). The objective is
    recomputed from the model — the file's own claim is not trusted.
    """
    template = config.backend
    if template == "reference" or "{input}" not in template \
            or "{output}" not in template:
        return Solution(status="error",
                        message="external backend needs a command template "
                                "with {input} and {output} placeholders")
    model.freeze()
    with tempfile.TemporaryDirectory(prefix="ucbench-") as tmp:
        in_path = Path(tmp) / "model.mps"
        out_path = Path(tmp) / "solution.out"
        in_path.write_text(write_mps(model))
        cmd = [part.format(input=str(in_path), output=str(out_path))
               for part in shlex.split(template)]
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

    known = {v.name: v for v in model.variables}
    values: dict[str, float] = {}
    for name, val in parsed.items():
        if name not in known:
            log.warning("solution file names unknown variable %r; ignored",
                        name)
            continue
        values[name] = val
    missing = [n for n in known if n not in values]
    for name in missing:
        values[name] = 0.0
    if missing:
        log.warning("solution file missing %d variable(s) (e.g. %r); "
                    "defaulting to 0", len(missing), missing[0])

    for name, val in values.items():
        var = known[name]
        if val < var.lb - 1e-7 or val > var.ub + 1e-7:
            return Solution(
                status="error", values=values,
                message=f"value {val} for {name} violates bounds "
                        f"[{var.lb}, {var.ub}]")
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
        nodes = [root] + list(root.iter())
        for el in nodes:
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
