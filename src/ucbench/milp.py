"""Solver-agnostic linear model container and exchange-format I/O.

A :class:`Model` is an ordered collection of bounded variables, linear
constraints held as one compressed-sparse-row block, and a minimization
objective. It knows nothing about unit commitment; the formulation
builders produce models, the bundled solver and the MPS writer consume
them. Variables enter one at a time (:meth:`Model.add_variable`) or as a
block (:meth:`Model.add_variables`), and rows likewise
(:meth:`Model.add_constraint`, :meth:`Model.add_rows`); a block runs the
single form's checks on all its items at once and, if one fails, raises
that item's error and leaves the model unchanged. A cost enters only
with its column: there is no other way to write the objective. Each
store has one writer: both forms of a variable store through one
append, both forms of a row through another, and :meth:`Model.rebound`
copies a model with new bounds and right-hand sides, checking only
those.

Columns and rows both live in typed arrays, which :func:`write_mps` and
the solver view with numpy without a copy. A column is its name in one
list, its bounds in ``array('d')``s, its kind as one byte and its
objective coefficient in a dense ``array('d')``; the row block is
``array('q')`` row starts and variable ids and ``array('d')``
coefficients. A block of either is checked one way, with numpy, whatever
sequences hold it: numpy views :func:`read_mps`'s arrays and a model's
own typed arrays, and converts the formulation builders' lists once. A
block that fails that check is checked item by item, by one loop that
sets the failing item's index on its error, so that the first failing
item raises the single form's error.

:func:`write_mps` makes every section's lines the same way, in slices
of ``_SLICE`` lines, each joined into one string as soon as it is
formatted; the text is then joined once from those strings. A line, be
it a ROWS, COLUMNS, RHS or BOUNDS line or a marker, enters its join as
three pieces that it shares with other lines (a head such as its
column's prefix, a name such as its row's, and its value's text), never
as a string of its own. So the writer needs a little over twice the
text's size: the slices, the result, arrays over the nonzeros and the
names.

:func:`read_mps` reads the text with two loops: one for COLUMNS, and one
that takes the lines of every other section through their section's
checks. COLUMNS's common line, whose every lookup succeeds, is stored
without the checks that every other line takes, so that a fault gives
the same message and line number in any shape.

Determinism is a design requirement: models store their terms in a
canonical order (sorted by variable id within each row, zero coefficients
dropped), so :func:`write_mps` is a pure function of the model and
``read_mps(write_mps(m))`` reproduces ``m`` exactly — names, order,
coefficients, bounds, and kinds. The exchange grammar is documented in
``docs/mps-format.md``.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from math import isfinite
from operator import index, itemgetter, le

import numpy as np

INF = math.inf

_NAME = r"[A-Za-z][A-Za-z0-9_]{0,254}"
_NAME_RE = re.compile(_NAME + r"\Z")
_NAMES_RE = re.compile(rf"(?:{_NAME}\n)*{_NAME}")  # names joined by "\n"

SENSES = ("<=", "=", ">=")
_SENSE_SET = frozenset(SENSES)
KINDS = ("continuous", "binary")  # a column's kind byte indexes this
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_BINARY = _KIND_CODES["binary"]
_BINARY_BOUNDS = ((0, 1), (0, 0), (1, 1))
_BINARY_ENDS = frozenset((0.0, 1.0))  # either bound of a binary
_SENSE_TO_ROW = {"<=": "L", "=": "E", ">=": "G"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


class ModelError(ValueError):
    """Raised for malformed model construction (names, bounds, references).
    :meth:`Model.add_rows` sets ``row`` to the failing row's index in its
    block, and :meth:`Model.add_variables` sets ``column`` to the failing
    variable's index in its block; :meth:`Model.rebound` sets either to
    the failing row's or variable's id."""

    row: int | None = None
    column: int | None = None


class MpsParseError(ValueError):
    """Raised by :func:`read_mps`; message carries a 1-based line number."""


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ModelError(
            f"invalid {what} name {name!r}: must match "
            "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters")
    return name


def _names_ok(names, taken, reserved: str | None = None) -> bool:
    """Whether ``names`` are valid and distinct, and none is ``reserved``
    or in ``taken`` (any iterable of names)."""
    if len(names) == 0:
        return True
    try:
        joined = "\n".join(names)
    except TypeError:  # a name that is not a string
        return False
    unique = set(names)
    return (joined.count("\n") == len(names) - 1
            and _NAMES_RE.fullmatch(joined) is not None
            and len(unique) == len(names) and reserved not in unique
            and unique.isdisjoint(taken))


def _check_bounds(name: str, lb, ub, kind: str) -> tuple[float, float]:
    """Check the bounds of variable ``name`` of kind ``kind``, in
    :meth:`Model.add_variable`'s order, and return them as floats."""
    try:  # numeric strings convert, as float converts them
        lb, ub = float(lb), float(ub)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"variable {name!r}: bounds must be numbers, "
                         f"got [{lb!r}, {ub!r}]") from None
    if kind == "binary" and (lb, ub) not in _BINARY_BOUNDS:
        raise ModelError(
            f"binary variable {name!r} must have bounds [0, 1] or be "
            f"fixed at 0 or 1, got [{lb}, {ub}]")
    if lb != lb or ub != ub:
        raise ModelError(f"variable {name!r}: bound is NaN, got "
                         f"[{lb}, {ub}]")
    if lb == INF or ub == -INF:
        raise ModelError(f"variable {name!r}: a lower bound of +inf or "
                         f"an upper bound of -inf admits no value, got "
                         f"[{lb}, {ub}]")
    if lb > ub:
        raise ModelError(f"variable {name!r}: inverted bounds "
                         f"[{lb}, {ub}]")
    return lb, ub


def _check_rhs(name: str, rhs) -> float:
    """Check the right-hand side of constraint ``name`` as
    :meth:`Model.add_constraint` does and return it as a float."""
    try:
        rhs = float(rhs)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"constraint {name!r}: right-hand side must be "
                         f"a number, got {rhs!r}") from None
    if rhs != rhs:
        raise ModelError(f"constraint {name!r}: right-hand side is NaN")
    if not isfinite(rhs):
        raise ModelError(f"constraint {name!r}: right-hand side must be "
                         f"finite, got {rhs}")
    return rhs


def _raw(a, dtype) -> memoryview:
    """The bytes of sequence ``a`` as a C-contiguous ``dtype`` array, for
    a typed array's ``frombytes``: a view, not a copy, of an array that
    already is one."""
    return np.ascontiguousarray(a, dtype=dtype).data.cast("B")


def _pairs(terms, row: str) -> list:
    """The (variable id, coefficient) pairs of ``terms``, a sequence of
    pairs. Terms of another shape raise a :class:`ModelError` that names
    them and constraint ``row``."""
    def fault(what):
        return ModelError(f"constraint {row!r}: {what}")

    try:
        terms = iter(terms)
    except TypeError:
        raise fault(f"terms must be a dict or a sequence of (variable id, "
                    f"coefficient) pairs, got {terms!r}") from None
    pairs = []
    for term in terms:
        try:
            i, c = term
        except (TypeError, ValueError):
            raise fault(f"term {term!r} is not a (variable id, coefficient) "
                        "pair") from None
        pairs.append((i, c))
    return pairs


def _finite_floats(values) -> list[float] | None:
    """``values`` as a list of floats if every one converts, as float
    converts it, and is finite; else None."""
    try:
        out = list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return out if all(map(isfinite, out)) else None


def _each(check, where: str, *items) -> list:
    """``check(*item)`` for each item zipped from ``items``, in order. The
    first item whose check raises a :class:`ModelError` raises it, with
    the item's index set as the error's ``where`` (``"row"`` or
    ``"column"``)."""
    out = []
    for i, item in enumerate(zip(*items)):
        try:
            out.append(check(*item))
        except ModelError as e:
            setattr(e, where, i)
            raise
    return out


@dataclass(frozen=True)
class Variable:
    """One column of a model, as :meth:`Model.variable` reads it."""

    name: str
    lb: float
    ub: float
    kind: str  # "continuous" | "binary"


@dataclass
class ModelStats:
    n_variables: int
    n_constraints: int
    n_binary: int
    n_nonzeros: int  # constraint-matrix entries only (objective excluded)


class Model:
    """Ordered variables + constraints + minimization objective.

    Single-writer: build it up with :meth:`add_variable` /
    :meth:`add_constraint` (or a block of variables or rows at once with
    :meth:`add_variables` / :meth:`add_rows`), then freeze (any
    write/solve freezes implicitly) and share freely — frozen models are
    immutable. A variable enters with its objective coefficient (its
    cost), and only so. The columns are written only by
    :meth:`_append_columns`, the rows only by :meth:`_append_rows`, and
    a copy's stores only by :meth:`rebound`. Costs, coefficients and
    right-hand sides must be finite. A bound may be infinite in its own
    direction (a lower bound of -inf, an upper bound of +inf) but not
    NaN.
    """

    def __init__(self, name: str = "model"):
        self.name = _check_name(name, "model")
        self.objective_name = "COST"
        # The columns: variable j is named var_names[j], lies in [lb[j],
        # ub[j]], is of kind KINDS[kinds[j]] and costs objective[j] (0.0
        # when it is not in the objective). The numbers live in typed
        # arrays, which numpy views without a copy.
        self.var_names: list[str] = []
        self.lb = array("d")
        self.ub = array("d")
        self.kinds = bytearray()
        self.objective = array("d")
        # The rows, as one compressed-sparse-row block: row r is named
        # row_names[r] and holds the terms ids[k], coeffs[k] for k in
        # range(starts[r], starts[r + 1]), sorted by variable id. The
        # terms live in typed arrays, which numpy views without a copy.
        self.row_names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.starts = array("q", [0])
        self.ids = array("q")
        self.coeffs = array("d")
        self.frozen = False
        self._var_ids: dict[str, int] | None = None  # see _name_index
        self._con_names: set[str] | None = None  # see _row_name_set

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float,
                     kind: str = "continuous", cost: float = 0.0) -> int:
        """Append a variable with bounds ``lb``, ``ub``, kind ``kind`` and
        objective coefficient ``cost``, a finite number; returns its id."""
        if self.frozen:
            raise ModelError("model is frozen")
        lb, ub, code, cost = self._check_variable(name, lb, ub, kind, cost)
        return self._append_columns([name], [lb], [ub], bytes((code,)),
                                    [cost])[0]

    def _name_index(self) -> dict[str, int]:
        """The variable ids by name. Only name lookups and one-by-one
        checks need them, so they are built on first use and kept up to
        date from then on."""
        if self._var_ids is None:
            self._var_ids = dict(zip(self.var_names,
                                     range(len(self.var_names))))
        return self._var_ids

    def _check_variable(self, name, lb, ub, kind, cost, taken=frozenset()):
        """Run every check of one variable, in :meth:`add_variable`'s
        order, and return its (lb, ub, kind byte, cost); ``taken`` holds
        the names of variables that precede it but are not yet in the
        model."""
        _check_name(name, "variable")
        if name in self._name_index() or name in taken:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in KINDS:
            raise ModelError(f"unknown variable kind {kind!r}")
        lb, ub = _check_bounds(name, lb, ub, kind)
        try:
            cost = float(cost) + 0.0  # -0.0 is stored as 0.0
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"variable {name!r}: cost must be a number, "
                             f"got {cost!r}") from None
        if not isfinite(cost):
            raise ModelError(f"variable {name!r}: cost must be finite, "
                             f"got {cost}")
        return lb, ub, _KIND_CODES[kind], cost

    def add_variables(self, names, lbs, ubs, kinds, costs=None) -> range:
        """Append a block of variables: variable ``j`` is named
        ``names[j]`` with bounds ``lbs[j]``, ``ubs[j]``, kind ``kinds[j]``
        and objective coefficient ``costs[j]`` (0 for every variable when
        ``costs`` is None). All are sequences of the same length (lists,
        numpy arrays or typed arrays). Each variable passes every check of
        :meth:`add_variable` and is stored the same way, but one check
        runs on the whole block at once, with numpy on the bounds and
        costs. A block that fails it is checked variable by variable: the
        first failing variable raises the :class:`ModelError` that
        :meth:`add_variable` would raise for it, with its index in the
        block as ``column``, and the model is left unchanged. Returns the
        new variables' ids."""
        if self.frozen:
            raise ModelError("model is frozen")
        n = len(names)
        if costs is None:
            costs = np.zeros(n)
        if (len(lbs) != n or len(ubs) != n or len(kinds) != n
                or len(costs) != n):
            raise ModelError(f"add_variables: {n} names need {n} lower "
                             f"bounds, {n} upper bounds, {n} kinds and {n} "
                             "costs")
        return self._append_columns(names, *(
            self._valid_columns(names, lbs, ubs, kinds, costs)
            or self._check_columns(names, lbs, ubs, kinds, costs)))

    def _valid_columns(self, names, lbs, ubs, kinds, costs):
        """The block's bounds and costs as float64 arrays and its kind
        bytes, if every variable passes every check, else None. The checks
        run over the whole block, with numpy on the bounds and costs, and
        do not name the failing variable; bounds or costs that numpy does
        not hold as numbers are left to the variable checks (a binary must
        sit on [0, 1], [0, 0] or [1, 1], and a NaN bound fails lb <= ub)."""
        try:
            codes = bytes(map(_KIND_CODES.__getitem__, kinds))
            lbs, ubs = np.asarray(lbs), np.asarray(ubs)
            costs = np.asarray(costs)
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if not (lbs.ndim == ubs.ndim == costs.ndim == 1
                and lbs.dtype.kind in "iuf" and ubs.dtype.kind in "iuf"
                and costs.dtype.kind in "iuf"
                and _names_ok(names, self.var_names)):
            return None
        lbs = lbs.astype(np.float64, copy=False)
        ubs = ubs.astype(np.float64, copy=False)
        if lbs.size and not ((lbs <= ubs).all() and lbs.max() < INF
                             and ubs.min() > -INF
                             and np.isfinite(costs).all()):
            return None
        if _BINARY in codes:
            binary = np.frombuffer(codes, dtype=np.bool_)  # its byte is 1
            if not _BINARY_ENDS.issuperset(lbs[binary].tolist()) \
                    or not _BINARY_ENDS.issuperset(ubs[binary].tolist()):
                return None
        return lbs, ubs, codes, costs + 0.0  # -0.0 is stored as 0.0

    def _check_columns(self, names, lbs, ubs, kinds, costs):
        """Check the block's variables one by one, as add_variable would
        after adding the variables before; the first failing variable
        raises, with its index as ``column``. Returns the block's bounds,
        kind bytes and costs."""
        taken = set()

        def check(name, *column):
            checked = self._check_variable(name, *column, taken)
            taken.add(name)
            return checked

        checked = _each(check, "column", names, lbs, ubs, kinds, costs)
        lbs, ubs, codes, costs = zip(*checked) if checked else ((),) * 4
        return lbs, ubs, bytes(codes), costs

    def _append_columns(self, names, lbs, ubs, codes, costs) -> range:
        """Append variables that passed their checks: their bounds and
        costs as floats, their kinds as bytes."""
        new = range(len(self.var_names), len(self.var_names) + len(names))
        self.var_names.extend(names)
        self.lb.frombytes(_raw(lbs, np.float64))
        self.ub.frombytes(_raw(ubs, np.float64))
        self.kinds += codes
        self.objective.frombytes(_raw(costs, np.float64))
        if self._var_ids is not None:
            self._var_ids.update(zip(names, new))
        return new

    def add_constraint(self, name: str, terms, sense: str, rhs: float) -> int:
        """Append a row. ``terms`` is a dict {var id: coeff} or a sequence
        of (var id, coeff) pairs referencing distinct, declared variables,
        with finite coefficients; ``rhs`` must be finite.
        Terms are stored sorted by variable id with zero coefficients
        dropped (the canonical order the MPS round trip preserves)."""
        if self.frozen:
            raise ModelError("model is frozen")
        ids, coeffs, rhs = self._check_row(name, terms, sense, rhs)
        return self._append_rows([name], [sense], [rhs], [0, len(ids)], ids,
                                 coeffs)[0]

    def _row_name_set(self) -> set[str]:
        """The row names as a set. Only one-by-one row checks need it, so
        it is built on first use and kept up to date from then on; a block
        check reads :attr:`row_names` instead."""
        if self._con_names is None:
            self._con_names = set(self.row_names)
        return self._con_names

    def _check_row(self, name, terms, sense, rhs, taken=frozenset()):
        """Run every check of one row, in :meth:`add_constraint`'s order,
        and return its canonical (ids, coeffs, rhs); ``taken`` holds the
        names of rows that precede it but are not yet in the model."""
        _check_name(name, "constraint")
        if (name in self._row_name_set() or name == self.objective_name
                or name in taken):
            raise ModelError(f"duplicate constraint name {name!r}")
        if sense not in SENSES:
            raise ModelError(f"unknown sense {sense!r}; expected one of {SENSES}")
        items = []
        for i, c in (terms.items() if isinstance(terms, dict)
                     else _pairs(terms, name)):
            try:
                items.append((index(i), c))
            except TypeError:
                raise ModelError(f"constraint {name!r}: variable id {i!r} "
                                 "is not an integer") from None
        items.sort(key=itemgetter(0))
        if items:
            if items[0][0] < 0 or items[-1][0] >= len(self.var_names):
                raise ModelError(
                    f"constraint {name!r} references an undeclared variable")
            for (a, _), (b, _) in zip(items, items[1:]):
                if a == b:
                    raise ModelError(
                        f"constraint {name!r} repeats a variable; combine "
                        "coefficients before adding")
        ids, coeffs = [], []
        for i, c in items:
            try:
                c = float(c)
            except (TypeError, ValueError, OverflowError):
                raise ModelError(f"constraint {name!r}: coefficient of "
                                 f"variable id {i} must be a number, got "
                                 f"{c!r}") from None
            if c != 0.0:
                if not isfinite(c):
                    raise ModelError(f"constraint {name!r}: coefficient of "
                                     f"variable id {i} must be finite, got {c}")
                ids.append(i)
                coeffs.append(c)
        return ids, coeffs, _check_rhs(name, rhs)

    def add_rows(self, names, senses, rhs, starts, ids, coeffs) -> range:
        """Append a block of rows given in compressed-sparse-row form.

        Row ``r`` is named ``names[r]``, has sense ``senses[r]`` and
        right-hand side ``rhs[r]``, and holds the terms ``ids[k]``,
        ``coeffs[k]`` for ``k`` in ``range(starts[r], starts[r + 1])``, in
        any order; ``starts`` are integers, the first of them 0. All six
        are sequences: lists, numpy arrays or typed arrays. Each row passes
        every check of :meth:`add_constraint` and is stored the same way,
        but one check runs on the whole block at once, with numpy on the
        ids and coefficients as arrays (a view of an array, a conversion
        of a list). A block that fails that check, or lists some row's ids
        out of order, is checked row by row: the first failing row raises
        the :class:`ModelError` that :meth:`add_constraint` would raise
        for it, with the row's index in the block as ``row``, and the model
        is left unchanged. Returns the new rows' indices."""
        if self.frozen:
            raise ModelError("model is frozen")
        n = len(names)
        try:
            starts = list(map(index, starts))
        except TypeError:
            starts = None
        if (starts is None or len(senses) != n or len(rhs) != n
                or len(starts) != n + 1 or starts[0] != 0
                or starts[-1] != len(ids) or len(coeffs) != len(ids)
                or not all(map(le, starts, starts[1:]))):
            raise ModelError(
                f"add_rows: {n} names need {n} senses, {n} right-hand sides "
                "and n + 1 non-decreasing integer starts from 0 to the "
                "number of terms, with one coefficient per id")
        return self._append_rows(names, senses, *(
            self._valid_block(names, senses, rhs, starts, ids, coeffs)
            or self._check_rows(names, senses, rhs, starts, ids, coeffs)))

    def _check_rows(self, names, senses, rhs, starts, ids, coeffs):
        """Check the block's rows one by one, as add_constraint would after
        adding the rows before; the first failing row raises, with its
        index as ``row``. Returns the rows' (rhs, starts, ids, coeffs) in
        canonical form."""
        taken = set()

        def check(name, a, b, sense, row_rhs):
            checked = self._check_row(name, zip(ids[a:b], coeffs[a:b]), sense,
                                      row_rhs, taken)
            taken.add(name)
            return checked

        checked = _each(check, "row", names, starts, starts[1:], senses, rhs)
        row_ids, row_coeffs, rhs = zip(*checked) if checked else ((),) * 3
        return (rhs, [0, *accumulate(map(len, row_ids))],
                list(chain.from_iterable(row_ids)),
                list(chain.from_iterable(row_coeffs)))

    def _valid_block(self, names, senses, rhs, starts, ids, coeffs):
        """The block's (rhs, starts, ids, coeffs) in canonical form, as the
        row checks return them, if every row passes every check and lists
        its ids in increasing order, else None. The checks run over the
        whole block, with numpy on the terms, and do not name the failing
        row; ids that numpy does not hold as integers, or coefficients it
        does not hold as numbers, are left to the row checks."""
        rhs = _finite_floats(rhs)
        try:
            if rhs is None or not (
                    _names_ok(names, self.row_names, self.objective_name)
                    and _SENSE_SET.issuperset(senses)):
                return None
            ids, coeffs = np.asarray(ids), np.asarray(coeffs)
        except (TypeError, ValueError, OverflowError):
            return None
        if (ids.ndim != 1 or coeffs.ndim != 1
                or ids.size and (ids.dtype.kind not in "iu"
                                 or coeffs.dtype.kind not in "iuf")):
            return None
        coeffs = coeffs.astype(np.float64, copy=False)
        if (ids.size and not (0 <= ids.min()
                              and ids.max() < len(self.var_names))
                or not np.isfinite(coeffs).all()):
            return None
        # each id must exceed the one before it in its row, the pairs that
        # straddle two rows let by; a row that does not (out of order, or
        # a repeated variable) is left to the row checks
        starts = np.array(starts, dtype=np.int64)
        rising = ids[1:] > ids[:-1]
        inner = starts[1:-1]
        rising[inner[(inner > 0) & (inner < ids.size)] - 1] = True
        if not rising.all():
            return None
        keep = coeffs != 0.0
        if not keep.all():
            starts = np.concatenate(([0], np.cumsum(keep)))[starts]
            ids, coeffs = ids[keep], coeffs[keep]
        return rhs, starts, ids, coeffs

    def _append_rows(self, names, senses, rhs, starts, ids, coeffs) -> range:
        """Append rows that passed their checks, in canonical form."""
        first, offset = len(self.row_names), len(self.ids)
        self.ids.frombytes(_raw(ids, np.int64))
        self.coeffs.frombytes(_raw(coeffs, np.float64))
        self.starts.frombytes(
            _raw(np.asarray(starts[1:], dtype=np.int64) + offset, np.int64))
        self.rhs.extend(rhs)
        self.row_names.extend(names)
        self.senses.extend(senses)
        if self._con_names is not None:
            self._con_names.update(names)
        return range(first, first + len(names))

    def freeze(self) -> "Model":
        self.frozen = True
        return self

    def rebound(self, lb, ub, rhs=None) -> "Model":
        """A copy of the model in which variable ``j`` has bounds
        ``lb[j]``, ``ub[j]`` and, unless ``rhs`` is None, row ``r`` has
        right-hand side ``rhs[r]``. Names, kinds, costs, terms and senses
        are copied as they are, since they passed their checks when they
        entered this model. The new bounds take :meth:`add_variable`'s
        bound checks, then the new right-hand sides
        :meth:`add_constraint`'s; the first that fails raises that
        check's :class:`ModelError`, with its index as ``column`` or
        ``row``. The copy is not frozen and shares no container with this
        model, frozen or not."""
        n, m = len(self.var_names), len(self.row_names)
        if len(lb) != n or len(ub) != n or rhs is not None and len(rhs) != m:
            raise ModelError(f"rebound: {n} variables need {n} lower and "
                             f"{n} upper bounds, and {m} rows {m} "
                             "right-hand sides")
        lb, ub = self._new_bounds(lb, ub)
        rhs = self.rhs[:] if rhs is None else self._new_rhs(rhs)
        # __init__ would check the name again and make containers that are
        # replaced at once; a dispatch model is copied thousands of times
        out = Model.__new__(Model)
        out.name, out.objective_name = self.name, self.objective_name
        out.var_names, out.lb, out.ub = self.var_names[:], lb, ub
        out.kinds, out.objective = self.kinds[:], self.objective[:]
        out.row_names, out.senses, out.rhs = (self.row_names[:],
                                              self.senses[:], rhs)
        out.starts, out.ids, out.coeffs = (self.starts[:], self.ids[:],
                                           self.coeffs[:])
        out.frozen = False
        out._var_ids = out._con_names = None
        return out

    def _new_bounds(self, lb, ub) -> tuple[array, array]:
        """``lb`` and ``ub`` as typed arrays, if every column's pair passes
        :meth:`add_variable`'s bound checks; else the first failing pair
        raises, with its index as ``column``."""
        try:  # converts as float does, but a numeric string fails here
            lbs, ubs = array("d", lb), array("d", ub)
        except (TypeError, ValueError, OverflowError):
            pass  # the checks below convert it, or name the column
        else:  # a NaN fails le; a binary's kind byte is 1
            if (all(map(le, lbs, ubs)) and INF not in lbs
                    and -INF not in ubs
                    and (_BINARY not in self.kinds
                         or all((lbs[j], ubs[j]) in _BINARY_BOUNDS for j in
                                compress(range(len(lbs)), self.kinds)))):
                return lbs, ubs
        bounds = _each(_check_bounds, "column", self.var_names, lb, ub,
                       map(KINDS.__getitem__, self.kinds))
        return (array("d", [lo for lo, _ in bounds]),
                array("d", [hi for _, hi in bounds]))

    def _new_rhs(self, rhs) -> list[float]:
        """``rhs`` as a list of floats, if every row's right-hand side
        passes :meth:`add_constraint`'s checks; else the first failing one
        raises, with its index as ``row``."""
        out = _finite_floats(rhs)
        return (_each(_check_rhs, "row", self.row_names, rhs) if out is None
                else out)

    # -- queries --------------------------------------------------------

    def var_id(self, name: str) -> int:
        try:
            return self._name_index()[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def variable(self, j: int) -> Variable:
        """Variable ``j``'s name, bounds and kind; ``j`` must be the id of
        a declared variable."""
        if not 0 <= j < len(self.var_names):
            raise ModelError(f"unknown variable id {j!r}")
        return Variable(self.var_names[j], self.lb[j], self.ub[j],
                        KINDS[self.kinds[j]])

    @property
    def n_variables(self) -> int:
        return len(self.var_names)

    @property
    def n_constraints(self) -> int:
        return len(self.row_names)

    def __eq__(self, other):
        return (isinstance(other, Model)
                and self.name == other.name
                and self.objective_name == other.objective_name
                and self.var_names == other.var_names
                and self.lb == other.lb
                and self.ub == other.ub
                and self.kinds == other.kinds
                and self.row_names == other.row_names
                and self.senses == other.senses
                and self.rhs == other.rhs
                and self.starts == other.starts
                and self.ids == other.ids
                and self.coeffs == other.coeffs
                and self.objective == other.objective)

    def __repr__(self):
        return (f"Model({self.name!r}, {self.n_variables} vars, "
                f"{self.n_constraints} rows)")


def fix_variables(model: Model, assignments: dict) -> Model:
    """Copy ``model`` with both bounds of each assigned variable set to its
    value. Keys may be variable names or ids, and two keys of one variable
    must give it one value, a number other than NaN; binaries only accept
    0/1, and any value must lie inside the variable's current bounds. The
    tests use it to price fixed schedules as a reference for the
    formulations' start-up costs."""
    lb, ub = array("d", model.lb), array("d", model.ub)
    resolved: dict[int, float] = {}
    for key, val in assignments.items():
        if isinstance(key, str):
            vid = model.var_id(key)
        else:
            try:
                vid = index(key)
            except TypeError:
                raise ModelError(f"variable key {key!r} is neither a name "
                                 "nor an integer id") from None
        if not (0 <= vid < model.n_variables):
            raise ModelError(f"unknown variable id {vid}")
        name = model.var_names[vid]
        try:
            val = float(val)
        except (TypeError, ValueError, OverflowError):
            raise ModelError(f"cannot fix {name!r} to {val!r}, which is not "
                             "a number") from None
        if val != val:
            raise ModelError(f"cannot fix {name!r} to NaN")
        if model.kinds[vid] == _BINARY and val not in (0.0, 1.0):
            raise ModelError(
                f"cannot fix binary {name!r} to non-0/1 value {val}")
        if val < model.lb[vid] or val > model.ub[vid]:
            raise ModelError(
                f"value {val} for {name!r} outside bounds "
                f"[{model.lb[vid]}, {model.ub[vid]}]")
        if vid in resolved and resolved[vid] != val:
            raise ModelError(f"conflicting values for {name!r}: "
                             f"{resolved[vid]} and {val}")
        resolved[vid] = lb[vid] = ub[vid] = val
    return model.rebound(lb, ub)


def model_stats(model: Model) -> ModelStats:
    """Exact size counts; nonzeros cover the constraint matrix only."""
    return ModelStats(
        n_variables=model.n_variables,
        n_constraints=model.n_constraints,
        n_binary=model.kinds.count(_BINARY),
        n_nonzeros=len(model.ids),
    )


# ---------------------------------------------------------------------------
# number formatting
# ---------------------------------------------------------------------------
# All numbers are emitted with 17 significant digits, enough for exact
# float round-trips.

def _fmt(x: float) -> str:
    return format(x, ".17g")


# ---------------------------------------------------------------------------
# MPS writer
# ---------------------------------------------------------------------------

_SLICE = 1 << 13  # lines formatted and joined at a time
_ROW_TYPES = {sense: f" {row} " for sense, row in _SENSE_TO_ROW.items()}
_MARKERS = ("    MARKER 'MARKER' 'INTORG'", "    MARKER 'MARKER' 'INTEND'")
# INF's bit pattern: a line with no value ends at its name (no written
# value, a coefficient, cost, right-hand side or FX, LO or UP bound, is INF)
_NO_VALUE = int(np.float64(INF).view(np.int64))


def write_mps(model: Model) -> str:
    """Emit the model as free-format MPS text (byte-deterministic).

    Sections: NAME, ROWS (single N row first), COLUMNS (column-major, one
    row/value pair per line, binary runs bracketed by INTORG/INTEND
    markers), RHS (nonzero or -0 only), BOUNDS (canonical minimal set;
    BV for [0,1] binaries), ENDATA. A variable that appears in no row
    and has no objective coefficient is kept alive by an explicit zero
    objective entry (the parser drops zero coefficients, so round trips
    are exact).

    Every ROWS, COLUMNS, RHS and BOUNDS line is made by :func:`_lines`
    from three pieces it shares with other lines, one string per slice of
    ``_SLICE`` lines, and the text is joined once from those strings (the
    module docstring gives the memory this takes).
    """
    model.freeze()
    rows = np.arange(model.n_constraints)
    rhs = np.array(model.rhs, dtype=np.float64)
    nonzero = np.flatnonzero((rhs != 0.0) | np.signbit(rhs))  # -0 too
    return "".join((
        f"NAME {model.name}\nROWS\n N {model.objective_name}\n",
        *_lines(list(map(_ROW_TYPES.__getitem__, model.senses)),
                model.row_names, rows, rows, np.full(len(rows), INF)),
        "COLUMNS\n",
        *_columns(model),
        "RHS\n",
        *_lines(["    RHS "], model.row_names, np.zeros_like(nonzero),
                nonzero, rhs[nonzero]),
        "BOUNDS\n",
        *_bounds(model),
        "ENDATA\n"))


def _lines(heads, names, head_ids, name_ids, values, key=None) -> list[str]:
    """Line ``i`` is ``heads[head_ids[i]]``, ``names[name_ids[i]]`` and
    the text of ``values[i]``: ``" <%.17g>\n"``, or ``"\n"`` for INF.
    The lines come in the stable order of ``key`` (if given), as one
    joined string per slice of ``_SLICE`` lines; a line never becomes a
    string of its own. Values are told apart by their bit pattern, so
    that 0.0 and -0.0 keep their own texts; each is formatted once."""
    if key is not None:
        # sorted before the slices: the callers keep none of these arrays,
        # so on CPython 3.11+ (which hands a call's arguments over) each
        # unsorted one is freed as it is replaced
        order = np.argsort(key, kind="stable")
        del key
        head_ids = head_ids[order]
        name_ids = name_ids[order]
        values = values[order]
        del order
    text = {_NO_VALUE: "\n"}
    out = []
    for first in range(0, len(values), _SLICE):
        at = slice(first, first + _SLICE)
        # each line's value as an index into the slice's distinct values
        bits, inverse = np.unique(values[at].view(np.int64),
                                  return_inverse=True)
        for b, v in zip(bits.tolist(), bits.view(np.float64).tolist()):
            if b not in text:
                text[b] = f" {_fmt(v)}\n"
        ends = list(map(text.__getitem__, bits.tolist()))
        parts = [None] * (3 * len(inverse))
        parts[0::3] = map(heads.__getitem__, head_ids[at].tolist())
        parts[1::3] = map(names.__getitem__, name_ids[at].tolist())
        parts[2::3] = map(ends.__getitem__, inverse.tolist())
        out.append("".join(parts))
    return out


def _columns(model: Model) -> list[str]:
    """The COLUMNS lines. Column ``j`` has keys ``3j``, ``3j + 1`` and
    ``3j + 2``: first its marker, if a run of one kind starts there
    (INTORG before a binary run, INTEND after it, with key ``3n`` after
    the last column), then its objective entry, if it has one (a column
    with no entries gets one of 0, to keep it alive), then its entries in
    row order (the block is row-major, and the order is stable)."""
    n, m = model.n_variables, model.n_constraints
    ids = np.asarray(model.ids)
    objective = np.asarray(model.objective)
    costed = np.flatnonzero((objective != 0.0)
                            | (np.bincount(ids, minlength=n) == 0))
    switches = np.flatnonzero(np.diff(np.asarray(model.kinds), prepend=0,
                                      append=0))
    k = len(switches)
    return _lines(
        [f"    {name} " for name in model.var_names] + [*_MARKERS],
        model.row_names + [model.objective_name, ""],
        np.concatenate((n + np.arange(k) % 2, costed, ids)),
        np.concatenate((np.full(k, m + 1), np.full(len(costed), m),
                        np.repeat(np.arange(m), np.diff(model.starts)))),
        np.concatenate((np.full(k, INF), objective[costed],
                        np.asarray(model.coeffs))),
        key=np.concatenate((3 * switches, 3 * costed + 1, 3 * ids + 2)))


def _bounds(model: Model) -> list[str]:
    """The BOUNDS lines of every variable, in variable order: BV for a
    [0, 1] binary, FX for a fixed variable (both bounds with one sign
    bit), FR for a free one, else MI or LO for a lower bound other than
    +0.0 and UP for a finite upper bound. So a bound of -0.0 is written
    ``-0`` and reads back with its sign. Variable ``j``'s UP line has key
    ``2j + 1``, its other line ``2j``."""
    lb, ub = np.asarray(model.lb), np.asarray(model.ub)
    negative = np.signbit(lb)  # -0.0 too, which only LO or FX keeps
    bv = ((np.asarray(model.kinds) == _BINARY) & (lb == 0.0) & ~negative
          & (ub == 1.0))
    fx = ~bv & (lb == ub) & (negative == np.signbit(ub))
    ranged = ~bv & ~fx
    fr = ranged & (lb == -INF) & (ub == INF)
    mi = ranged & ~fr & (lb == -INF)
    lo = ranged & (lb != -INF) & ((lb != 0.0) | negative)
    up = ranged & ~fr & (ub != INF)
    none = np.full(len(lb), INF)
    kinds = (("BV", bv, none), ("FX", fx, lb), ("FR", fr, none),
             ("MI", mi, none), ("LO", lo, lb), ("UP", up, ub))
    cols = [np.flatnonzero(mask) for _, mask, _ in kinds]
    values = np.concatenate([v[c] for c, (_, _, v) in zip(cols, kinds)])
    head_ids = np.repeat(np.arange(len(kinds)), list(map(len, cols)))
    cols = np.concatenate(cols)
    return _lines([f" {kind} BND " for kind, _, _ in kinds],
                  model.var_names, head_ids, cols, values,
                  key=2 * cols + (head_ids == len(kinds) - 1))


# ---------------------------------------------------------------------------
# MPS parser
# ---------------------------------------------------------------------------

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA",
             "RANGES", "OBJSENSE", "SOS"}
_BOUND_BITS = {"LO": 1, "UP": 2, "FX": 4, "MI": 8, "PL": 16, "FR": 32,
               "BV": 64}  # one bit per bound type a column may set once
_CHUNK = 1 << 18  # characters of text split into lines at a time
# distinct number tokens read_mps remembers; a model has few (the
# paper-size models have under 1,000), and the bound caps the memory
_MEMO_SIZE = 1 << 16


def _numbered_lines(text: str):
    """(1-based number, line) for each line of ``text``, split as
    ``str.splitlines`` splits it, about 256K characters at a time: one
    list of every line would hold the whole text again as line objects."""
    def chunks():
        pos, end_of_text = 0, len(text)
        while pos < end_of_text:
            end = text.find("\n", pos + _CHUNK)
            end = end_of_text if end < 0 else end + 1
            yield text[pos:end].splitlines()
            pos = end
    return enumerate(chain.from_iterable(chunks()), 1)


def read_mps(text: str) -> Model:
    """Parse free-format MPS text produced by :func:`write_mps` (and the
    common subset of foreign files). Unsupported features — RANGES, SOS,
    general (non-binary) integers, multiple objective rows — raise
    :class:`MpsParseError` with the offending line number.

    Two loops read the lines, each up to the header line that ends its
    section: one for COLUMNS, and one for every other section, which
    takes each line through its section's checks. COLUMNS's common line,
    an entry of the previous entry's column in a constraint row whose
    value is a finite token seen before, is stored without the checks
    that every other COLUMNS line takes. The loops collect the columns,
    their bounds in typed arrays, their objective entries, and each
    constraint entry as its row index and value under the current
    column's id; the columns then enter the model as one block, with
    their costs, through :meth:`Model.add_variables`, and the entries as
    one block through :meth:`Model.add_rows`."""
    model_name, name_line = "model", 0
    objective_name, objective_line = None, 0
    # constraint rows in ROWS order; row_index maps a constraint row's
    # name to its index and the objective row's name to -1
    row_index: dict[str, int] = {}
    row_names: list[str] = []
    row_senses: list[str] = []
    row_lines: list[int] = []
    rhs: dict[int, float] = {}
    # columns in first-appearance order, with each one's first COLUMNS line
    col_index: dict[str, int] = {}
    col_lines: list[int] = []
    col_kinds: list[str] = []
    # each column's bounds, [0, inf) unless a BOUNDS line sets them, and
    # the bit of each bound type set for it so far (a BOUNDS line first
    # pads the three to the columns declared so far)
    lbs, ubs, bounds_seen = array("d"), array("d"), bytearray()
    objective: dict[int, float] = {}
    # the constraint entries' rows and values, in file order; their
    # columns come in runs, the run starting at entry run_starts[k] being
    # column run_cols[k]
    ent_rows, ent_vals = array("q"), array("d")
    add_row, add_val = ent_rows.append, ent_vals.append
    run_cols, run_starts = array("q"), array("q")
    # the value of each finite number token seen, so that COLUMNS's
    # common line need not parse its value
    numbers: dict[str, float] = {}
    col = cid = None  # the column of the previous entry
    integer_mode = False
    section, lineno = None, 0

    def err(lineno: int, msg: str):
        raise MpsParseError(f"line {lineno}: {msg}")

    def pad_bounds():
        k = len(col_lines) - len(lbs)
        lbs.frombytes(bytes(8 * k))  # k zeros
        ubs.extend(array("d", [INF]) * k)
        bounds_seen.extend(bytes(k))

    def value_of(tok: str, lineno: int) -> float:
        value = numbers.get(tok)
        if value is None:
            try:
                value = float(tok)
            except ValueError:
                err(lineno, f"not a number: {tok!r}")
            if isfinite(value) and len(numbers) < _MEMO_SIZE:
                numbers[tok] = value
        return value

    lines = _numbered_lines(text)
    while section != "ENDATA":
        # COLUMNS has a loop of its own, whose common line skips the
        # checks that all its other lines take; one loop reads the lines
        # of every other section up to the header line that ends it
        head = None
        if section == "COLUMNS":
            for lineno, raw in lines:
                tokens = raw.split()
                if len(tokens) == 3:
                    c, row, tok = tokens
                    # an entry of the previous entry's column in a
                    # constraint row, its value a token seen before
                    if (c == col and raw[0] == " " and row != "'MARKER'"
                            and (r := row_index.get(row, -1)) >= 0
                            and (value := numbers.get(tok)) is not None):
                        if value:
                            add_row(r)
                            add_val(value)
                        continue
                if not tokens or tokens[0][0] == "*":
                    continue
                if not raw[0].isspace():
                    head = tokens
                    break
                if objective_name is None:
                    err(lineno, "COLUMNS before an N row was declared")
                n = len(tokens)
                if n >= 2 and tokens[1] == "'MARKER'":
                    if "'INTORG'" in tokens:
                        integer_mode = True
                    elif "'INTEND'" in tokens:
                        integer_mode = False
                    else:
                        err(lineno,
                            f"unrecognized marker line {raw.strip()!r}")
                    continue
                if n != 3 and n != 5:
                    err(lineno, "expected 'column row value' "
                                "(optionally twice per line)")
                if tokens[0] != col:
                    col = tokens[0]
                    cid = col_index.get(col)
                    if cid is None:
                        # a column's kind is set by its first appearance
                        # (BV bounds may still promote it to binary later)
                        cid = col_index[col] = len(col_lines)
                        col_lines.append(lineno)
                        col_kinds.append("binary" if integer_mode
                                         else "continuous")
                    run_cols.append(cid)
                    run_starts.append(len(ent_rows))
                for row, tok in zip(tokens[1::2], tokens[2::2]):
                    value = value_of(tok, lineno)
                    if not isfinite(value):
                        err(lineno, f"coefficient must be finite, got {tok!r}")
                    r = row_index.get(row)
                    if r is None:
                        err(lineno, f"unknown row {row!r}")
                    if r < 0:
                        if cid in objective:
                            err(lineno,
                                "duplicate objective entry for a column")
                        objective[cid] = value
                    elif value:
                        add_row(r)
                        add_val(value)
        else:
            for lineno, raw in lines:
                tokens = raw.split()
                if not tokens or tokens[0][0] == "*":
                    continue
                if not raw[0].isspace():
                    head = tokens
                    break
                if section == "ROWS":
                    if len(tokens) != 2:
                        err(lineno, f"expected 'type name', got "
                                    f"{raw.strip()!r}")
                    rtype, rname = tokens
                    if rtype == "N":
                        if objective_name is not None:
                            err(lineno, "multiple objective (N) rows")
                        objective_name, objective_line = rname, lineno
                        row_index[rname] = -1
                        continue
                    if rtype not in _ROW_TO_SENSE:
                        err(lineno, f"unknown row type {rtype!r}")
                    if rname in row_index:
                        err(lineno, f"duplicate row name {rname!r}")
                    row_index[rname] = len(row_names)
                    row_names.append(rname)
                    row_senses.append(_ROW_TO_SENSE[rtype])
                    row_lines.append(lineno)
                elif section == "RHS":
                    if len(tokens) not in (3, 5):
                        err(lineno, "expected 'setname row value' "
                                    "(optionally twice per line)")
                    for row, tok in zip(tokens[1::2], tokens[2::2]):
                        r = row_index.get(row)
                        if r is None:
                            err(lineno, f"unknown row {row!r}")
                        if r < 0:
                            err(lineno,
                                "objective constants are not supported")
                        if r in rhs:
                            err(lineno,
                                f"duplicate RHS entry for row {row!r}")
                        value = rhs[r] = value_of(tok, lineno)
                        if value != value:
                            err(lineno, f"right-hand side must be a "
                                        f"number, got {tok!r}")
                        if not isfinite(value):
                            err(lineno, f"right-hand side must be "
                                        f"finite, got {tok!r}")
                elif section == "BOUNDS":
                    if len(tokens) < 3:
                        err(lineno,
                            f"malformed bound line {raw.strip()!r}")
                    btype, cname = tokens[0], tokens[2]
                    j = col_index.get(cname)
                    if j is None:
                        err(lineno,
                            f"bound for undeclared column {cname!r}")
                    bit = _BOUND_BITS.get(btype)
                    if bit is None:
                        err(lineno, f"unknown bound type {btype!r}")
                    if j >= len(lbs):
                        pad_bounds()
                    if bounds_seen[j] & bit:
                        err(lineno, f"duplicate {btype} bound for "
                                    f"column {cname!r}")
                    bounds_seen[j] |= bit
                    if btype in ("LO", "UP", "FX"):
                        if len(tokens) != 4:
                            err(lineno, f"{btype} bound requires a value")
                        val = value_of(tokens[3], lineno)
                        if val != val:
                            err(lineno, f"bound must be a number, got "
                                        f"{tokens[3]!r}")
                        if btype == "UP":
                            ubs[j] = val
                        else:
                            lbs[j] = val
                            if btype == "FX":
                                ubs[j] = val
                    elif btype == "MI":
                        lbs[j] = -INF
                    elif btype == "PL":
                        ubs[j] = INF
                    elif btype == "FR":
                        lbs[j], ubs[j] = -INF, INF
                    else:  # BV
                        lbs[j], ubs[j] = 0.0, 1.0
                        col_kinds[j] = "binary"
                else:  # before the first header, or in NAME: no data
                    where = ("data before any section header"
                             if section is None
                             else "unexpected data in NAME section")
                    err(lineno, f"{where}: {raw.strip()!r}")
        if head is None:
            raise MpsParseError(f"line {lineno}: missing ENDATA")
        section = head[0]
        if section not in _SECTIONS:
            err(lineno, f"unknown section {section!r}")
        if section in ("RANGES", "OBJSENSE", "SOS"):
            err(lineno, f"unsupported section: {section}")
        if section == "NAME" and len(head) > 1:
            model_name, name_line = head[1], lineno

    if objective_name is None:
        raise MpsParseError("line 0: no objective (N) row")

    # the model rejects what the grammar cannot (bad names, non-binary
    # integers, repeated entries); blame the line that declared the item
    def build(lineno: int, add, *args):
        try:
            return add(*args)
        except ModelError as e:
            raise MpsParseError(f"line {lineno}: {e}") from e

    model = build(name_line, Model, model_name)
    model.objective_name = build(objective_line, _check_name, objective_name,
                                 "objective")
    pad_bounds()
    costs = np.zeros(len(col_lines))
    costs[list(objective)] = list(objective.values())
    try:
        model.add_variables(list(col_index), lbs, ubs, col_kinds, costs)
    except ModelError as e:
        raise MpsParseError(f"line {col_lines[e.column]}: {e}") from e
    # order the entries by row, and each row's entries by column, so that
    # add_rows finds every row's ids rising unless a column repeats in it
    rows = np.frombuffer(ent_rows, dtype=np.int64)
    cols = np.repeat(np.frombuffer(run_cols, dtype=np.int64),
                     np.diff(np.append(run_starts, len(rows))))
    order = np.lexsort((cols, rows))
    starts = [0] + np.cumsum(
        np.bincount(rows, minlength=len(row_names))).tolist()
    try:
        model.add_rows(row_names, row_senses,
                       [rhs.get(r, 0.0) for r in range(len(row_names))],
                       starts, cols[order],
                       np.frombuffer(ent_vals, dtype=np.float64)[order])
    except ModelError as e:
        raise MpsParseError(f"line {row_lines[e.row]}: {e}") from e
    return model
