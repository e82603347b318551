"""Solver-agnostic linear model container and exchange-format I/O.

A :class:`Model` is an ordered collection of bounded variables, linear
constraints held as one compressed-sparse-row block, and a minimization
objective. It knows nothing about unit commitment; the formulation
builders produce models, the bundled solver and the MPS writer consume
them.

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
from itertools import chain
from math import isfinite
from operator import add, index, itemgetter

import numpy as np

INF = math.inf

_NAME = r"[A-Za-z][A-Za-z0-9_]{0,254}"
_NAME_RE = re.compile(_NAME + r"\Z")
_NAMES_RE = re.compile(rf"(?:{_NAME}\n)*{_NAME}")  # names joined by "\n"

SENSES = ("<=", "=", ">=")
_SENSE_TO_ROW = {"<=": "L", "=": "E", ">=": "G"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


class ModelError(ValueError):
    """Raised for malformed model construction (names, bounds, references).
    :meth:`Model.add_rows` sets ``row`` to the failing row's index in its
    block."""

    row: int | None = None


class MpsParseError(ValueError):
    """Raised by :func:`read_mps`; message carries a 1-based line number."""


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ModelError(
            f"invalid {what} name {name!r}: must match "
            "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters")
    return name


def _names_ok(names, taken: set, objective_name: str) -> bool:
    """Whether ``names`` are valid, distinct, and name neither the
    objective nor a row in ``taken``."""
    try:
        joined = "\n".join(names)
    except TypeError:  # a name that is not a string
        return False
    unique = set(names)
    return (joined.count("\n") == len(names) - 1
            and _NAMES_RE.fullmatch(joined) is not None
            and len(unique) == len(names) and objective_name not in unique
            and taken.isdisjoint(unique))


def _first_row(mask: np.ndarray, rows: np.ndarray, n: int) -> int:
    """``rows`` at the first true entry of ``mask``, or ``n`` if none."""
    hits = np.flatnonzero(mask)
    return int(rows[hits[0]]) if hits.size else n


@dataclass
class Variable:
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
    :meth:`add_constraint` (or a block of rows at once with
    :meth:`add_rows`) / :meth:`set_objective`, then freeze (any
    write/solve freezes implicitly) and share freely — frozen models are
    immutable. Coefficients must be finite; bounds and right-hand sides
    may be infinite but not NaN.
    """

    def __init__(self, name: str = "model"):
        self.name = _check_name(name, "model")
        self.objective_name = "COST"
        self.variables: list[Variable] = []
        self.objective: dict[int, float] = {}
        # The rows, as one compressed-sparse-row block: row r is named
        # row_names[r] and holds the terms ids[k], coeffs[k] for k in
        # range(starts[r], starts[r + 1]), sorted by variable id.
        self.row_names: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.starts: list[int] = [0]
        self.ids: list[int] = []
        self.coeffs: list[float] = []
        self.frozen = False
        self._var_ids: dict[str, int] = {}
        self._con_names: set[str] = set()

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float,
                     kind: str = "continuous") -> int:
        if self.frozen:
            raise ModelError("model is frozen")
        _check_name(name, "variable")
        if name in self._var_ids:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in ("continuous", "binary"):
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == "binary" and (lb, ub) not in ((0, 1), (0, 0), (1, 1)):
            raise ModelError(
                f"binary variable {name!r} must have bounds [0, 1] or be "
                f"fixed at 0 or 1, got [{lb}, {ub}]")
        if lb != lb or ub != ub:
            raise ModelError(f"variable {name!r}: bound is NaN, got "
                             f"[{lb}, {ub}]")
        if lb > ub:
            raise ModelError(f"variable {name!r}: inverted bounds "
                             f"[{lb}, {ub}]")
        vid = len(self.variables)
        self.variables.append(Variable(name, float(lb), float(ub), kind))
        self._var_ids[name] = vid
        return vid

    def add_constraint(self, name: str, terms, sense: str, rhs: float) -> int:
        """Append a row. ``terms`` is a dict {var id: coeff} or a sequence
        of (var id, coeff) pairs referencing distinct, declared variables,
        with finite coefficients; ``rhs`` may be infinite but not NaN.
        Terms are stored sorted by variable id with zero coefficients
        dropped (the canonical order the MPS round trip preserves)."""
        if self.frozen:
            raise ModelError("model is frozen")
        ids, coeffs, rhs = self._check_row(name, terms, sense, rhs)
        # every check has passed: only now does the row enter the block
        self.ids += ids
        self.coeffs += coeffs
        self.starts.append(len(self.ids))
        self.row_names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self._con_names.add(name)
        return len(self.row_names) - 1

    def _check_row(self, name, terms, sense, rhs, taken=frozenset()):
        """Run every check of one row, in :meth:`add_constraint`'s order,
        and return its canonical (ids, coeffs, rhs); ``taken`` holds the
        names of rows that precede it but are not yet in the model."""
        _check_name(name, "constraint")
        if (name in self._con_names or name == self.objective_name
                or name in taken):
            raise ModelError(f"duplicate constraint name {name!r}")
        if sense not in SENSES:
            raise ModelError(f"unknown sense {sense!r}; expected one of {SENSES}")
        items = []
        for i, c in (terms.items() if isinstance(terms, dict) else terms):
            try:
                items.append((index(i), c))
            except TypeError:
                raise ModelError(f"constraint {name!r}: variable id {i!r} "
                                 "is not an integer") from None
        items.sort(key=itemgetter(0))
        if items:
            if items[0][0] < 0 or items[-1][0] >= len(self.variables):
                raise ModelError(
                    f"constraint {name!r} references an undeclared variable")
            for (a, _), (b, _) in zip(items, items[1:]):
                if a == b:
                    raise ModelError(
                        f"constraint {name!r} repeats a variable; combine "
                        "coefficients before adding")
        ids, coeffs = [], []
        for i, c in items:
            c = float(c)
            if c != 0.0:
                if not isfinite(c):
                    raise ModelError(f"constraint {name!r}: coefficient of "
                                     f"variable id {i} must be finite, got {c}")
                ids.append(i)
                coeffs.append(c)
        rhs = float(rhs)
        if rhs != rhs:
            raise ModelError(f"constraint {name!r}: right-hand side is NaN")
        return ids, coeffs, rhs

    def add_rows(self, names, senses, rhs, starts, ids, coeffs) -> range:
        """Append a block of rows given in compressed-sparse-row form.

        Row ``r`` is named ``names[r]``, has sense ``senses[r]`` and
        right-hand side ``rhs[r]``, and holds the terms ``ids[k]``,
        ``coeffs[k]`` for ``k`` in ``range(starts[r], starts[r + 1])``, in
        any order; ``starts[0]`` is 0. All six are sequences (lists or
        numpy arrays). Each row passes every check of
        :meth:`add_constraint` and is stored the same way, but the checks
        run on the whole block at once. If a row fails, the first failing
        row in row order raises the :class:`ModelError` that
        :meth:`add_constraint` would raise for it, with the row's index in
        the block as ``row``, and the model is left unchanged. Returns the
        new rows' indices."""
        if self.frozen:
            raise ModelError("model is frozen")
        n, nvar = len(names), len(self.variables)
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.diff(starts)
        if (len(senses) != n or len(rhs) != n or starts.shape != (n + 1,)
                or starts[0] != 0 or starts[-1] != len(ids)
                or len(coeffs) != len(ids) or (lengths < 0).any()):
            raise ModelError(
                f"add_rows: {n} names need {n} senses, {n} right-hand sides "
                "and n + 1 non-decreasing starts from 0 to the number of "
                "terms, with one coefficient per id")
        try:
            id_arr = np.asarray(ids)
            c_arr = np.asarray(coeffs, dtype=np.float64)
            rhs_arr = np.asarray(rhs, dtype=np.float64)
            numeric = id_arr.ndim == 1 and id_arr.dtype.kind in "biu"
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not numeric:
            # an id that is not an integer, or a value numpy cannot convert:
            # the row checks raise at the first failing row; if none fails,
            # convert as add_constraint does
            self._check_rows(names, senses, rhs, starts, ids, coeffs, 0)
            id_arr = np.fromiter(map(index, ids), np.int64, len(ids))
            c_arr = np.fromiter(map(float, coeffs), np.float64, len(ids))
            rhs_arr = np.fromiter(map(float, rhs), np.float64, n)
        id_arr = id_arr.astype(np.int64, copy=False)
        row_of = np.repeat(np.arange(n), lengths)
        # the key orders the terms by row, then by id; an id out of range
        # is clipped, which keeps the keys of different rows apart, so
        # equal neighbours are a repeated variable (or a row that fails
        # its range check anyway)
        key = row_of * (nvar + 1) + (np.clip(id_arr, -1, nvar - 1) + 1)
        order = None
        if (np.diff(key) <= 0).any():
            order = np.argsort(key, kind="stable")
            key = key[order]
        # the first row each check fails, or 0 when some name fails (the
        # row checks then look for it from the start); sorting by key
        # keeps the rows in order, so row_of gives each sorted term's row
        bad = min(n if _names_ok(names, self._con_names, self.objective_name)
                  else 0,
                  next((r for r, s in enumerate(senses) if s not in SENSES), n),
                  _first_row((id_arr < 0) | (id_arr >= nvar)
                             | ~np.isfinite(c_arr), row_of, n),
                  _first_row(np.diff(key) == 0, row_of[1:], n),
                  _first_row(np.isnan(rhs_arr), np.arange(n), n))
        if bad < n:
            self._check_rows(names, senses, rhs, starts, ids, coeffs, bad)
            raise AssertionError("add_rows: a block check failed that no "
                                 "row check fails")
        if order is not None:
            id_arr, c_arr = id_arr[order], c_arr[order]
        keep = c_arr != 0.0
        if not keep.all():
            id_arr, c_arr = id_arr[keep], c_arr[keep]
            lengths = np.bincount(row_of[keep], minlength=n)
        first = len(self.row_names)
        self.starts += (len(self.ids) + np.cumsum(lengths)).tolist()
        # one int object per variable, not per term, as rows built one by
        # one share their callers' ids
        self.ids += np.arange(nvar, dtype=object)[id_arr].tolist()
        self.coeffs += c_arr.tolist()
        self.row_names += names
        self.senses += senses
        self.rhs += rhs_arr.tolist()
        self._con_names.update(names)
        return range(first, first + n)

    def _check_rows(self, names, senses, rhs, starts, ids, coeffs, first):
        """Check the block's rows from ``first`` on one by one, as
        add_constraint would after adding the rows before; the first
        failing row raises, with its index as ``row``."""
        taken = set(names[:first])
        for r in range(first, len(names)):
            a, b = starts[r], starts[r + 1]
            try:
                self._check_row(names[r], zip(ids[a:b], coeffs[a:b]),
                                senses[r], rhs[r], taken)
            except ModelError as e:
                e.row = r
                raise
            taken.add(names[r])

    def set_objective(self, coeffs) -> None:
        """Replace the (minimization) objective. Zero terms are dropped and
        the mapping is stored in variable-id order; a coefficient must be
        finite."""
        if self.frozen:
            raise ModelError("model is frozen")
        if not isinstance(coeffs, dict):
            coeffs = dict(coeffs)
        for vid in coeffs:
            if not (0 <= vid < len(self.variables)):
                raise ModelError(f"objective references undeclared variable "
                                 f"id {vid}")
        objective = {vid: float(c) for vid in sorted(coeffs)
                     if (c := coeffs[vid]) != 0.0}
        for vid, c in objective.items():
            if not isfinite(c):
                raise ModelError(f"objective coefficient of variable id "
                                 f"{vid} must be finite, got {c}")
        self.objective = objective

    def freeze(self) -> "Model":
        self.frozen = True
        return self

    # -- queries --------------------------------------------------------

    def var_id(self, name: str) -> int:
        try:
            return self._var_ids[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.row_names)

    def objective_value(self, values: dict[str, float]) -> float:
        """Evaluate the objective on a {variable name: value} mapping."""
        return sum(c * values.get(self.variables[vid].name, 0.0)
                   for vid, c in self.objective.items())

    def __eq__(self, other):
        return (isinstance(other, Model)
                and self.name == other.name
                and self.objective_name == other.objective_name
                and self.variables == other.variables
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
    value. Keys may be variable names or ids; binaries only accept 0/1,
    and any value must lie inside the variable's current bounds. The
    tests use it to price fixed schedules as a reference for the
    formulations' start-up costs."""
    resolved: dict[int, float] = {}
    for key, val in assignments.items():
        vid = model.var_id(key) if isinstance(key, str) else int(key)
        if not (0 <= vid < model.n_variables):
            raise ModelError(f"unknown variable id {vid}")
        var = model.variables[vid]
        val = float(val)
        if var.kind == "binary" and val not in (0.0, 1.0):
            raise ModelError(
                f"cannot fix binary {var.name!r} to non-0/1 value {val}")
        if val < var.lb or val > var.ub:
            raise ModelError(
                f"value {val} for {var.name!r} outside bounds "
                f"[{var.lb}, {var.ub}]")
        resolved[vid] = val
    out = Model(model.name)
    out.objective_name = model.objective_name
    for vid, var in enumerate(model.variables):
        if vid in resolved:
            lb = ub = resolved[vid]
        else:
            lb, ub = var.lb, var.ub
        out.add_variable(var.name, lb, ub, var.kind)
    out.add_rows(model.row_names, model.senses, model.rhs, model.starts,
                 model.ids, model.coeffs)
    out.set_objective(model.objective)
    return out


def model_stats(model: Model) -> ModelStats:
    """Exact size counts; nonzeros cover the constraint matrix only."""
    return ModelStats(
        n_variables=model.n_variables,
        n_constraints=model.n_constraints,
        n_binary=sum(1 for v in model.variables if v.kind == "binary"),
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

def write_mps(model: Model) -> str:
    """Emit the model as free-format MPS text (byte-deterministic).

    Sections: NAME, ROWS (single N row first), COLUMNS (column-major, one
    row/value pair per line, binary runs bracketed by INTORG/INTEND
    markers), RHS (nonzero only), BOUNDS (canonical minimal set; BV for
    [0,1] binaries), ENDATA. A variable that appears in no row and has no
    objective coefficient is kept alive by an explicit zero objective
    entry (the parser drops zero coefficients, so round trips are exact).
    """
    model.freeze()
    con_names = model.row_names
    obj_name = model.objective_name
    lines: list[str] = [f"NAME {model.name}", "ROWS", f" N {obj_name}"]
    lines += [f" {_SENSE_TO_ROW[sense]} {name}"
              for sense, name in zip(model.senses, con_names)]

    # every entry's line, in column-major order: the block is row-major,
    # so a stable sort by column keeps each column's rows in model order;
    # each column's "    name " prefix, each row's "name " and each
    # distinct coefficient are formatted once
    lines.append("COLUMNS")
    cols = np.array(model.ids, dtype=np.int64)
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    rows = np.repeat(np.arange(len(con_names)), np.diff(model.starts))[order]
    values = np.array(model.coeffs, dtype=np.float64)[order].tolist()
    text = {v: _fmt(v) for v in dict.fromkeys(values)}
    prefixes = [f"    {var.name} " for var in model.variables]
    row_parts = [f"{name} " for name in con_names]
    entries = list(map(add,
                       map(add, map(prefixes.__getitem__, cols.tolist()),
                           map(row_parts.__getitem__, rows.tolist())),
                       map(text.__getitem__, values)))
    col_starts = np.searchsorted(cols, np.arange(len(prefixes) + 1)).tolist()

    integer_mode = False
    for vid, var in enumerate(model.variables):
        is_bin = var.kind == "binary"
        if is_bin and not integer_mode:
            lines.append("    MARKER 'MARKER' 'INTORG'")
            integer_mode = True
        elif not is_bin and integer_mode:
            lines.append("    MARKER 'MARKER' 'INTEND'")
            integer_mode = False
        a, b = col_starts[vid], col_starts[vid + 1]
        obj = model.objective.get(vid)
        if obj is not None:
            lines.append(f"{prefixes[vid]}{obj_name} {_fmt(obj)}")
        elif a == b:
            # empty column: keep the variable alive with a zero entry
            lines.append(f"{prefixes[vid]}{obj_name} 0")
        lines += entries[a:b]
    if integer_mode:
        lines.append("    MARKER 'MARKER' 'INTEND'")

    lines.append("RHS")
    lines += [f"    RHS {name} {_fmt(rhs)}"
              for name, rhs in zip(con_names, model.rhs) if rhs != 0.0]

    lines.append("BOUNDS")
    for var in model.variables:
        lines.extend(_bound_lines(var))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def _bound_lines(var: Variable) -> list[str]:
    lb, ub, name = var.lb, var.ub, var.name
    if var.kind == "binary" and lb == 0.0 and ub == 1.0:
        return [f" BV BND {name}"]
    if lb == ub:
        return [f" FX BND {name} {_fmt(lb)}"]
    out = []
    if lb == -INF and ub == INF:
        return [f" FR BND {name}"]
    if lb == -INF:
        out.append(f" MI BND {name}")
    elif lb != 0.0:
        out.append(f" LO BND {name} {_fmt(lb)}")
    if ub != INF:
        out.append(f" UP BND {name} {_fmt(ub)}")
    return out


# ---------------------------------------------------------------------------
# MPS parser
# ---------------------------------------------------------------------------

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA",
             "RANGES", "OBJSENSE", "SOS"}
_CHUNK = 1 << 18  # characters of text split into lines at a time
# distinct coefficient tokens read_mps remembers; a model has few (the
# paper-size models have under 800), and the bound caps the memory
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

    One pass over the lines collects the columns, and each constraint
    entry as its row index and value under the current column's id; the
    entries then enter the model as one block through
    :meth:`Model.add_rows`."""
    section = None
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
    bounds: dict[int, list[float]] = {}
    bounds_seen: dict[int, set[str]] = {}
    objective: dict[int, float] = {}
    # the constraint entries' rows and values, in file order; their
    # columns come in runs, the run starting at entry run_starts[k] being
    # column run_cols[k]
    ent_rows, ent_vals = array("q"), array("d")
    add_row, add_val = ent_rows.append, ent_vals.append
    run_cols, run_starts = array("q"), array("q")
    coefficients: dict[str, float] = {}  # parsed value of each token seen
    col = cid = None  # the column of the previous entry
    integer_mode = saw_endata = False
    lineno = 0

    def err(lineno: int, msg: str):
        raise MpsParseError(f"line {lineno}: {msg}")

    def parse_value(tok: str, lineno: int, what: str) -> float:
        try:
            value = float(tok)
        except ValueError:
            err(lineno, f"not a number: {tok!r}")
        if value != value:
            err(lineno, f"{what} must be a number, got {tok!r}")
        return value

    for lineno, raw in _numbered_lines(text):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if not raw[0].isspace():
            section = tokens[0]
            if section not in _SECTIONS:
                err(lineno, f"unknown section {section!r}")
            if section in ("RANGES", "OBJSENSE", "SOS"):
                err(lineno, f"unsupported section: {section}")
            if section == "NAME" and len(tokens) > 1:
                model_name, name_line = tokens[1], lineno
            elif section == "ENDATA":
                saw_endata = True
                break
        elif section == "COLUMNS":
            if objective_name is None:
                err(lineno, "COLUMNS before an N row was declared")
            n = len(tokens)
            if n >= 2 and tokens[1] == "'MARKER'":
                if "'INTORG'" in tokens:
                    integer_mode = True
                elif "'INTEND'" in tokens:
                    integer_mode = False
                else:
                    err(lineno, f"unrecognized marker line {raw.strip()!r}")
                continue
            if n != 3 and n != 5:
                err(lineno, "expected 'column row value' "
                            "(optionally twice per line)")
            if tokens[0] != col:
                col = tokens[0]
                cid = col_index.get(col)
                if cid is None:
                    # a column's kind is set by its first appearance (BV
                    # bounds may still promote it to binary later)
                    cid = col_index[col] = len(col_lines)
                    col_lines.append(lineno)
                    col_kinds.append("binary" if integer_mode
                                     else "continuous")
                run_cols.append(cid)
                run_starts.append(len(ent_rows))
            k = 1
            while k < n:  # one or two (row, value) pairs
                row, tok = tokens[k], tokens[k + 1]
                k += 2
                value = coefficients.get(tok)
                if value is None:
                    try:
                        value = float(tok)
                    except ValueError:
                        err(lineno, f"not a number: {tok!r}")
                    if not isfinite(value):
                        err(lineno, f"coefficient must be finite, got {tok!r}")
                    if len(coefficients) < _MEMO_SIZE:
                        coefficients[tok] = value
                r = row_index.get(row)
                if r is None:
                    err(lineno, f"unknown row {row!r}")
                if r < 0:
                    if cid in objective:
                        err(lineno, "duplicate objective entry for a column")
                    objective[cid] = value
                elif value != 0.0:
                    add_row(r)
                    add_val(value)
        elif section == "ROWS":
            if len(tokens) != 2:
                err(lineno, f"expected 'type name', got {raw.strip()!r}")
            rtype, rname = tokens
            if rtype == "N":
                if objective_name is not None:
                    err(lineno, "multiple objective (N) rows")
                objective_name, objective_line = rname, lineno
                row_index[rname] = -1
            elif rtype in _ROW_TO_SENSE:
                if rname in row_index:
                    err(lineno, f"duplicate row name {rname!r}")
                row_index[rname] = len(row_names)
                row_names.append(rname)
                row_senses.append(_ROW_TO_SENSE[rtype])
                row_lines.append(lineno)
            else:
                err(lineno, f"unknown row type {rtype!r}")
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                err(lineno, "expected 'setname row value' "
                            "(optionally twice per line)")
            for row, tok in zip(tokens[1::2], tokens[2::2]):
                r = row_index.get(row)
                if r is None:
                    err(lineno, f"unknown row {row!r}")
                if r < 0:
                    err(lineno, "objective constants are not supported")
                if r in rhs:
                    err(lineno, f"duplicate RHS entry for row {row!r}")
                rhs[r] = parse_value(tok, lineno, "right-hand side")
        elif section == "BOUNDS":
            if len(tokens) < 3:
                err(lineno, f"malformed bound line {raw.strip()!r}")
            btype, _, cname = tokens[0], tokens[1], tokens[2]
            if cname not in col_index:
                err(lineno, f"bound for undeclared column {cname!r}")
            j = col_index[cname]
            b = bounds.setdefault(j, [0.0, INF])
            seen = bounds_seen.setdefault(j, set())
            if btype in seen:
                err(lineno, f"duplicate {btype} bound for column {cname!r}")
            seen.add(btype)
            if btype in ("LO", "UP", "FX"):
                if len(tokens) != 4:
                    err(lineno, f"{btype} bound requires a value")
                val = parse_value(tokens[3], lineno, "bound")
                if btype == "LO":
                    b[0] = val
                elif btype == "UP":
                    b[1] = val
                else:
                    b[0] = b[1] = val
            elif btype == "MI":
                b[0] = -INF
            elif btype == "PL":
                b[1] = INF
            elif btype == "FR":
                b[0], b[1] = -INF, INF
            elif btype == "BV":
                b[0], b[1] = 0.0, 1.0
                col_kinds[j] = "binary"
            else:
                err(lineno, f"unknown bound type {btype!r}")
        elif section is None:
            err(lineno, f"data before any section header: {raw.strip()!r}")
        elif section == "NAME":
            err(lineno, f"unexpected data in NAME section: {raw.strip()!r}")

    if not saw_endata:
        raise MpsParseError(f"line {lineno}: missing ENDATA")
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
    for cname, cid in col_index.items():
        lb, ub = bounds.get(cid, (0.0, INF))
        build(col_lines[cid], model.add_variable, cname, lb, ub, col_kinds[cid])
    # group the entries by row, keeping each row's entries in file order
    rows = np.frombuffer(ent_rows, dtype=np.int64)
    cols = np.repeat(np.frombuffer(run_cols, dtype=np.int64),
                     np.diff(np.append(run_starts, len(rows))))
    order = np.argsort(rows, kind="stable")
    starts = np.zeros(len(row_names) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(row_names)), out=starts[1:])
    try:
        model.add_rows(row_names, row_senses,
                       [rhs.get(r, 0.0) for r in range(len(row_names))],
                       starts, cols[order],
                       np.frombuffer(ent_vals, dtype=np.float64)[order])
    except ModelError as e:
        raise MpsParseError(f"line {row_lines[e.row]}: {e}") from e
    model.set_objective(objective)
    return model
