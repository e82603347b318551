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
from dataclasses import dataclass
from operator import index, itemgetter

import numpy as np

INF = math.inf

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]{0,254}\Z")

SENSES = ("<=", "=", ">=")
_SENSE_TO_ROW = {"<=": "L", "=": "E", ">=": "G"}
_ROW_TO_SENSE = {v: k for k, v in _SENSE_TO_ROW.items()}


class ModelError(ValueError):
    """Raised for malformed model construction (names, bounds, references)."""


class MpsParseError(ValueError):
    """Raised by :func:`read_mps`; message carries a 1-based line number."""


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ModelError(
            f"invalid {what} name {name!r}: must match "
            "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters")
    return name


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
    :meth:`add_constraint` / :meth:`set_objective`, then freeze (any
    write/solve freezes implicitly) and share freely — frozen models are
    immutable.
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
        if lb > ub:
            raise ModelError(f"variable {name!r}: inverted bounds "
                             f"[{lb}, {ub}]")
        vid = len(self.variables)
        self.variables.append(Variable(name, float(lb), float(ub), kind))
        self._var_ids[name] = vid
        return vid

    def add_constraint(self, name: str, terms, sense: str, rhs: float) -> int:
        """Append a row. ``terms`` is a dict {var id: coeff} or a sequence
        of (var id, coeff) pairs referencing distinct, declared variables.
        Terms are stored sorted by variable id with zero coefficients
        dropped (the canonical order the MPS round trip preserves)."""
        if self.frozen:
            raise ModelError("model is frozen")
        _check_name(name, "constraint")
        if name in self._con_names or name == self.objective_name:
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
                ids.append(i)
                coeffs.append(c)
        rhs = float(rhs)
        # every check has passed: only now does the row enter the block
        self.ids += ids
        self.coeffs += coeffs
        self.starts.append(len(self.ids))
        self.row_names.append(name)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self._con_names.add(name)
        return len(self.row_names) - 1

    def set_objective(self, coeffs) -> None:
        """Replace the (minimization) objective. Zero terms are dropped and
        the mapping is stored in variable-id order."""
        if self.frozen:
            raise ModelError("model is frozen")
        if not isinstance(coeffs, dict):
            coeffs = dict(coeffs)
        for vid in coeffs:
            if not (0 <= vid < len(self.variables)):
                raise ModelError(f"objective references undeclared variable "
                                 f"id {vid}")
        self.objective = {vid: float(c) for vid in sorted(coeffs)
                          if (c := coeffs[vid]) != 0.0}

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
    starts = model.starts
    for r, name in enumerate(model.row_names):
        a, b = starts[r], starts[r + 1]
        out.add_constraint(name, zip(model.ids[a:b], model.coeffs[a:b]),
                           model.senses[r], model.rhs[r])
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
    nvar = model.n_variables
    con_names = model.row_names
    lines: list[str] = [f"NAME {model.name}", "ROWS",
                        f" N {model.objective_name}"]
    for sense, name in zip(model.senses, con_names):
        lines.append(f" {_SENSE_TO_ROW[sense]} {name}")

    # transpose the row block into column-major entry order: the block is
    # row-major, so a stable sort by column keeps each column's rows in
    # model order
    lines.append("COLUMNS")
    cols = np.array(model.ids, dtype=np.int64)
    order = np.argsort(cols, kind="stable")
    rows_sorted = np.repeat(np.arange(len(con_names)),
                            np.diff(model.starts))[order].tolist()
    vals_sorted = np.array(model.coeffs, dtype=np.float64)[order].tolist()
    col_starts = np.searchsorted(cols[order], np.arange(nvar + 1)).tolist()

    obj_name = model.objective_name
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
        vname = var.name
        if obj is not None:
            lines.append(f"    {vname} {obj_name} {_fmt(obj)}")
        elif a == b:
            # empty column: keep the variable alive with a zero entry
            lines.append(f"    {vname} {obj_name} 0")
        for k in range(a, b):
            lines.append(f"    {vname} {con_names[rows_sorted[k]]} "
                         f"{format(vals_sorted[k], '.17g')}")
    if integer_mode:
        lines.append("    MARKER 'MARKER' 'INTEND'")

    lines.append("RHS")
    for name, rhs in zip(con_names, model.rhs):
        if rhs != 0.0:
            lines.append(f"    RHS {name} {_fmt(rhs)}")

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


def read_mps(text: str) -> Model:
    """Parse free-format MPS text produced by :func:`write_mps` (and the
    common subset of foreign files). Unsupported features — RANGES, SOS,
    general (non-binary) integers, multiple objective rows — raise
    :class:`MpsParseError` with the offending line number."""
    section = None
    objective_name: str | None = None
    row_sense: dict[str, str] = {}
    row_line: dict[str, int] = {}  # row name -> line declaring it (ROWS)
    row_terms: dict[str, list[tuple[int, float]]] = {}
    row_rhs: dict[str, float] = {}
    objective: dict[int, float] = {}
    # column state; col_line[cid] is the column's first COLUMNS line
    col_ids: dict[str, int] = {}
    col_line: list[int] = []
    col_kind: dict[int, str] = {}
    col_bounds: dict[int, list[float]] = {}
    bounds_seen: dict[int, set[str]] = {}
    obj_cols_seen: set[int] = set()
    integer_mode = False
    model_name = "model"
    name_line = 0
    objective_line = 0
    saw_endata = False
    lineno = 0

    def err(lineno: int, msg: str):
        raise MpsParseError(f"line {lineno}: {msg}")

    def parse_value(tok: str, lineno: int) -> float:
        try:
            return float(tok)
        except ValueError:
            err(lineno, f"not a number: {tok!r}")

    def get_col(name: str, lineno: int) -> int:
        if name in col_ids:
            return col_ids[name]
        cid = len(col_ids)
        col_ids[name] = cid
        col_line.append(lineno)
        # a column's kind is set by its first appearance (BV bounds may
        # still promote it to binary later)
        col_kind[cid] = "binary" if integer_mode else "continuous"
        return cid

    def add_entry(cid: int, row: str, value: float, lineno: int):
        if row == objective_name:
            if cid in obj_cols_seen:
                err(lineno, f"duplicate objective entry for a column")
            obj_cols_seen.add(cid)
            if value != 0.0:
                objective[cid] = value
            return
        if row not in row_sense:
            err(lineno, f"unknown row {row!r}")
        if value != 0.0:
            row_terms[row].append((cid, value))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tokens = raw.split()
        if not raw[0].isspace() and tokens[0] in _SECTIONS:
            section = tokens[0]
            if section == "RANGES":
                err(lineno, "unsupported section: RANGES")
            if section in ("OBJSENSE", "SOS"):
                err(lineno, f"unsupported section: {section}")
            if section == "NAME":
                if len(tokens) > 1:
                    model_name = tokens[1]
                    name_line = lineno
            if section == "ENDATA":
                saw_endata = True
                break
            continue
        if not raw[0].isspace() and tokens[0] not in _SECTIONS:
            err(lineno, f"unknown section {tokens[0]!r}")
        if section == "ROWS":
            if len(tokens) != 2:
                err(lineno, f"expected 'type name', got {raw.strip()!r}")
            rtype, rname = tokens
            if rtype == "N":
                if objective_name is not None:
                    err(lineno, "multiple objective (N) rows")
                objective_name = rname
                objective_line = lineno
            elif rtype in _ROW_TO_SENSE:
                if rname in row_sense or rname == objective_name:
                    err(lineno, f"duplicate row name {rname!r}")
                row_sense[rname] = _ROW_TO_SENSE[rtype]
                row_line[rname] = lineno
                row_terms[rname] = []
            else:
                err(lineno, f"unknown row type {rtype!r}")
        elif section == "COLUMNS":
            if objective_name is None:
                err(lineno, "COLUMNS before an N row was declared")
            if len(tokens) >= 2 and tokens[1] == "'MARKER'":
                if "'INTORG'" in tokens:
                    integer_mode = True
                elif "'INTEND'" in tokens:
                    integer_mode = False
                else:
                    err(lineno, f"unrecognized marker line {raw.strip()!r}")
                continue
            if len(tokens) not in (3, 5):
                err(lineno, "expected 'column row value' "
                            "(optionally twice per line)")
            cid = get_col(tokens[0], lineno)
            add_entry(cid, tokens[1], parse_value(tokens[2], lineno), lineno)
            if len(tokens) == 5:
                add_entry(cid, tokens[3], parse_value(tokens[4], lineno), lineno)
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                err(lineno, "expected 'setname row value' "
                            "(optionally twice per line)")
            for row, val in zip(tokens[1::2], tokens[2::2]):
                if row == objective_name:
                    err(lineno, "objective constants are not supported")
                if row not in row_sense:
                    err(lineno, f"unknown row {row!r}")
                if row in row_rhs:
                    err(lineno, f"duplicate RHS entry for row {row!r}")
                row_rhs[row] = parse_value(val, lineno)
        elif section == "BOUNDS":
            if len(tokens) < 3:
                err(lineno, f"malformed bound line {raw.strip()!r}")
            btype, _, cname = tokens[0], tokens[1], tokens[2]
            if cname not in col_ids:
                err(lineno, f"bound for undeclared column {cname!r}")
            cid = col_ids[cname]
            if cid not in col_bounds:
                col_bounds[cid] = [0.0, INF]
            seen = bounds_seen.setdefault(cid, set())
            if btype in seen:
                err(lineno, f"duplicate {btype} bound for column {cname!r}")
            seen.add(btype)
            b = col_bounds[cid]
            if btype in ("LO", "UP", "FX"):
                if len(tokens) != 4:
                    err(lineno, f"{btype} bound requires a value")
                val = parse_value(tokens[3], lineno)
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
                col_kind[cid] = "binary"
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
    for cname, cid in col_ids.items():
        lb, ub = col_bounds.get(cid, (0.0, INF))
        build(col_line[cid], model.add_variable, cname, lb, ub, col_kind[cid])
    for rname, terms in row_terms.items():
        build(row_line[rname], model.add_constraint, rname, terms,
              row_sense[rname], row_rhs.get(rname, 0.0))
    model.set_objective(objective)
    return model

