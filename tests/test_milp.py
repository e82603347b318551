import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucbench import (STARTUPS, FormulationChoice, Model, ModelError,
                     MpsParseError, build_model, fix_variables,
                     generate_instance, model_stats, read_mps, write_mps)

from conftest import rows

INF = float("inf")


def models_equal(a: Model, b: Model) -> bool:
    return (a.name == b.name
            and a.objective_name == b.objective_name
            and a.variables == b.variables
            and a.objective == b.objective
            and rows(a) == rows(b))


def small_model() -> Model:
    m = Model("small")
    v = m.add_variable("v_1_1", 0, 1, "binary")
    p = m.add_variable("p_1_1", 0.0, 500.0)
    f = m.add_variable("f_1", -INF, INF)
    m.add_constraint("lim_hi_1_1", {p: 1.0, v: -500.0}, "<=", 0.0)
    m.add_constraint("demand_1", {p: 1.0}, "=", 130.0)
    m.add_constraint("flow_1", {f: 1.0, p: -0.4}, "=", 0.0)
    m.set_objective({v: 5.0, p: 0.5})
    return m


class TestModelConstruction:
    def test_fresh_ids_in_declaration_order(self):
        m = Model("m")
        assert m.add_variable("v_1_1", 0, 1, "binary") == 0
        assert m.add_variable("p_1_1", 0, 500.0) == 1

    def test_duplicate_variable_name_rejected(self):
        m = Model("m")
        m.add_variable("v_1_1", 0, 1, "binary")
        with pytest.raises(ModelError, match="duplicate"):
            m.add_variable("v_1_1", 0, 1, "binary")

    def test_binary_bounds_must_be_zero_one(self):
        m = Model("m")
        with pytest.raises(ModelError):
            m.add_variable("v", 0, 2, "binary")

    def test_binary_may_be_created_fixed_at_zero_or_one(self):
        m = Model("m")
        off = m.add_variable("off", 0, 0, "binary")
        on = m.add_variable("on", 1, 1, "binary")
        assert [(v.lb, v.ub) for v in m.variables] == [(0.0, 0.0), (1.0, 1.0)]
        assert (off, on) == (0, 1)
        with pytest.raises(ModelError, match="fixed at 0 or 1"):
            m.add_variable("two", 0, 2, "binary")
        assert m.n_variables == 2

    def test_constraint_referencing_undeclared_id_rejected(self):
        m = Model("m")
        m.add_variable("x", 0, 1, "binary")
        with pytest.raises(ModelError, match="undeclared"):
            m.add_constraint("c", {3: 1.0}, "<=", 1.0)

    def test_constraint_repeating_a_variable_rejected(self):
        m = Model("m")
        x = m.add_variable("x", 0, 1, "binary")
        y = m.add_variable("y", 0, 1, "binary")
        with pytest.raises(ModelError, match="repeats a variable"):
            m.add_constraint("c", [(x, 1.0), (y, 2.0), (x, 3.0)], "<=", 1.0)
        assert m.n_constraints == 0
        assert (m.ids, m.coeffs, m.starts) == ([], [], [0])
        assert (m.row_names, m.senses, m.rhs) == ([], [], [])
        # the rejected name is still free
        m.add_constraint("c", {x: 1.0}, "<=", 1.0)
        assert rows(m) == [("c", [x], [1.0], "<=", 1.0)]

    def test_constraint_with_a_non_integer_id_rejected(self):
        m = Model("m")
        x = m.add_variable("x", 0, 1, "binary")
        m.add_variable("y", 0, 1, "binary")
        m.add_constraint("c", {x: 1.0}, "<=", 1.0)
        before = rows(m), list(m.starts)
        with pytest.raises(ModelError, match="0.5 is not an integer"):
            m.add_constraint("d", {0.5: 1.0}, "<=", 1.0)
        assert (rows(m), m.starts) == before

    @pytest.mark.parametrize("terms", [{"a": 1.0}, {0: 1.0, "a": 2.0},
                                       [("a", 1.0), (None, 2.0)]])
    def test_constraint_with_a_non_numeric_id_rejected(self, terms):
        """Ids are checked before they are sorted, so a string id is a
        ModelError rather than a TypeError from comparing it."""
        m = Model("m")
        x = m.add_variable("x", 0, 1, "binary")
        m.add_constraint("c", {x: 1.0}, "<=", 1.0)
        before = rows(m), list(m.starts)
        with pytest.raises(ModelError, match="'a' is not an integer"):
            m.add_constraint("d", terms, "<=", 1)
        assert (rows(m), m.starts) == before
        assert m.n_constraints == 1

    def test_empty_equality_row_is_vacuous_but_accepted(self):
        m = Model("m")
        cid = m.add_constraint("nothing", {}, "=", 0.0)
        assert cid == 0

    def test_terms_are_canonicalized(self):
        m = Model("m")
        a = m.add_variable("a", 0, 10)
        b = m.add_variable("b", 0, 10)
        c = m.add_variable("c", 0, 10)
        m.add_constraint("row", [(c, 2.0), (a, 1.0), (b, 0.0)], "<=", 4.0)
        row = rows(m)[0]
        assert row.ids == [a, c]  # sorted, zero dropped
        assert row.coeffs == [1.0, 2.0]

    def test_frozen_model_rejects_writes(self):
        m = small_model()
        m.freeze()
        with pytest.raises(ModelError, match="frozen"):
            m.add_variable("extra", 0, 1, "binary")

    def test_stats_count_matrix_nonzeros(self):
        s = model_stats(small_model())
        assert (s.n_variables, s.n_constraints, s.n_binary) == (3, 3, 1)
        assert s.n_nonzeros == 5


class TestMpsWriter:
    def test_empty_model_document(self):
        text = write_mps(Model("empty"))
        assert text.splitlines() == [
            "NAME empty", "ROWS", " N COST", "COLUMNS", "RHS", "BOUNDS",
            "ENDATA"]

    def test_binary_gets_bv_bound_line(self):
        text = write_mps(small_model())
        assert " BV BND v_1_1" in text.splitlines()

    def test_integer_markers_bracket_binary_columns(self):
        lines = write_mps(small_model()).splitlines()
        org = lines.index("    MARKER 'MARKER' 'INTORG'")
        end = lines.index("    MARKER 'MARKER' 'INTEND'")
        assert org < end
        assert any("v_1_1" in l for l in lines[org:end])

    def test_deterministic_output(self):
        assert write_mps(small_model()) == write_mps(small_model())

    def test_zero_rhs_lines_omitted(self):
        text = write_mps(small_model())
        rhs_lines = [l for l in text.splitlines() if l.startswith("    RHS")]
        assert rhs_lines == ["    RHS demand_1 130"]


class TestMpsRoundTrip:
    def test_one_var_one_constraint(self):
        m = Model("tiny")
        x = m.add_variable("x", 0.0, 10.0)
        m.add_constraint("floor", {x: 1.0}, ">=", 3.0)
        m.set_objective({x: 1.0})
        assert models_equal(read_mps(write_mps(m)), m)

    def test_mixed_model_with_all_bound_shapes(self):
        m = Model("shapes")
        m.add_variable("bin", 0, 1, "binary")
        m.add_variable("box", 1.5, 2.5)
        m.add_variable("fixed", 4.0, 4.0)
        m.add_variable("free", -INF, INF)
        m.add_variable("lower_only", -3.0, INF)
        m.add_variable("upper_only", 0.0, 9.0)
        m.add_variable("orphan", 0.0, 1.0)  # appears in no row
        m.add_constraint("c1", {0: 1.0, 1: -2.0, 3: 0.25}, "<=", 1.0)
        m.add_constraint("c2", {2: 1.0, 4: 1.0}, ">=", -2.0)
        m.add_constraint("c3", {5: 3.0}, "=", 6.0)
        m.set_objective({0: 17.0, 3: -1.0})
        assert models_equal(read_mps(write_mps(m)), m)

    def test_objective_constant_free_round_trip_precision(self):
        m = Model("precise")
        x = m.add_variable("x", 0.0, 1e30)
        m.add_constraint("c", {x: 1.0 / 3.0}, ">=", 0.1 + 0.2)
        m.set_objective({x: 1e-17})
        back = read_mps(write_mps(m))
        assert rows(back)[0].coeffs[0] == 1.0 / 3.0
        assert rows(back)[0].rhs == 0.1 + 0.2
        assert back.objective[0] == 1e-17

    def test_truncated_columns_section_raises_with_line_number(self):
        text = write_mps(small_model())
        lines = text.splitlines()
        # chop a token off a COLUMNS entry
        idx = next(i for i, l in enumerate(lines)
                   if l.startswith("    p_1_1"))
        lines[idx] = "    p_1_1"
        with pytest.raises(MpsParseError, match=rf"line {idx + 1}"):
            read_mps("\n".join(lines))

    def test_ranges_section_rejected(self):
        text = ("NAME r\nROWS\n N COST\n L c1\nCOLUMNS\n    x c1 1\n"
                "RANGES\n    RNG c1 4\nENDATA\n")
        with pytest.raises(MpsParseError, match="RANGES"):
            read_mps(text)

    def test_duplicate_row_name_rejected(self):
        text = "NAME d\nROWS\n N COST\n L c1\n L c1\nCOLUMNS\nENDATA\n"
        with pytest.raises(MpsParseError, match="duplicate"):
            read_mps(text)

    def test_duplicate_column_entry_in_a_row_rejected(self):
        text = ("NAME d\nROWS\n N COST\n L c1\nCOLUMNS\n    x c1 1\n"
                "    x c1 2\nRHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError, match="c1"):
            read_mps(text)

    def test_repeated_column_entry_names_the_row_line(self):
        text = ("NAME d\nROWS\n N COST\n L c0\n L c1\nCOLUMNS\n"
                "    x c1 1\n    x c1 2\nRHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 5: constraint 'c1' repeats"):
            read_mps(text)

    def test_bad_row_name_names_its_rows_line(self):
        text = ("NAME d\nROWS\n N COST\n L 1c\nCOLUMNS\n    x 1c 1\n"
                "RHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 4: invalid constraint name '1c'"):
            read_mps(text)

    def test_bad_objective_name_names_its_rows_line(self):
        text = ("NAME d\nROWS\n N 1obj\n L c1\nCOLUMNS\n    x c1 1\n"
                "RHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 3: invalid objective name '1obj'"):
            read_mps(text)

    def test_bad_column_name_names_its_first_columns_line(self):
        text = ("NAME d\nROWS\n N COST\n L c1\nCOLUMNS\n    x c1 1\n"
                "    9x COST 2\n    9x c1 1\nRHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 7: invalid variable name '9x'"):
            read_mps(text)

    def test_non_binary_integer_column_names_its_line(self):
        text = ("NAME d\nROWS\n N COST\n L c1\nCOLUMNS\n"
                "    MARKER 'MARKER' 'INTORG'\n    n c1 1\n"
                "    MARKER 'MARKER' 'INTEND'\nRHS\nBOUNDS\n"
                " UP BND n 2\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 7: binary variable 'n'"):
            read_mps(text)

    def test_fixed_binaries_round_trip(self):
        m = Model("fixed")
        m.add_variable("off", 0, 0, "binary")
        m.add_variable("on", 1, 1, "binary")
        m.add_constraint("c", {0: 1.0, 1: 1.0}, "<=", 1.0)
        back = read_mps(write_mps(m))
        assert models_equal(back, m)
        assert [v.kind for v in back.variables] == ["binary", "binary"]

    def test_missing_endata_rejected(self):
        text = "NAME d\nROWS\n N COST\nCOLUMNS\n"
        with pytest.raises(MpsParseError):
            read_mps(text)

    def test_foreign_fixed_spacing_accepted(self):
        text = (
            "NAME          foreign\n"
            "ROWS\n"
            " N  obj\n"
            " L  lim\n"
            "COLUMNS\n"
            "    x         obj            2.0   lim            1.0\n"
            "RHS\n"
            "    rhs       lim            4.0\n"
            "BOUNDS\n"
            " UP BND       x              9.0\n"
            "ENDATA\n")
        m = read_mps(text)
        assert [v.name for v in m.variables] == ["x"]
        assert m.objective == {0: 2.0}
        assert rows(m)[0].rhs == 4.0
        assert m.variables[0].ub == 9.0


class TestFixVariables:
    def test_fix_binary_to_one_pins_both_bounds(self):
        m = small_model()
        out = fix_variables(m, {"v_1_1": 1})
        v = out.variables[0]
        assert (v.lb, v.ub) == (1.0, 1.0)
        # original untouched
        assert (m.variables[0].lb, m.variables[0].ub) == (0.0, 1.0)

    def test_fix_binary_to_half_rejected(self):
        with pytest.raises(ModelError):
            fix_variables(small_model(), {"v_1_1": 0.5})

    def test_fix_outside_bounds_rejected(self):
        with pytest.raises(ModelError):
            fix_variables(small_model(), {"p_1_1": 600.0})

    def test_fix_nothing_is_identity(self):
        m = small_model()
        assert models_equal(fix_variables(m, {}), m)

    def test_copy_does_not_share_rows_or_bounds(self):
        m = small_model()
        def snapshot(model):
            return (rows(model), model.starts[:],
                    [(v.name, v.lb, v.ub, v.kind) for v in model.variables])

        before = snapshot(m)
        out = fix_variables(m, {"p_1_1": 130.0})
        out.add_variable("extra", 0.0, 5.0)
        out.add_constraint("extra_row", {0: 1.0, 3: 2.0}, ">=", 1.0)
        assert out.n_constraints == m.n_constraints + 1
        assert snapshot(m) == before
        assert (out.variables[1].lb, out.variables[1].ub) == (130.0, 130.0)


# ---------------------------------------------------------------------------
# the MPS reader on random and foreign input, its error table, and add_rows
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
COEFFS = st.sampled_from([0.0, 1.0, -1.0, 1e-17, 0.1 + 0.2, 1.0 / 3.0]) | FINITE
BOUND = st.sampled_from([0.0, -INF, INF, 1.5, -3.0]) | FINITE


@st.composite
def models(draw):
    """Models with fixed binaries, empty rows and columns, and terms of
    zero, tiny and inexact coefficients (add_constraint drops the zeros)."""
    m = Model(draw(st.sampled_from(["m", "Model_2"])))
    n = draw(st.integers(0, 6))
    for j in range(n):
        if draw(st.booleans()):
            lb, ub = draw(st.sampled_from([(0, 1), (0, 0), (1, 1)]))
            m.add_variable(f"b{j}", lb, ub, "binary")
        else:
            lb, ub = sorted([draw(BOUND), draw(BOUND)])
            m.add_variable(f"x{j}", lb, ub)
    var_ids = st.integers(0, n - 1) if n else st.nothing()
    for r in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(var_ids, unique=True, max_size=n))
        m.add_constraint(f"c{r}", [(i, draw(COEFFS)) for i in ids],
                         draw(st.sampled_from(["<=", "=", ">="])),
                         draw(COEFFS | st.sampled_from([INF, -INF])))
    m.set_objective({i: draw(COEFFS)
                     for i in draw(st.lists(var_ids, unique=True))})
    return m


class TestMpsReaderProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(m=models())
    def test_round_trip_on_random_models(self, m):
        back = read_mps(write_mps(m))
        assert back == m
        assert all(type(i) is int for i in back.ids + back.starts)
        assert all(type(x) is float for x in back.coeffs + back.rhs)
        assert all(type(x) is float for x in back.objective.values())
        assert all(type(v.lb) is float and type(v.ub) is float
                   for v in back.variables)

    def test_paper_size_model_round_trips(self):
        inst = generate_instance(3, 5, 12)
        for startup in STARTUPS:
            m, _ = build_model(inst, FormulationChoice("extended", startup,
                                                      0.05))
            assert read_mps(write_mps(m)) == m

    CANONICAL = ("NAME f\nROWS\n N COST\n L c0\n G c1\nCOLUMNS\n"
                 "    x COST 2\n    x c0 1\n    x c1 -1\n    y c0 3\n"
                 "    y c1 4\nRHS\n    RHS c0 5\n    RHS c1 1\n"
                 "BOUNDS\n UP BND x 9\nENDATA\n")

    @pytest.mark.parametrize("columns", [
        # five-token lines
        "    x COST 2 c0 1\n    x c1 -1\n    y c0 3 c1 4\n",
        # entries of a column that are not contiguous
        "    x COST 2\n    x c0 1\n    y c0 3\n    x c1 -1\n    y c1 4\n",
        # entries out of row order within a column
        "    x c1 -1\n    x COST 2\n    x c0 1\n    y c1 4\n    y c0 3\n",
        # blank and comment lines inside COLUMNS
        "\n    x COST 2\n* a comment\n    x c0 1\n   \n    x c1 -1\n"
        "  * indented comment\n    y c0 3\n    y c1 4\n",
    ], ids=["five_tokens", "non_contiguous", "row_order", "blank_comment"])
    def test_foreign_columns_parse_to_the_canonical_model(self, columns):
        head, rest = self.CANONICAL.split("COLUMNS\n")
        tail = rest[rest.index("RHS\n"):]
        assert read_mps(head + "COLUMNS\n" + columns + tail) == \
            read_mps(self.CANONICAL)

    def test_sections_may_repeat(self):
        text = ("NAME r\nROWS\n N COST\n L c0\nCOLUMNS\n    x c0 1\n"
                "    y c0 2\nBOUNDS\n UP BND x 4\nROWS\n G c1\nCOLUMNS\n"
                "    y c1 3\n    x c1 5\nRHS\n    RHS c1 1\nENDATA\n")
        m = read_mps(text)
        assert rows(m) == [("c0", [0, 1], [1.0, 2.0], "<=", 0.0),
                           ("c1", [0, 1], [5.0, 3.0], ">=", 1.0)]
        assert [(v.name, v.ub) for v in m.variables] == [("x", 4.0),
                                                         ("y", INF)]

    def test_crlf_and_long_text_lines_are_numbered_as_splitlines(self):
        # more text than one chunk, with a bad line near the end
        names = [f"c{r}" for r in range(40000)]
        text = ("NAME big\r\nROWS\r\n N COST\r\n"
                + "".join(f" L {n}\r\n" for n in names)
                + "COLUMNS\r\n" + "".join(f"    x {n} 1\r\n" for n in names)
                + "    x c0 oops\r\nENDATA\r\n")
        lineno = text.count("\n") - 1
        with pytest.raises(MpsParseError,
                           match=rf"^line {lineno}: not a number: 'oops'$"):
            read_mps(text)
        m = read_mps(text.replace("    x c0 oops\r\n", ""))
        assert m.n_constraints == 40000 and m.coeffs == [1.0] * 40000


def _mps(rows=" L c1", columns="    x c1 1", rhs="", bounds="",
         head="NAME d"):
    """An MPS text with the given section bodies; line 1 is NAME, the N
    row is line 3 and ROWS data starts on line 4."""
    return (f"{head}\nROWS\n N COST\n{rows}\nCOLUMNS\n{columns}\nRHS\n{rhs}\n"
            f"BOUNDS\n{bounds}\nENDATA\n")


# case -> (MPS text, the whole MpsParseError message)
MPS_ERRORS = {
    "unknown_section": ("NAME d\nFOO\nENDATA\n", "line 2: unknown section 'FOO'"),
    "ranges": (_mps(rhs="RANGES"), "line 8: unsupported section: RANGES"),
    "objsense": ("OBJSENSE\nENDATA\n", "line 1: unsupported section: OBJSENSE"),
    "sos": ("NAME d\nSOS\n", "line 2: unsupported section: SOS"),
    "data_first": ("  x\nENDATA\n", "line 1: data before any section header: 'x'"),
    "data_in_name": ("NAME d\n  x\nENDATA\n",
                     "line 2: unexpected data in NAME section: 'x'"),
    "row_shape": (_mps(rows=" L"), "line 4: expected 'type name', got 'L'"),
    "two_objectives": (_mps(rows=" N OBJ2"), "line 4: multiple objective (N) rows"),
    "duplicate_row": (_mps(rows=" L c1\n G c1"), "line 5: duplicate row name 'c1'"),
    "row_named_as_objective": (_mps(rows=" L COST"),
                               "line 4: duplicate row name 'COST'"),
    "row_type": (_mps(rows=" X c1"), "line 4: unknown row type 'X'"),
    "columns_before_n": ("NAME d\nCOLUMNS\n    x c1 1\nENDATA\n",
                         "line 3: COLUMNS before an N row was declared"),
    "marker": (_mps(columns="    M 'MARKER' 'FOO'"),
               "line 6: unrecognized marker line \"M 'MARKER' 'FOO'\""),
    "column_shape": (_mps(columns="    x c1"),
                     "line 6: expected 'column row value' (optionally twice "
                     "per line)"),
    "column_value": (_mps(columns="    x c1 one"), "line 6: not a number: 'one'"),
    "column_nan": (_mps(columns="    x c1 nan"),
                   "line 6: coefficient must be finite, got 'nan'"),
    "objective_inf": (_mps(columns="    x COST inf"),
                      "line 6: coefficient must be finite, got 'inf'"),
    "column_overflow": (_mps(columns="    x c1 1 c1 -1e999"),
                        "line 6: coefficient must be finite, got '-1e999'"),
    "column_row": (_mps(columns="    x c2 1"), "line 6: unknown row 'c2'"),
    "objective_twice": (_mps(columns="    x COST 0\n    x COST 1"),
                        "line 7: duplicate objective entry for a column"),
    "rhs_shape": (_mps(rhs="    RHS c1"),
                  "line 8: expected 'setname row value' (optionally twice "
                  "per line)"),
    "rhs_row": (_mps(rhs="    RHS c2 1"), "line 8: unknown row 'c2'"),
    "rhs_objective": (_mps(rhs="    RHS COST 1"),
                      "line 8: objective constants are not supported"),
    "rhs_twice": (_mps(rhs="    RHS c1 1 c1 2"),
                  "line 8: duplicate RHS entry for row 'c1'"),
    "rhs_value": (_mps(rhs="    RHS c1 x"), "line 8: not a number: 'x'"),
    "rhs_nan": (_mps(rhs="    RHS c1 nan"),
                "line 8: right-hand side must be a number, got 'nan'"),
    "bound_shape": (_mps(bounds=" UP BND"), "line 10: malformed bound line 'UP BND'"),
    "bound_column": (_mps(bounds=" UP BND y 1"),
                     "line 10: bound for undeclared column 'y'"),
    "bound_twice": (_mps(bounds=" UP BND x 1\n UP BND x 2"),
                    "line 11: duplicate UP bound for column 'x'"),
    "bound_no_value": (_mps(bounds=" LO BND x"), "line 10: LO bound requires a value"),
    "bound_type": (_mps(bounds=" UI BND x 2"), "line 10: unknown bound type 'UI'"),
    "bound_value": (_mps(bounds=" FX BND x y"), "line 10: not a number: 'y'"),
    "bound_nan": (_mps(bounds=" UP BND x nan"),
                  "line 10: bound must be a number, got 'nan'"),
    "no_endata": ("NAME d\nROWS\n N COST\n\n", "line 4: missing ENDATA"),
    "empty_text": ("", "line 0: missing ENDATA"),
    "no_objective": ("NAME d\nENDATA\n", "line 0: no objective (N) row"),
    "model_name": (_mps(head="NAME 9d"),
                   "line 1: invalid model name '9d': must match "
                   "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters"),
    "objective_name": (_mps().replace(" N COST", " N 9obj").replace(
        "    x c1 1", "    x c1 1\n    x 9obj 1"),
        "line 3: invalid objective name '9obj': must match "
        "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters"),
    "column_name": (_mps(columns="    x c1 1\n    9y c1 2"),
                    "line 7: invalid variable name '9y': must match "
                    "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters"),
    "binary_bounds": (_mps(columns="    MARKER 'MARKER' 'INTORG'\n    x c1 1",
                           bounds=" UP BND x 2"),
                      "line 7: binary variable 'x' must have bounds [0, 1] "
                      "or be fixed at 0 or 1, got [0.0, 2.0]"),
    "inverted_bounds": (_mps(bounds=" LO BND x 3\n UP BND x 2"),
                        "line 6: variable 'x': inverted bounds [3.0, 2.0]"),
    "row_name": (_mps(rows=" L c1\n G 2c"),
                 "line 5: invalid constraint name '2c': must match "
                 "[A-Za-z][A-Za-z0-9_]* and be at most 255 characters"),
    "row_named_later_as_objective": (
        "NAME d\nROWS\n L c1\n N c1\nCOLUMNS\n    x c1 1\nENDATA\n",
        "line 3: duplicate constraint name 'c1'"),
    "repeated_entry": (_mps(columns="    x c1 1\n    x c1 2"),
                       "line 4: constraint 'c1' repeats a variable; combine "
                       "coefficients before adding"),
}


class TestMpsErrors:
    @pytest.mark.parametrize("case", MPS_ERRORS)
    def test_message_and_line(self, case):
        text, message = MPS_ERRORS[case]
        with pytest.raises(MpsParseError) as info:
            read_mps(text)
        assert str(info.value) == message

    def test_zero_entries_do_not_count_as_repeats(self):
        m = read_mps(_mps(columns="    x c1 0\n    x c1 2"))
        assert rows(m) == [("c1", [0], [2.0], "<=", 0.0)]

    def test_infinite_bounds_and_rhs_are_accepted(self):
        m = read_mps(_mps(rhs="    RHS c1 inf",
                          bounds=" LO BND x -inf\n UP BND x inf"))
        assert m.rhs == [INF]
        assert (m.variables[0].lb, m.variables[0].ub) == (-INF, INF)

    def test_grammar_errors_come_in_line_order_before_model_errors(self):
        # line 4 declares a bad row name; line 7 holds a bad number
        text = _mps(rows=" L 1c", columns="    x 1c 1\n    x COST one")
        with pytest.raises(MpsParseError, match=r"^line 7: not a number"):
            read_mps(text)

    def test_column_errors_come_before_row_errors(self):
        # the bad row is declared on line 4, before the bad column (line 6)
        text = _mps(rows=" L 1c", columns="    9x 1c 1")
        with pytest.raises(MpsParseError,
                           match=r"^line 6: invalid variable name '9x'"):
            read_mps(text)

    @pytest.mark.parametrize("rows_text, columns, message", [
        # the first row repeats a variable, the second has a bad name
        (" L c0\n L 1c", "    x c0 1\n    x c0 2\n    x 1c 1",
         "line 4: constraint 'c0' repeats"),
        # the first row has a bad name, the second repeats a variable
        (" L 1c\n L c0", "    x c0 1\n    x c0 2\n    x 1c 1",
         "line 4: invalid constraint name '1c'"),
        # declared last in ROWS, reported last whatever the check
        (" L c0\n L c1\n L 2c", "    x c1 1\n    x c1 1\n    x 2c 1",
         "line 5: constraint 'c1' repeats"),
    ])
    def test_first_bad_row_in_row_order_is_reported(self, rows_text,
                                                    columns, message):
        with pytest.raises(MpsParseError, match="^" + re.escape(message)):
            read_mps(_mps(rows=rows_text, columns=columns))


class TestNonFiniteNumbers:
    def model(self):
        m = Model("m")
        m.add_variable("x", 0.0, INF)
        m.add_variable("y", -INF, 5.0)
        return m

    @pytest.mark.parametrize("terms, rhs, message", [
        ({0: math.nan}, 0.0, "constraint 'c': coefficient of variable id 0 "
                             "must be finite, got nan"),
        ({0: 1.0, 1: -INF}, 0.0, "constraint 'c': coefficient of variable "
                                 "id 1 must be finite, got -inf"),
        ({0: 1.0}, math.nan, "constraint 'c': right-hand side is NaN"),
    ])
    def test_constraint_rejects_nan_and_infinite_coefficients(self, terms,
                                                             rhs, message):
        m = self.model()
        with pytest.raises(ModelError) as info:
            m.add_constraint("c", terms, "<=", rhs)
        assert str(info.value) == message
        with pytest.raises(ModelError) as bulk:
            m.add_rows(["c"], ["<="], [rhs], [0, len(terms)], list(terms),
                       list(terms.values()))
        assert (str(bulk.value), bulk.value.row) == (message, 0)
        assert m.n_constraints == 0 and m.ids == []

    def test_infinite_rhs_is_accepted(self):
        m = self.model()
        m.add_constraint("c", {0: 1.0}, "<=", INF)
        m.add_rows(["d"], [">="], [-INF], [0, 1], [1], [2.0])
        assert m.rhs == [INF, -INF]

    def test_variable_rejects_nan_bounds_only(self):
        m = self.model()
        with pytest.raises(ModelError, match=r"^variable 'z': bound is NaN"):
            m.add_variable("z", math.nan, 1.0)
        with pytest.raises(ModelError, match=r"^variable 'z': bound is NaN"):
            m.add_variable("z", 0.0, math.nan)
        m.add_variable("z", -INF, INF)
        assert m.n_variables == 3

    @pytest.mark.parametrize("value", [math.nan, INF, -INF])
    def test_objective_rejects_non_finite_coefficients(self, value):
        m = self.model()
        m.set_objective({0: 1.0})
        with pytest.raises(ModelError, match="objective coefficient of "
                                             "variable id 1 must be finite"):
            m.set_objective({0: 2.0, 1: value})
        assert m.objective == {0: 1.0}


def _base_model() -> Model:
    m = Model("m")
    for j in range(4):
        m.add_variable(f"x{j}", 0.0, 10.0)
    m.add_constraint("old", {0: 1.0}, "<=", 1.0)
    return m


def _snapshot(m: Model):
    return (rows(m), list(m.starts), set(m._con_names))


@st.composite
def blocks(draw):
    """Row blocks that may break any check of add_constraint."""
    out = []
    for r in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(st.sampled_from([0, 1, 2, 3, 3, 4, -1]),
                            max_size=4))
        out.append((draw(st.sampled_from([f"r{r}", f"r{r}", "r0", "old",
                                          "COST", "1bad"])),
                    ids,
                    [draw(st.sampled_from([1.0, 0.0, -2.5, 1e-17, math.nan,
                                           INF])) for _ in ids],
                    draw(st.sampled_from(["<=", "=", ">=", ">=", "<"])),
                    draw(st.sampled_from([0.0, 1.5, INF, math.nan]))))
    return out


class TestAddRows:
    def add_one_by_one(self, block):
        """add_constraint on each row; the first failure as (row, message)."""
        m = _base_model()
        for r, (name, ids, coeffs, sense, rhs) in enumerate(block):
            try:
                m.add_constraint(name, list(zip(ids, coeffs)), sense, rhs)
            except ModelError as e:
                return m, (r, str(e))
        return m, None

    def add_block(self, block, as_arrays=False):
        m = _base_model()
        names = [b[0] for b in block]
        starts = [0]
        for b in block:
            starts.append(starts[-1] + len(b[1]))
        ids = [i for b in block for i in b[1]]
        coeffs = [c for b in block for c in b[2]]
        if as_arrays:
            ids, coeffs = np.array(ids, dtype=np.int64), np.array(coeffs)
        try:
            out = m.add_rows(names, [b[3] for b in block],
                             [b[4] for b in block], starts, ids, coeffs)
        except ModelError as e:
            return m, (e.row, str(e))
        assert out == range(1, 1 + len(block))
        return m, None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(block=blocks(), as_arrays=st.booleans())
    def test_matches_add_constraint_row_by_row(self, block, as_arrays):
        one, failure = self.add_one_by_one(block)
        bulk, bulk_failure = self.add_block(block, as_arrays)
        assert bulk_failure == failure
        if failure is None:
            assert bulk == one
            assert all(type(i) is int for i in bulk.ids + bulk.starts)
            assert all(type(x) is float for x in bulk.coeffs + bulk.rhs)
        else:  # nothing of the block entered the model
            assert _snapshot(bulk) == _snapshot(_base_model())

    @pytest.mark.parametrize("ids, message", [
        ([0, 0.5], "constraint 'b': variable id 0.5 is not an integer"),
        ([0, "a"], "constraint 'b': variable id 'a' is not an integer"),
        ([0, 2 ** 70], "constraint 'b' references an undeclared variable"),
        ([0, np.uint64(2 ** 63 + 1)],
         "constraint 'b' references an undeclared variable"),
    ])
    def test_ids_numpy_cannot_hold_fail_as_in_add_constraint(self, ids,
                                                            message):
        m = _base_model()
        before = _snapshot(m)
        with pytest.raises(ModelError) as info:
            m.add_rows(["a", "b"], ["<=", "<="], [1.0, 1.0], [0, 1, 3],
                       [1] + ids, [1.0, 1.0, 1.0])
        assert (str(info.value), info.value.row) == (message, 1)
        assert _snapshot(m) == before

    def test_convertible_values_are_stored_as_add_constraint_stores_them(self):
        m, one = _base_model(), _base_model()
        m.add_rows(["a"], [">="], [2], [0, 2], [True, 3], ["1.5", 2])
        one.add_constraint("a", [(True, "1.5"), (3, 2)], ">=", 2)
        assert m == one
        assert rows(m)[1] == ("a", [1, 3], [1.5, 2.0], ">=", 2.0)

    def test_malformed_block_rejected(self):
        m = _base_model()
        for starts in ([0, 2], [1, 1], [0, 2, 1]):
            with pytest.raises(ModelError, match="add_rows: 2 names need"):
                m.add_rows(["a", "b"], ["<=", "<="], [0.0, 0.0], starts,
                           [0], [1.0])
        assert m.n_constraints == 1

    def test_frozen_model_rejects_rows(self):
        m = _base_model().freeze()
        with pytest.raises(ModelError, match="frozen"):
            m.add_rows([], [], [], [0], [], [])
