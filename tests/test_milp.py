import math
import re
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ucbench import (STARTUPS, FormulationChoice, Model, ModelError,
                     MpsParseError, Variable, build_model, fix_variables,
                     generate_instance, model_stats, read_mps, write_mps)

from ucbench import milp

from conftest import objective_terms, rows

INF = float("inf")


def models_equal(a: Model, b: Model) -> bool:
    return (a.name == b.name
            and a.objective_name == b.objective_name
            and [a.variable(j) for j in range(a.n_variables)]
            == [b.variable(j) for j in range(b.n_variables)]
            and a.objective == b.objective
            and rows(a) == rows(b))


def small_model() -> Model:
    m = Model("small")
    v = m.add_variable("v_1_1", 0, 1, "binary", cost=5.0)
    p = m.add_variable("p_1_1", 0.0, 500.0, cost=0.5)
    f = m.add_variable("f_1", -INF, INF)
    m.add_constraint("lim_hi_1_1", {p: 1.0, v: -500.0}, "<=", 0.0)
    m.add_constraint("demand_1", {p: 1.0}, "=", 130.0)
    m.add_constraint("flow_1", {f: 1.0, p: -0.4}, "=", 0.0)
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
        assert list(zip(m.lb, m.ub)) == [(0.0, 0.0), (1.0, 1.0)]
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
        assert (list(m.ids), list(m.coeffs), list(m.starts)) == ([], [], [0])
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
        assert (rows(m), list(m.starts)) == before

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
        assert (rows(m), list(m.starts)) == before
        assert m.n_constraints == 1

    @pytest.mark.parametrize("call, message", [
        (lambda m: m.add_constraint("d", [1], "<=", 1),
         "constraint 'd': term 1 is not a (variable id, coefficient) pair"),
        (lambda m: m.add_constraint("d", [(0, 1.0), (1,)], "<=", 1),
         "constraint 'd': term (1,) is not a (variable id, coefficient) "
         "pair"),
        (lambda m: m.add_constraint("d", None, "<=", 1),
         "constraint 'd': terms must be a dict or a sequence of (variable "
         "id, coefficient) pairs, got None"),
    ], ids=["row_ints", "row_short", "row_none"])
    def test_terms_that_are_not_pairs_rejected(self, call, message):
        m = Model("m")
        m.add_variables(["x", "y"], [0.0, 0.0], [1.0, 1.0],
                        ["continuous"] * 2, [0.0, 2.0])
        m.add_constraint("c", {0: 1.0}, "<=", 1.0)
        before = rows(m), list(m.starts), objective_terms(m)
        with pytest.raises(ModelError) as info:
            call(m)
        assert str(info.value) == message
        assert (rows(m), list(m.starts), objective_terms(m)) == before

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
        with pytest.raises(ModelError) as info:
            m.add_constraint("extra", {0: 1.0}, "<=", 1.0)
        assert str(info.value) == "model is frozen"
        assert m.n_constraints == 3

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

    def test_memory_stays_within_four_times_the_text(self):
        """The writer's transient memory is the text twice over, arrays
        over the nonzeros and the names (2.1 times the text here); a
        writer that holds one string per line needs 6.0 times."""
        model, _ = build_model(generate_instance(1, 10, 48),
                               FormulationChoice("extended", "one_bin", 0.05))
        tracemalloc.start()
        try:
            text = write_mps(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 1_000_000
        assert peak <= 4 * len(text), f"peak {peak / len(text):.2f} x text"


class TestMpsRoundTrip:
    def test_one_var_one_constraint(self):
        m = Model("tiny")
        x = m.add_variable("x", 0.0, 10.0, cost=1.0)
        m.add_constraint("floor", {x: 1.0}, ">=", 3.0)
        assert models_equal(read_mps(write_mps(m)), m)

    def test_mixed_model_with_all_bound_shapes(self):
        m = Model("shapes")
        m.add_variable("bin", 0, 1, "binary", cost=17.0)
        m.add_variable("box", 1.5, 2.5)
        m.add_variable("fixed", 4.0, 4.0)
        m.add_variable("free", -INF, INF, cost=-1.0)
        m.add_variable("lower_only", -3.0, INF)
        m.add_variable("upper_only", 0.0, 9.0)
        m.add_variable("orphan", 0.0, 1.0)  # appears in no row
        m.add_constraint("c1", {0: 1.0, 1: -2.0, 3: 0.25}, "<=", 1.0)
        m.add_constraint("c2", {2: 1.0, 4: 1.0}, ">=", -2.0)
        m.add_constraint("c3", {5: 3.0}, "=", 6.0)
        assert models_equal(read_mps(write_mps(m)), m)

    def test_objective_constant_free_round_trip_precision(self):
        m = Model("precise")
        x = m.add_variable("x", 0.0, 1e30, cost=1e-17)
        m.add_constraint("c", {x: 1.0 / 3.0}, ">=", 0.1 + 0.2)
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

    def test_bad_column_after_others_names_its_first_columns_line(self):
        # columns are declared in one block; the failing one still blames
        # the line where it first appears, not the block's first column
        text = ("NAME d\nROWS\n N COST\n L c1\nCOLUMNS\n    x c1 1\n"
                "    y c1 1\n    x COST 1\n    9z c1 1\n    y COST 1\n"
                "RHS\nBOUNDS\nENDATA\n")
        with pytest.raises(MpsParseError,
                           match=r"^line 9: invalid variable name '9z'"):
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
        assert [back.variable(j).kind for j in (0, 1)] == ["binary",
                                                          "binary"]

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
        assert m.var_names == ["x"]
        assert objective_terms(m) == {0: 2.0}
        assert rows(m)[0].rhs == 4.0
        assert m.ub[0] == 9.0

    @pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)])
    def test_each_bound_keeps_its_sign_of_zero(self, zeros):
        # -0.0 == 0.0, so Model.__eq__ cannot see a lost sign: compare the
        # bounds' bytes. Each zero is written in both orders, as FX bounds
        # and as UP bounds
        m = Model("z")
        m.add_variables(["a", "b", "c", "d"], [*zeros, -5.0, -5.0],
                        [*zeros, *zeros], ["continuous"] * 4)
        back = read_mps(write_mps(m))
        assert bytes(back.lb) == bytes(m.lb)
        assert bytes(back.ub) == bytes(m.ub)

    def test_lower_bounds_and_rhs_of_minus_zero_keep_their_sign(self):
        # the reader's defaults are a lower bound and a right-hand side of
        # +0.0, so -0.0 needs an LO or RHS line of -0; a binary on
        # [-0.0, 1] is not BV, and a column on [-0.0, 0.0] is not FX
        zeros = (0.0, -0.0)
        columns = [(lb, ub, "continuous") for lb in (*zeros, -5.0, -INF)
                   for ub in (*zeros, 1.0, INF)]
        columns += [(lb, ub, "binary") for lb in zeros
                    for ub in (*zeros, 1.0)] + [(1.0, 1.0, "binary")]
        lbs, ubs, kinds = zip(*columns)
        m = Model("z")
        ids = m.add_variables([f"x{j}" for j in range(len(columns))],
                              lbs, ubs, kinds)
        for j in ids:
            m.add_constraint(f"r{j}", {j: 1.0}, milp.SENSES[j % 3],
                             (0.0, -0.0, 3.0)[j % 3])
        text = write_mps(m)
        assert " LO BND x4 -0\n" in text and "    RHS r1 -0\n" in text
        back = read_mps(text)
        assert back == m
        for store in ("lb", "ub", "rhs"):
            assert np.array(getattr(back, store)).tobytes() \
                == np.array(getattr(m, store)).tobytes()
        assert back.kinds == m.kinds
        assert write_mps(back) == text

    def test_a_foreign_negative_zero_cost_reads_as_zero(self):
        text = ("NAME d\nROWS\n N COST\n L c1\nCOLUMNS\n    x COST -0\n"
                "    x c1 1\n    y COST -0.0\nRHS\nBOUNDS\nENDATA\n")
        m = read_mps(text)
        assert m.objective == array("d", [0.0, 0.0])
        assert [math.copysign(1.0, c) for c in m.objective] == [1.0, 1.0]
        assert write_mps(m) == write_mps(read_mps(write_mps(m)))


class TestFixVariables:
    def test_fix_binary_to_one_pins_both_bounds(self):
        m = small_model()
        out = fix_variables(m, {"v_1_1": 1})
        v = out.variable(0)
        assert (v.lb, v.ub) == (1.0, 1.0)
        # original untouched
        assert (m.lb[0], m.ub[0]) == (0.0, 1.0)

    def test_fix_binary_to_half_rejected(self):
        with pytest.raises(ModelError):
            fix_variables(small_model(), {"v_1_1": 0.5})

    def test_fix_outside_bounds_rejected(self):
        with pytest.raises(ModelError):
            fix_variables(small_model(), {"p_1_1": 600.0})

    @pytest.mark.parametrize("key", ["p_1_1", "v_1_1", 2])
    def test_fix_to_nan_rejected(self, key):
        m = small_model()
        name = key if isinstance(key, str) else m.var_names[key]
        with pytest.raises(ModelError, match=rf"^cannot fix '{name}' to "
                                             r"NaN$"):
            fix_variables(m, {key: math.nan})

    @pytest.mark.parametrize("value", [None, "abc", [1.0]])
    def test_fix_to_a_value_that_is_not_a_number_rejected(self, value):
        with pytest.raises(ModelError) as info:
            fix_variables(small_model(), {"p_1_1": value})
        assert str(info.value) == (f"cannot fix 'p_1_1' to {value!r}, which "
                                   "is not a number")

    def test_fix_by_a_non_integer_id_rejected(self):
        m = small_model()
        with pytest.raises(ModelError, match=r"^variable key 1\.7 is neither "
                                             "a name nor an integer id"):
            fix_variables(m, {1.7: 130.0})
        out = fix_variables(m, {np.int64(1): 130.0})
        assert (out.lb[1], out.ub[1]) == (130.0, 130.0)

    def test_two_keys_of_one_variable_must_agree(self):
        m = small_model()
        with pytest.raises(ModelError, match=r"^conflicting values for "
                                             r"'v_1_1': 0\.0 and 1\.0$"):
            fix_variables(m, {"v_1_1": 0, 0: 1})
        with pytest.raises(ModelError, match="conflicting values for "
                                             "'p_1_1'"):
            fix_variables(m, {np.int64(1): 130.0, "p_1_1": 120.0})
        out = fix_variables(m, {"v_1_1": 1, 0: 1.0})
        assert (out.lb[0], out.ub[0]) == (1.0, 1.0)

    def test_fix_nothing_is_identity(self):
        m = small_model()
        assert models_equal(fix_variables(m, {}), m)

    def test_copy_does_not_share_rows_or_bounds(self):
        m = small_model()
        def snapshot(model):
            return (rows(model), model.starts[:],
                    [model.variable(j) for j in range(model.n_variables)])

        before = snapshot(m)
        out = fix_variables(m, {"p_1_1": 130.0})
        out.add_variable("extra", 0.0, 5.0)
        out.add_constraint("extra_row", {0: 1.0, 3: 2.0}, ">=", 1.0)
        assert out.n_constraints == m.n_constraints + 1
        assert snapshot(m) == before
        assert (out.lb[1], out.ub[1]) == (130.0, 130.0)


def single_form_error(add) -> str:
    """The message that ``add(model)`` raises on a fresh model."""
    with pytest.raises(ModelError) as info:
        add(Model("m"))
    return str(info.value)


class TestRebound:
    """A copy with new bounds and right-hand sides checks only those, as
    add_variable and add_constraint check them."""

    def test_same_bounds_give_an_equal_model(self):
        m = small_model()
        out = m.rebound(m.lb, m.ub)
        assert out == m and models_equal(out, m)
        assert m.rebound(m.lb, m.ub, m.rhs) == m
        assert vars(out).keys() == vars(m).keys()
        assert out._con_names is None and out._var_ids is None

    def test_new_bounds_and_right_hand_sides_are_taken(self):
        m = small_model()
        out = m.rebound([1, 130.0, -2.0], ["1", 130.0, INF], [0.0, 7.5, 1])
        assert (out.lb, out.ub) == (array("d", [1.0, 130.0, -2.0]),
                                    array("d", [1.0, 130.0, INF]))
        assert out.rhs == [0.0, 7.5, 1.0]
        assert rows(out) == [r._replace(rhs=b)
                             for r, b in zip(rows(m), out.rhs)]

    @pytest.mark.parametrize("column, lb, ub", [
        (1, math.nan, 500.0),  # NaN
        (1, 0.0, math.nan),
        (1, 10.0, 5.0),  # inverted
        (2, INF, INF),  # a lower bound of +inf
        (2, -INF, -INF),
        (0, 0.0, 2.0),  # a binary outside {0, 1}
        (0, 0.5, 1.0),
        (1, "abc", 5.0),  # not a number
    ])
    def test_a_bad_bound_raises_add_variables_message(self, column, lb, ub):
        m = small_model()
        lbs, ubs = list(m.lb), list(m.ub)
        lbs[column], ubs[column] = lb, ub
        name, kind = m.var_names[column], milp.KINDS[m.kinds[column]]
        with pytest.raises(ModelError) as info:
            m.rebound(lbs, ubs, [math.nan] * 3)  # bounds are checked first
        assert str(info.value) == single_form_error(
            lambda fresh: fresh.add_variable(name, lb, ub, kind))
        assert (info.value.column, info.value.row) == (column, None)

    @pytest.mark.parametrize("value", [math.nan, INF, -INF, "x", None])
    def test_a_bad_right_hand_side_raises_add_constraints_message(
            self, value):
        m = small_model()
        rhs = list(m.rhs)
        rhs[1] = value
        with pytest.raises(ModelError) as info:
            m.rebound(m.lb, m.ub, rhs)
        assert str(info.value) == single_form_error(
            lambda fresh: fresh.add_constraint("demand_1", {}, "=", value))
        assert (info.value.row, info.value.column) == (1, None)

    @pytest.mark.parametrize("lb, ub, rhs", [
        ([0.0, 0.0], [1.0, 500.0, INF], None),
        ([0.0, 0.0, -INF], [1.0, 500.0, INF, 1.0], None),
        ([0.0, 0.0, -INF], [1.0, 500.0, INF], [0.0, 130.0]),
        ([0.0, 0.0, -INF], [1.0, 500.0, INF], []),
    ])
    def test_wrong_lengths_raise(self, lb, ub, rhs):
        with pytest.raises(ModelError, match=r"^rebound: 3 variables need "):
            small_model().rebound(lb, ub, rhs)

    def test_the_copy_shares_nothing_with_its_source(self):
        m = small_model().freeze()

        def snapshot(model):
            return (rows(model), model.starts[:], model.objective[:],
                    [model.variable(j) for j in range(model.n_variables)])

        before = snapshot(m)
        out = m.rebound([1.0, 130.0, 0.0], [1.0, 130.0, 0.0],
                        [1.0, 2.0, 3.0])
        assert not out.frozen
        out.add_variable("extra", 0.0, 5.0, cost=3.0)
        out.add_constraint("extra_row", {0: 1.0, 3: 2.0}, ">=", 1.0)
        out.lb[1] = out.ub[1] = 0.0
        out.rhs[0] = -1.0
        assert out.n_constraints == m.n_constraints + 1
        assert snapshot(m) == before and m.frozen


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
    columns = []
    for j in range(n):
        if draw(st.booleans()):
            lb, ub = draw(st.sampled_from([(0, 1), (0, 0), (1, 1)]))
            columns.append((f"b{j}", lb, ub, "binary"))
        else:
            lb, ub = draw(st.tuples(BOUND, BOUND).map(sorted).filter(
                lambda b: b[0] < INF and b[1] > -INF))
            columns.append((f"x{j}", lb, ub, "continuous"))
    var_ids = st.integers(0, n - 1) if n else st.nothing()
    row_args = []
    for r in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(var_ids, unique=True, max_size=n))
        row_args.append((f"c{r}", [(i, draw(COEFFS)) for i in ids],
                         draw(st.sampled_from(["<=", "=", ">="])),
                         draw(COEFFS)))
    # the costs are drawn last, after the rows; each enters with its
    # column, so the columns are added once everything is drawn
    costs = {i: draw(COEFFS) for i in draw(st.lists(var_ids, unique=True))}
    for j, column in enumerate(columns):
        m.add_variable(*column, cost=costs.get(j, 0.0))
    for args in row_args:
        m.add_constraint(*args)
    return m


class TestMpsReaderProperties:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(m=models())
    def test_round_trip_on_random_models(self, m):
        back = read_mps(write_mps(m))
        assert back == m
        assert (back.ids.typecode, back.starts.typecode,
                back.coeffs.typecode) == ("q", "q", "d")
        assert all(type(x) is float for x in back.rhs)
        assert (back.lb.typecode, back.ub.typecode,
                back.objective.typecode) == ("d", "d", "d")

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
        # a column in two runs, so that row c0 lists y before x
        "    x COST 2\n    x c1 -1\n    y c0 3\n    y c1 4\n    x c0 1\n",
    ], ids=["five_tokens", "non_contiguous", "row_order", "blank_comment",
            "split_run"])
    def test_foreign_columns_parse_to_the_canonical_model(self, columns):
        """read_mps orders each row's entries by column, so a valid block
        passes add_rows's array check and the row checks never run."""
        head, rest = self.CANONICAL.split("COLUMNS\n")
        tail = rest[rest.index("RHS\n"):]
        with mock.patch.object(Model, "_check_rows", autospec=True,
                               side_effect=Model._check_rows) as spy:
            back = read_mps(head + "COLUMNS\n" + columns + tail)
        spy.assert_not_called()
        assert write_mps(back) == self.CANONICAL
        assert back == read_mps(self.CANONICAL)

    def test_sections_may_repeat(self):
        text = ("NAME r\nROWS\n N COST\n L c0\nCOLUMNS\n    x c0 1\n"
                "    y c0 2\nBOUNDS\n UP BND x 4\nROWS\n G c1\nCOLUMNS\n"
                "    y c1 3\n    x c1 5\nRHS\n    RHS c1 1\nENDATA\n")
        m = read_mps(text)
        assert rows(m) == [("c0", [0, 1], [1.0, 2.0], "<=", 0.0),
                           ("c1", [0, 1], [5.0, 3.0], ">=", 1.0)]
        assert list(zip(m.var_names, m.ub)) == [("x", 4.0), ("y", INF)]

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
        assert m.n_constraints == 40000 and list(m.coeffs) == [1.0] * 40000

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(m=models())
    def test_text_off_the_common_line_shapes_reads_alike(self, m):
        """read_mps reads COLUMNS's common line shape without its checks;
        the same text in other shapes takes them all, and must give the
        same model. ROWS, RHS and BOUNDS lines take their checks in
        every shape."""
        text = write_mps(m)
        assert read_mps(reshaped(text)) == read_mps(text) == m

    def test_lines_that_only_look_like_a_common_line(self):
        # a header at column 0 with the tokens of the previous entry
        m = read_mps(_mps(columns="    RHS c1 1\nRHS c1 1\n    RHS c1 5"))
        assert (m.var_names, m.rhs, list(m.coeffs)) == (["RHS"], [5.0], [1.0])
        # an indented comment with the three tokens of an RHS line
        assert read_mps(_mps(rhs="    RHS c1 2\n  * c2 2",
                             rows=" L c1\n L c2")).rhs == [2.0, 0.0]
        # a marker line whose words name the previous column and a row
        with pytest.raises(MpsParseError, match=r"^line 8: unrecognized "
                                                r"marker line"):
            read_mps(_mps(rows=" L c1\n L 'MARKER'",
                          columns="    MARKER c1 1\n    MARKER 'MARKER' 1"))
        # a value seen before only as an infinite bound
        with pytest.raises(MpsParseError, match=r"^line 11: coefficient must "
                                                r"be finite, got 'inf'$"):
            read_mps("NAME d\nROWS\n N COST\n L c1\n L c2\nCOLUMNS\n"
                     "    x c1 1\nBOUNDS\n UP BND x inf\nCOLUMNS\n"
                     "    x c2 inf\nENDATA\n")


def reshaped(text: str) -> str:
    """``text`` with its tokens split by tabs and runs of spaces, two
    (row, value) pairs on a COLUMNS line where two entries of one column
    follow each other and on an RHS line where two RHS lines do, and a
    comment line and a blank line after every line."""
    lines, section = [], None  # (header?, tokens) of each line
    for line in text.splitlines():
        tokens = line.split()
        prev = lines[-1] if lines else (True, [])
        if not line[0].isspace():
            section = tokens[0]
            lines.append((True, tokens))
        elif (section in ("COLUMNS", "RHS") and not prev[0]
              and len(prev[1]) == len(tokens) == 3
              and prev[1][0] == tokens[0]
              and "'MARKER'" not in (prev[1][1], tokens[1])):
            prev[1].extend(tokens[1:])
        else:
            lines.append((False, tokens))
    return "".join(("" if header else "\t  ") + " \t  ".join(tokens)
                   + "\n* a comment\n\n" for header, tokens in lines)


class TestColumnSlices:
    """write_mps makes every section, COLUMNS included, in slices of
    ``milp._SLICE`` lines; its bytes do not depend on the slice size."""

    SIZES = (1, 2, 3)
    SECTIONS = ("ROWS", "COLUMNS", "RHS", "BOUNDS")

    def sections(self, m, size):
        """Each section's lines and slices, written with slices of ``size``
        lines. The whole text must match the default's, and each section
        must come as ceil(lines / size) slices of ``size`` lines (the last
        of those left)."""
        text = write_mps(m)
        made, lines_of = [], milp._lines

        def recorded(*args, **kwargs):
            made.append(lines_of(*args, **kwargs))
            return made[-1]

        with mock.patch.object(milp, "_SLICE", size), \
                mock.patch.object(milp, "_lines", recorded):
            assert write_mps(m) == text
        lines = text.splitlines()
        heads = [lines.index(head) for head in (*self.SECTIONS, "ENDATA")]
        heads[0] += 1  # the N row is not one of the ROWS section's lines
        out = {}
        for name, a, b, slices in zip(self.SECTIONS, heads, heads[1:], made):
            body = lines[a + 1:b]
            assert len(slices) == -(-len(body) // size)
            assert slices == ["".join(line + "\n" for line in body[i:i + size])
                              for i in range(0, len(body), size)]
            out[name] = body, slices
        return out

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(m=models(), size=st.sampled_from(SIZES))
    def test_bytes_do_not_depend_on_the_slice_size(self, m, size):
        self.sections(m, size)

    @pytest.mark.parametrize("size", SIZES)
    def test_a_model_without_rows(self, size):
        m = Model("m")
        m.add_variables(["a", "b", "x", "c"], [0.0, 0.0, -1.0, 0.0],
                        [1.0, 1.0, 5.0, 1.0],
                        ["binary", "binary", "continuous", "binary"],
                        [0.0, 2.0, -1.5, 0.0])
        sections = self.sections(m, size)
        assert sections["ROWS"] == sections["RHS"] == ([], [])
        assert sections["COLUMNS"][0] == [
            "    MARKER 'MARKER' 'INTORG'", "    a COST 0", "    b COST 2",
            "    MARKER 'MARKER' 'INTEND'", "    x COST -1.5",
            "    MARKER 'MARKER' 'INTORG'", "    c COST 0",
            "    MARKER 'MARKER' 'INTEND'"]

    @pytest.mark.parametrize("size", SIZES)
    def test_columns_without_entries(self, size):
        m = Model("m")
        m.add_variables([f"x{j}" for j in range(6)], [0.0] * 6, [1.0] * 6,
                        ["continuous"] * 6, [0.0] * 4 + [5.0, 0.0])
        m.add_constraint("r0", {1: 1.0, 4: 2.0}, "<=", 1.0)
        m.add_constraint("r1", {1: 3.0, 4: 4.0}, ">=", 0.0)
        lines, _ = self.sections(m, size)["COLUMNS"]
        assert lines == ["    x0 COST 0", "    x1 r0 1", "    x1 r1 3",
                         "    x2 COST 0", "    x3 COST 0", "    x4 COST 5",
                         "    x4 r0 2", "    x4 r1 4", "    x5 COST 0"]

    @pytest.mark.parametrize("size", SIZES)
    def test_a_binary_run_that_ends_on_the_last_column(self, size):
        m = Model("m")
        m.add_variables(["x", "b0", "b1"], [0.0] * 3, [9.0, 1.0, 1.0],
                        ["continuous", "binary", "binary"], [0.0, 1.0, 0.0])
        m.add_constraint("r0", {0: 1.0, 1: 1.0, 2: 1.0}, "<=", 1.0)
        m.add_constraint("r1", {2: -1.0}, "<=", 0.0)
        lines, slices = self.sections(m, size)["COLUMNS"]
        assert lines == ["    x r0 1", "    MARKER 'MARKER' 'INTORG'",
                         "    b0 COST 1", "    b0 r0 1", "    b1 r0 1",
                         "    b1 r1 -1", "    MARKER 'MARKER' 'INTEND'"]
        # the closing marker, keyed after the last column, ends the last
        # slice
        assert slices[-1].endswith("    MARKER 'MARKER' 'INTEND'\n")

    @pytest.mark.parametrize("size", SIZES)
    def test_objective_entries_at_a_slice_first_entry(self, size):
        # six columns of one entry each: with slices of 1 or 3 lines some
        # slice after the first opens with a column's objective entry, and
        # some with an entry
        m = Model("m")
        m.add_variables([f"x{j}" for j in range(6)], [0.0] * 6, [1.0] * 6,
                        ["continuous"] * 6, [0.5] * 6)
        m.add_rows(["r"], ["<="], [1.0], [0, 6], range(6), [1.0] * 6)
        lines, slices = self.sections(m, size)["COLUMNS"]
        assert lines == [line for j in range(6) for line in
                         (f"    x{j} COST 0.5", f"    x{j} r 1")]
        assert [piece.splitlines()[0] for piece in slices] == lines[::size]

    @pytest.mark.parametrize("size", SIZES)
    def test_bounds_and_rhs_lines(self, size):
        # a variable's UP line follows its other line, whichever slice
        # either falls in; a line with no value ends at its name
        m = Model("m")
        m.add_variables(["f", "y", "z", "b", "k", "u", "w"],
                        [-INF, -INF, 2.0, 0.0, 7.0, 0.0, -1.0],
                        [INF, 4.0, 3.0, 1.0, 7.0, 5.0, INF],
                        ["continuous"] * 3 + ["binary"] + ["continuous"] * 3)
        m.add_rows(["c0", "c1", "c2"], ["<=", "=", ">="], [2.0, 0.0, -0.5],
                   [0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0])
        sections = self.sections(m, size)
        assert sections["ROWS"][0] == [" L c0", " E c1", " G c2"]
        assert sections["RHS"][0] == ["    RHS c0 2", "    RHS c2 -0.5"]
        assert sections["BOUNDS"][0] == [
            " FR BND f", " MI BND y", " UP BND y 4", " LO BND z 2",
            " UP BND z 3", " BV BND b", " FX BND k 7", " UP BND u 5",
            " LO BND w -1"]


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
    "rhs_inf": (_mps(rhs="    RHS c1 inf"),
                "line 8: right-hand side must be finite, got 'inf'"),
    "rhs_minus_inf": (_mps(rows=" L c1\n G c2", rhs="    RHS c1 1 c2 -inf"),
                      "line 9: right-hand side must be finite, got '-inf'"),
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
    "lower_bound_inf": (_mps(bounds=" LO BND x inf"),
                        "line 6: variable 'x': a lower bound of +inf or an "
                        "upper bound of -inf admits no value, got [inf, inf]"),
    "upper_bound_minus_inf": (_mps(bounds=" UP BND x -inf"),
                              "line 6: variable 'x': a lower bound of +inf or "
                              "an upper bound of -inf admits no value, got "
                              "[0.0, -inf]"),
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


# case -> (MPS text, the number of its faulty line, the message's rest);
# the faulty line has its section's common shape: a column's second entry
# in a constraint row, its value seen before, or a new constraint row
SHAPE_ERRORS = {
    "unknown_row": (_mps(columns="    x c1 1\n    x c2 1"), 7,
                    "unknown row 'c2'"),
    "not_a_number": (_mps(columns="    x c1 1\n    x c1 one"), 7,
                     "not a number: 'one'"),
    "nan": (_mps(columns="    x c1 1\n    x c1 nan"), 7,
            "coefficient must be finite, got 'nan'"),
    "overflow": (_mps(columns="    x c1 1\n    x c1 -1e999"), 7,
                 "coefficient must be finite, got '-1e999'"),
    "objective_twice": (_mps(columns="    x COST 1\n    x COST 1"), 7,
                        "duplicate objective entry for a column"),
    "columns_before_n": ("NAME d\nROWS\n L c1\nCOLUMNS\n    x c1 1\nENDATA\n",
                         5, "COLUMNS before an N row was declared"),
    "duplicate_row": (_mps(rows=" L c1\n G c1"), 5,
                      "duplicate row name 'c1'"),
    "row_type": (_mps(rows=" L c1\n X c2"), 5, "unknown row type 'X'"),
    "rhs_row": (_mps(rhs="    RHS c1 1\n    RHS c2 1"), 9, "unknown row 'c2'"),
    "rhs_twice": (_mps(rhs="    RHS c1 1\n    RHS c1 1"), 9,
                  "duplicate RHS entry for row 'c1'"),
}


class TestMpsErrors:
    @pytest.mark.parametrize("case", MPS_ERRORS)
    def test_message_and_line(self, case):
        text, message = MPS_ERRORS[case]
        with pytest.raises(MpsParseError) as info:
            read_mps(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("shape", ["common", "general"])
    @pytest.mark.parametrize("case", SHAPE_ERRORS)
    def test_a_faulty_line_fails_alike_in_either_shape(self, case, shape):
        """The general shape of the faulty line is its tokens led and
        split by tabs, which the common line's path never takes."""
        text, lineno, message = SHAPE_ERRORS[case]
        if shape == "general":
            lines = text.split("\n")
            lines[lineno - 1] = "\t" + "\t".join(lines[lineno - 1].split())
            text = "\n".join(lines)
        with pytest.raises(MpsParseError) as info:
            read_mps(text)
        assert str(info.value) == f"line {lineno}: {message}"

    def test_zero_entries_do_not_count_as_repeats(self):
        m = read_mps(_mps(columns="    x c1 0\n    x c1 2"))
        assert rows(m) == [("c1", [0], [2.0], "<=", 0.0)]

    def test_infinite_bounds_are_accepted(self):
        m = read_mps(_mps(bounds=" LO BND x -inf\n UP BND x inf"))
        assert (m.lb[0], m.ub[0]) == (-INF, INF)

    @pytest.mark.parametrize("bounds, ub", [
        (" PL BND x", INF),
        (" UP BND x 4\n PL BND x", INF),
        (" PL BND x\n UP BND x 4", 4.0),
    ])
    def test_a_pl_bound_lifts_the_upper_bound(self, bounds, ub):
        # PL and UP are bound types of their own, so each may come once
        m = read_mps(_mps(bounds=bounds))
        assert (m.lb[0], m.ub[0]) == (0.0, ub)

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
        assert m.n_constraints == 0 and list(m.ids) == []

    def test_infinite_rhs_is_rejected(self):
        m = self.model()
        with pytest.raises(ModelError) as info:
            m.add_constraint("c", {0: 1.0}, "<=", INF)
        assert str(info.value) == ("constraint 'c': right-hand side must be "
                                   "finite, got inf")
        with pytest.raises(ModelError) as bulk:
            m.add_rows(["c", "d"], ["<=", ">="], [1.0, -INF], [0, 1, 2],
                       [0, 1], [1.0, 2.0])
        assert (str(bulk.value), bulk.value.row) == (
            "constraint 'd': right-hand side must be finite, got -inf", 1)
        assert m.n_constraints == 0 and list(m.ids) == []

    def test_variable_rejects_nan_bounds_only(self):
        m = self.model()
        with pytest.raises(ModelError, match=r"^variable 'z': bound is NaN"):
            m.add_variable("z", math.nan, 1.0)
        with pytest.raises(ModelError, match=r"^variable 'z': bound is NaN"):
            m.add_variable("z", 0.0, math.nan)
        m.add_variable("z", -INF, INF)
        assert m.n_variables == 3

    @pytest.mark.parametrize("lb, ub", [(INF, INF), (-INF, -INF), (0.0, -INF)])
    def test_variable_rejects_bounds_that_admit_no_value(self, lb, ub):
        m = self.model()
        with pytest.raises(ModelError) as info:
            m.add_variable("z", lb, ub)
        assert str(info.value) == (
            "variable 'z': a lower bound of +inf or an upper bound of -inf "
            f"admits no value, got [{lb}, {ub}]")
        assert m.n_variables == 2

    @pytest.mark.parametrize("value", [None, "abc", [1.0]])
    def test_a_value_that_is_not_a_number_names_its_row_or_variable(self,
                                                                    value):
        m = self.model()
        m.add_constraint("c", {0: "1.5"}, "<=", "2")  # numeric strings
        before = rows(m), list(m.starts)
        with pytest.raises(ModelError) as info:
            m.add_constraint("d", {0: 1.0}, ">=", value)
        assert str(info.value) == ("constraint 'd': right-hand side must be "
                                   f"a number, got {value!r}")
        with pytest.raises(ModelError) as bulk:
            m.add_rows(["d", "e"], [">=", ">="], [0.0, value], [0, 1, 2],
                       [0, 1], [1.0, 1.0])
        assert (str(bulk.value), bulk.value.row) == (
            str(info.value).replace("'d'", "'e'"), 1)
        with pytest.raises(ModelError) as info:
            m.add_variable("z", 0.0, 1.0, cost=value)
        assert str(info.value) == ("variable 'z': cost must be a number, "
                                   f"got {value!r}")
        with pytest.raises(ModelError) as bulk:
            m.add_variables(["z", "w"], [0.0] * 2, [1.0] * 2,
                            ["continuous"] * 2, [1.0, value])
        assert (str(bulk.value), bulk.value.column) == (
            str(info.value).replace("'z'", "'w'"), 1)
        assert (rows(m), list(m.starts)) == before
        assert rows(m) == [("c", [0], [1.5], "<=", 2.0)]
        assert m.n_variables == 2 and objective_terms(m) == {}
        m.add_variable("z", 0.0, 1.0, cost="2.5")  # a numeric string
        assert objective_terms(m) == {2: 2.5}

    @pytest.mark.parametrize("value", [math.nan, INF, -INF])
    def test_objective_rejects_non_finite_coefficients(self, value):
        """An objective coefficient enters as its column's cost, in
        either form."""
        m = self.model()
        with pytest.raises(ModelError) as info:
            m.add_variable("z", 0.0, 1.0, cost=value)
        assert str(info.value) == ("variable 'z': cost must be finite, "
                                   f"got {value}")
        with pytest.raises(ModelError) as bulk:
            m.add_variables(["z", "w"], [0.0] * 2, [1.0] * 2,
                            ["continuous"] * 2, [2.0, value])
        assert (str(bulk.value), bulk.value.column) == (
            str(info.value).replace("'z'", "'w'"), 1)
        assert m.n_variables == 2 and objective_terms(m) == {}


class TestColumnStore:
    def test_columns_live_in_typed_arrays(self):
        m = small_model()
        assert m.var_names == ["v_1_1", "p_1_1", "f_1"]
        assert (m.lb, m.ub) == (array("d", [0.0, 0.0, -INF]),
                                array("d", [1.0, 500.0, INF]))
        assert m.kinds == bytearray([1, 0, 0])
        assert m.objective == array("d", [5.0, 0.5, 0.0])
        assert m.variable(1) == Variable("p_1_1", 0.0, 500.0, "continuous")
        assert model_stats(m).n_binary == 1

    def test_names_are_looked_up_after_a_block(self):
        m = Model("m")
        m.add_variables(["a", "b"], [0.0, 0.0], [1.0, 1.0],
                        ["binary", "continuous"])
        assert m._var_ids is None  # no lookup yet
        assert m.var_id("b") == 1
        m.add_variables(["c"], [0.0], [2.0], ["continuous"])
        assert m.add_variable("d", 0.0, 1.0) == 3
        assert [m.var_id(name) for name in "abcd"] == [0, 1, 2, 3]
        for name in "ac":
            with pytest.raises(ModelError, match="duplicate variable name"):
                m.add_variable(name, 0.0, 1.0)
            with pytest.raises(ModelError, match="duplicate variable name"):
                m.add_variables([name], [0.0], [1.0], ["continuous"])
        assert m.objective == array("d", [0.0] * 4)
        with pytest.raises(ModelError) as info:
            m.var_id("e")
        assert str(info.value) == "unknown variable 'e'"

    @pytest.mark.parametrize("j", [-1, 3, 10])
    def test_an_id_outside_the_columns_is_unknown(self, j):
        m = small_model()
        with pytest.raises(ModelError) as info:
            m.variable(j)
        assert str(info.value) == f"unknown variable id {j}"
        assert m.variable(2).name == "f_1"

    def test_a_cost_enters_with_its_column(self):
        m = Model("m")
        assert m.add_variable("x", 0.0, 1.0, cost=-0.0) == 0
        m.add_variable("y", 0.0, 1.0, "binary", "2.5")  # as float reads it
        m.add_variables(["z", "w"], [0.0] * 2, [1.0] * 2, ["continuous"] * 2,
                        np.array([-0.0, 3]))
        assert m.objective == array("d", [0.0, 2.5, 0.0, 3.0])
        assert [math.copysign(1.0, c) for c in m.objective] == [1.0] * 4
        for cost, message in ((math.nan, "must be finite, got nan"),
                              (-INF, "must be finite, got -inf"),
                              ("abc", "must be a number, got 'abc'"),
                              (None, "must be a number, got None")):
            with pytest.raises(ModelError) as info:
                m.add_variable("v", 0.0, 1.0, cost=cost)
            assert str(info.value) == f"variable 'v': cost {message}"
        assert m.n_variables == 4 and len(m.objective) == 4


class TestObjectiveArrays:
    """A dense objective given as the costs of a block of columns sets
    what add_variable's costs set one by one."""

    def model(self, costs=None):
        m = Model("m")
        m.add_variables(["x", "y", "z"], [0.0] * 3, [1.0] * 3,
                        ["continuous"] * 3, costs)
        return m

    @pytest.mark.parametrize("ids, coeffs", [
        ([], []),
        ([2, 0], [1.5, -2.0]),
        (np.array([1, 2]), np.array([3.0, 0.0])),
        (array("q", [0, 1, 2]), array("d", [1.0, -0.0, 2.0])),
        ([1, 1], [3.0, 4.0]),  # the last coefficient stays
        ([True, 2], ["2.5", 1]),  # left to the one-by-one checks
        ([True, False], [1.0, 2.0]),
    ])
    def test_arrays_set_what_the_pairs_set(self, ids, coeffs):
        dense = [0.0] * 3
        for i, c in zip(ids, coeffs):
            dense[i] = c
        by_pairs = Model("m")  # each variable with its cost, one by one
        for name, cost in zip("xyz", dense):
            by_pairs.add_variable(name, 0.0, 1.0, cost=cost)
        if isinstance(coeffs, np.ndarray):  # in the same container
            dense = np.array(dense)
        elif isinstance(coeffs, array):
            dense = array("d", dense)
        by_arrays = self.model(dense)
        assert by_arrays.objective == by_pairs.objective
        assert by_arrays == by_pairs
        assert all(math.copysign(1.0, c) == 1.0
                   for c in by_arrays.objective if c == 0.0)

    def test_lengths_must_agree(self):
        with pytest.raises(ModelError, match="3 names need 3 lower bounds, "
                                             "3 upper bounds, 3 kinds and "
                                             "3 costs"):
            self.model([1.0, 2.0])


def _base_model() -> Model:
    m = Model("m")
    for j in range(4):
        m.add_variable(f"x{j}", 0.0, 10.0)
    m.add_constraint("old", {0: 1.0}, "<=", 1.0)
    return m


def _snapshot(m: Model):
    return (rows(m), list(m.starts),
            None if m._con_names is None else set(m._con_names))


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

    def add_block(self, block, form="lists"):
        m = _base_model()
        names = [b[0] for b in block]
        starts = [0]
        for b in block:
            starts.append(starts[-1] + len(b[1]))
        ids = [i for b in block for i in b[1]]
        coeffs = [c for b in block for c in b[2]]
        if form == "arrays":  # a value that is not a float as an object
            ids = np.array(ids, dtype=np.int64)
            coeffs = np.array(coeffs, dtype=float if all(
                type(c) is float for c in coeffs) else object)
        elif form == "typed":  # as a model stores them
            starts, ids, coeffs = (array("q", starts), array("q", ids),
                                   array("d", coeffs))
        try:
            out = m.add_rows(names, [b[3] for b in block],
                             [b[4] for b in block], starts, ids, coeffs)
        except ModelError as e:
            return m, (e.row, str(e))
        assert out == range(1, 1 + len(block))
        return m, None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(block=blocks(), form=st.sampled_from(["lists", "arrays", "typed"]))
    def test_matches_add_constraint_row_by_row(self, block, form):
        # every form takes the same check: the builders pass lists,
        # read_mps numpy arrays and fix_variables a model's typed arrays
        self.check_against_add_constraint(block, form)

    @pytest.mark.parametrize("form", ["lists", "arrays"])
    @pytest.mark.parametrize("ids, coeffs", [
        ([0, 2], [1.0, 0.0]), ([], []), ([2, 0], [1.0, 2.0]),
        ([-1, 2], [1.0, 1.0]), ([0, 4], [1.0, 1.0]), ([1, 1], [1.0, 2.0]),
        ([0, 2], [1.0, math.nan]), ([0, 2], [-INF, 1.0]),
        ([0, 2], [1.0, None]), ([0, 2], ["abc", 1.0]),
    ], ids=["zero", "empty", "unsorted", "below", "above", "repeat", "nan",
            "inf", "none", "text"])
    def test_each_check_of_the_terms_matches_add_constraint(self, ids,
                                                            coeffs, form):
        """Most drawn blocks fail a name, a sense or a right-hand side
        before the block checks reach the terms; here only the middle
        row's terms may fail."""
        self.check_against_add_constraint(
            [("r0", [0, 1], [1.0, 2.0], "<=", 1.0),
             ("r1", ids, coeffs, ">=", 0.0),
             ("r2", [2, 3], [0.0, 1.0], "=", 0.0)], form)

    def check_against_add_constraint(self, block, form):
        one, failure = self.add_one_by_one(block)
        bulk, bulk_failure = self.add_block(block, form)
        assert bulk_failure == failure
        if failure is None:
            assert bulk == one
            assert (bulk.ids.typecode, bulk.starts.typecode,
                    bulk.coeffs.typecode) == ("q", "q", "d")
            assert all(type(x) is float for x in bulk.rhs)
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
        for starts in ([0, 2], [1, 1], [0, 2, 1], [0, 1.5, 3], ["0", "1", "3"],
                       [0, 2 ** 70, 3]):
            with pytest.raises(ModelError, match="add_rows: 2 names need"):
                m.add_rows(["a", "b"], ["<=", "<="], [0.0, 0.0], starts,
                           [0, 1, 2], [1.0, 1.0, 1.0])
        assert m.n_constraints == 1

    def test_frozen_model_rejects_rows(self):
        m = _base_model().freeze()
        with pytest.raises(ModelError, match="frozen"):
            m.add_rows([], [], [], [0], [], [])

    def test_a_strided_block_appends_as_its_lists(self):
        # numpy views that step over their buffer, so that their bytes
        # must be gathered before they enter the typed arrays
        ids, coeffs = np.arange(8)[::2], np.arange(1.0, 17.0)[::4]
        starts = np.arange(6)[::2]
        arrays, lists = Model("m"), Model("m")
        for m, block in ((arrays, (starts, ids, coeffs)),
                         (lists, (starts.tolist(), ids.tolist(),
                                  coeffs.tolist()))):
            m.add_variables([f"x{j}" for j in range(8)], [0.0] * 8,
                            [1.0] * 8, ["continuous"] * 8)
            m.add_rows(["a", "b"], ["<=", ">="], [1.0, 2.0], *block)
        assert arrays == lists
        assert (arrays.starts, arrays.ids, arrays.coeffs) == (
            array("q", [0, 2, 4]), array("q", [0, 2, 4, 6]),
            array("d", [1.0, 5.0, 9.0, 13.0]))


class TestRowNameIndex:
    """The row names' set is built only when a row is checked on its own,
    and duplicate names fail alike with or without it."""

    def test_built_and_read_models_carry_no_row_index(self):
        model, _ = build_model(generate_instance(1, 2, 3),
                               FormulationChoice("extended", "three_bin"))
        back = read_mps(write_mps(model))
        assert model._con_names is None and back._con_names is None
        assert fix_variables(model, {})._con_names is None

    @pytest.mark.parametrize("first", ["block", "row"])
    @pytest.mark.parametrize("second", ["block", "row"])
    def test_a_duplicate_name_fails_alike(self, first, second):
        m = Model("m")
        m.add_variables(["x"], [0.0], [1.0], ["continuous"])

        def add(how, names):
            if how == "row":
                for name in names:
                    m.add_constraint(name, {0: 1.0}, "<=", 1.0)
            else:
                m.add_rows(names, ["<="] * len(names), [1.0] * len(names),
                           range(len(names) + 1), [0] * len(names),
                           [1.0] * len(names))

        add(first, ["a", "b"])
        assert (m._con_names is None) == (first == "block")
        with pytest.raises(ModelError) as info:
            add(second, ["c", "b"])
        assert str(info.value) == "duplicate constraint name 'b'"
        assert info.value.row == (1 if second == "block" else None)
        assert m.row_names == ["a", "b"] + ["c"] * (second == "row")
        # once built, the set follows the rows that blocks add
        add("block", ["d"])
        with pytest.raises(ModelError, match="duplicate constraint name 'd'"):
            add("row", ["d"])
        assert m._con_names == set(m.row_names)


@st.composite
def variable_blocks(draw):
    """Variable blocks that may break any check of add_variable."""
    bounds = st.sampled_from([0, 1, 0.0, 1.0, -2.5, 3, -INF, INF, math.nan])
    # finite costs, numeric strings, -0.0, then costs no variable may have
    costs = st.sampled_from([0.0, 1.5, -2.0, 7, 1e300, "2.5", "-0", -0.0,
                             math.nan, INF, -INF, None, "abc", [1.0]])
    return [(draw(st.sampled_from([f"v{j}", f"v{j}", "v0", "x0", "COST",
                                   "1bad"])),
             draw(bounds), draw(bounds),
             draw(st.sampled_from(["continuous", "continuous", "binary",
                                   "binary", "integer"])),
             draw(costs))
            for j in range(draw(st.integers(0, 6)))]


def _var_snapshot(m: Model):
    return (list(m.var_names), m.lb.tolist(), m.ub.tolist(), bytes(m.kinds),
            m.objective.tolist(), dict(m._name_index()))


class TestAddVariables:
    def add_one_by_one(self, block):
        """add_variable on each item; the first failure as (index,
        message)."""
        m = _base_model()
        for j, (name, lb, ub, kind, cost) in enumerate(block):
            try:
                m.add_variable(name, lb, ub, kind, cost)
            except ModelError as e:
                return m, (j, str(e))
        return m, None

    @staticmethod
    def columns(block, as_arrays=False):
        names, lbs, ubs, kinds, costs = (list(col) for col in zip(*block)) \
            if block else ([], [], [], [], [])
        if as_arrays:
            lbs, ubs = np.array(lbs, dtype=float), np.array(ubs, dtype=float)
            if all(isinstance(c, (int, float)) for c in costs):
                costs = np.array(costs, dtype=float)
        return names, lbs, ubs, kinds, costs

    def add_block(self, block, as_arrays=False):
        m = _base_model()
        try:
            out = m.add_variables(*self.columns(block, as_arrays))
        except ModelError as e:
            return m, (e.column, str(e))
        assert out == range(4, 4 + len(block))
        return m, None

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(block=variable_blocks(), as_arrays=st.booleans())
    def test_matches_add_variable_one_by_one(self, block, as_arrays):
        """On both paths: the numpy check accepts exactly the blocks whose
        variables all pass add_variable, and the variable-by-variable
        checks, run alone, store and reject as the numpy check does."""
        if as_arrays:  # the bounds numpy holds, for both paths
            block = [(n, float(lb), float(ub), k, c)
                     for n, lb, ub, k, c in block]
        one, failure = self.add_one_by_one(block)
        bulk, bulk_failure = self.add_block(block, as_arrays)
        assert bulk_failure == failure
        accepted = _base_model()._valid_columns(
            *self.columns(block, as_arrays))
        assert (accepted is not None) == (failure is None)
        with mock.patch.object(Model, "_valid_columns", return_value=None):
            fallback, fallback_failure = self.add_block(block, as_arrays)
        assert fallback_failure == failure
        assert _var_snapshot(fallback) == _var_snapshot(bulk)
        if failure is None:
            assert bulk == one == fallback
            assert [bulk.var_id(name) for name in bulk.var_names] \
                == [one.var_id(name) for name in one.var_names] \
                == list(range(bulk.n_variables))
            assert (bulk.lb.typecode, bulk.ub.typecode) == ("d", "d")
        else:  # nothing of the block entered the model
            assert _var_snapshot(bulk) == _var_snapshot(_base_model())

    @pytest.mark.parametrize("item, message", [
        (("9z", 0.0, 1.0, "continuous", 0.0), "invalid variable name '9z'"),
        (("x1", 0.0, 1.0, "continuous", 0.0), "duplicate variable name 'x1'"),
        (("a", 0.0, 1.0, "continuous", 0.0), "duplicate variable name 'a'"),
        (("z", math.nan, 1.0, "continuous", 0.0),
         "variable 'z': bound is NaN"),
        (("z", 2.0, 1.0, "continuous", 0.0),
         "variable 'z': inverted bounds [2.0, 1.0]"),
        (("z", 0.0, 2.0, "binary", 0.0),
         "binary variable 'z' must have bounds [0, 1]"),
        (("z", 0.0, 1.0, "integer", 0.0), "unknown variable kind 'integer'"),
        (("z", "a", 1.0, "continuous", 0.0),
         "variable 'z': bounds must be numbers, got ['a', 1.0]"),
        (("z", 0.0, None, "binary", 0.0),
         "variable 'z': bounds must be numbers, got [0.0, None]"),
        (("z", INF, INF, "continuous", 0.0),
         "variable 'z': a lower bound of +inf or an upper bound of -inf"),
        (("z", -INF, -INF, "continuous", 0.0),
         "variable 'z': a lower bound of +inf or an upper bound of -inf"),
        (("z", 0.0, 0.5, "binary", 0.0),
         "binary variable 'z' must have bounds [0, 1]"),
        (("z", 0.0, 1.0, "continuous", math.nan),
         "variable 'z': cost must be finite, got nan"),
        (("z", 0.0, 1.0, "binary", INF),
         "variable 'z': cost must be finite, got inf"),
        (("z", 0.0, 1.0, "continuous", "abc"),
         "variable 'z': cost must be a number, got 'abc'"),
        (("z", 0.0, 1.0, "continuous", [1.0]),
         "variable 'z': cost must be a number, got [1.0]"),
        (("z", 2.0, 1.0, "continuous", None),
         "variable 'z': inverted bounds [2.0, 1.0]"),  # bounds come first
    ])
    def test_first_failing_variable_raises_with_its_index(self, item,
                                                          message):
        m = _base_model()
        before = _var_snapshot(m)
        block = [("a", 0.0, 1.0, "binary", 1.0),
                 ("b", -INF, INF, "continuous", -0.0), item,
                 ("c", 0.0, math.nan, "continuous", math.nan)]
        with pytest.raises(ModelError) as info:
            m.add_variables(*self.columns(block))
        assert str(info.value).startswith(message)
        assert (info.value.column, str(info.value)) == \
            self.add_one_by_one(block)[1]
        assert _var_snapshot(m) == before
        # the numpy check refuses the block up to the failing variable,
        # and the variable checks alone name the same variable
        assert m._valid_columns(*self.columns(block[:3])) is None
        with mock.patch.object(Model, "_valid_columns", return_value=None):
            with pytest.raises(ModelError) as alone:
                m.add_variables(*self.columns(block))
        assert (alone.value.column, str(alone.value)) == \
            (info.value.column, str(info.value))
        assert _var_snapshot(m) == before

    def test_a_bound_numpy_cannot_read_fails_as_in_add_variable(self):
        m = _base_model()
        with pytest.raises(ModelError) as one:
            m.add_variable("z", "a", 1.0)
        assert str(one.value) == ("variable 'z': bounds must be numbers, "
                                  "got ['a', 1.0]")
        with pytest.raises(ModelError) as bulk:
            m.add_variables(["y", "z"], [0.0, "a"], [1.0, 1.0],
                            ["continuous"] * 2)
        assert (str(bulk.value), bulk.value.column) == (str(one.value), 1)
        assert _var_snapshot(m) == _var_snapshot(_base_model())
        # numeric strings convert as float converts them, and compare as
        # numbers: "10" is above "5"
        m.add_variable("z", "0", 1.0)
        m.add_variables(["y", "w"], ["5", 0.0], ["10", "1"],
                        ["continuous", "binary"])
        assert list(zip(m.lb, m.ub))[4:] == [
            (0.0, 1.0), (5.0, 10.0), (0.0, 1.0)]
        with pytest.raises(ModelError, match=r"inverted bounds \[10.0, 5.0\]"):
            m.add_variables(["u"], ["10"], ["5"], ["continuous"])

    def test_a_strided_block_appends_as_its_lists(self):
        lbs, ubs = np.arange(8.0)[::2], np.arange(4.0, 20.0)[::4]
        arrays, lists = _base_model(), _base_model()
        names, kinds = ["a", "b", "c", "d"], ["continuous"] * 4
        arrays.add_variables(names, lbs, ubs, kinds)
        lists.add_variables(names, lbs.tolist(), ubs.tolist(), kinds)
        assert _var_snapshot(arrays) == _var_snapshot(lists)
        assert (arrays.lb[4:], arrays.ub[4:]) == (
            array("d", [0.0, 2.0, 4.0, 6.0]),
            array("d", [4.0, 8.0, 12.0, 16.0]))

    def test_malformed_block_and_frozen_model_rejected(self):
        m = _base_model()
        with pytest.raises(ModelError, match="add_variables: 2 names need"):
            m.add_variables(["a", "b"], [0.0], [1.0, 1.0], ["binary"] * 2)
        with pytest.raises(ModelError, match="frozen"):
            m.freeze().add_variables([], [], [], [])
        assert m.n_variables == 4
