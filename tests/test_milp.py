import pytest

from ucbench import (Model, ModelError, MpsParseError, fix_variables,
                     model_stats, read_mps, write_mps)

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
