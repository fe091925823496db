"""Tests for the Model container and its lowering to standard form."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.milp.constraint import ConstraintSense
from repro.milp.expression import VarType
from repro.milp.model import Model, ObjectiveSense
from repro.milp.standard_form import to_standard_form


def build_toy_model() -> Model:
    model = Model("toy", sense=ObjectiveSense.MAXIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    z = model.add_continuous("z", 0.0, 4.0)
    model.add_constr(x + y <= 1, name="choose_one")
    model.add_constr(z >= 2 * y, name="link")
    model.set_objective(3 * x + 2 * y + z)
    return model


def build_toy_model_by_rows() -> Model:
    """``build_toy_model`` with its rows added as column indices."""
    model = Model("toy", sense=ObjectiveSense.MAXIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    z = model.add_continuous("z", 0.0, 4.0)
    model.add_row([x.index, y.index], [1.0, 1.0], ConstraintSense.LE, 1.0)
    model.add_row([z.index, y.index], [1.0, -2.0], ConstraintSense.GE, 0.0)
    model.set_objective(3 * x + 2 * y + z)
    return model


class TestModel:
    def test_duplicate_variable_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_get_var_and_has_var(self):
        model = Model()
        x = model.add_var("x")
        assert model.get_var("x") is x
        assert model.has_var("x")
        assert not model.has_var("y")
        with pytest.raises(ModelError):
            model.get_var("missing")

    def test_counts(self):
        model = build_toy_model()
        assert model.num_variables == 3
        assert model.num_integer_variables == 2
        assert model.num_constraints == 2

    def test_foreign_variable_rejected_in_constraint(self):
        model_a = Model("a")
        model_b = Model("b")
        x = model_a.add_var("x")
        with pytest.raises(ModelError):
            model_b.add_constr(x <= 1)

    def test_foreign_variable_rejected_in_objective(self):
        model_a = Model("a")
        model_b = Model("b")
        x = model_a.add_var("x")
        model_b.add_var("x")
        with pytest.raises(ModelError):
            model_b.set_objective(2 * x)

    def test_add_constr_requires_constraint(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_constr("not-a-constraint")  # type: ignore[arg-type]

    def test_fix_var_respects_bounds(self):
        model = Model()
        x = model.add_binary("x")
        model.fix_var(x, 1)
        assert model.effective_bounds(x) == (1.0, 1.0)
        with pytest.raises(ModelError):
            model.fix_var(x, 2)

    def test_fix_integer_to_fraction_rejected(self):
        model = Model()
        x = model.add_var("x", VarType.INTEGER, 0, 10)
        with pytest.raises(ModelError):
            model.fix_var(x, 0.5)

    def test_objective_value_and_feasibility(self):
        model = build_toy_model()
        x, y, z = model.get_var("x"), model.get_var("y"), model.get_var("z")
        good = {x: 1.0, y: 0.0, z: 0.0}
        assert model.is_feasible(good)
        assert model.objective_value(good) == pytest.approx(3.0)
        bad = {x: 1.0, y: 1.0, z: 2.0}
        assert not model.is_feasible(bad)

    def test_is_feasible_checks_integrality(self):
        model = build_toy_model()
        x, y, z = model.get_var("x"), model.get_var("y"), model.get_var("z")
        assert not model.is_feasible({x: 0.5, y: 0.0, z: 0.0})

    def test_summary_mentions_size(self):
        model = build_toy_model()
        text = model.summary()
        assert "3 vars" in text
        assert "2 constraints" in text


class TestAddRow:
    """``add_row`` is the expression-free way in to the same row storage."""

    @pytest.mark.parametrize(
        "columns, coefficients",
        [
            ([0, 3], [1.0, 1.0]),  # out of range (3 variables)
            ([-1], [1.0]),
            ([0, 0], [1.0, 2.0]),  # duplicate column
            ([0, 1], [1.0, math.inf]),
            ([0, 1], [math.nan, 1.0]),
            ([0, 1], [1.0]),  # length mismatch
        ],
    )
    def test_invalid_rows_rejected(self, columns, coefficients):
        model = build_toy_model()
        with pytest.raises(ModelError):
            model.add_row(columns, coefficients, ConstraintSense.LE, 1.0)
        assert model.num_constraints == 2

    def test_zero_coefficients_dropped(self):
        model = build_toy_model()
        model.add_row([0, 1, 2], [1.0, 0.0, -2.0], ConstraintSense.EQ, 0.0)
        form = to_standard_form(model)
        assert form.a_eq.indices.tolist() == [0, 2]
        assert form.a_eq.data.tolist() == [1.0, -2.0]

    def test_rows_and_constraints_lower_to_the_same_form(self):
        ours = to_standard_form(build_toy_model_by_rows())
        theirs = to_standard_form(build_toy_model())
        assert np.array_equal(ours.a_ub.toarray(), theirs.a_ub.toarray())
        assert np.array_equal(ours.b_ub, theirs.b_ub)
        assert np.array_equal(ours.c, theirs.c)
        # >= rows enter A_ub negated.
        assert ours.a_ub.toarray()[1].tolist() == [0.0, 2.0, -1.0]

    @pytest.mark.parametrize("edit", ["bound", "fix"])
    def test_bound_edit_after_rows_relowers(self, edit):
        model = build_toy_model()
        model.add_row([0, 2], [1.0, 1.0], ConstraintSense.EQ, 3.0)
        stale = to_standard_form(model)
        z = model.get_var("z")
        if edit == "bound":
            z.upper = 2.0
        else:
            model.fix_var(z, 2.0)
        fresh = to_standard_form(model)
        assert fresh is not stale
        assert fresh.upper[z.index] == pytest.approx(2.0)
        # The rows are re-lowered unchanged.
        assert np.array_equal(fresh.a_ub.toarray(), stale.a_ub.toarray())
        assert np.array_equal(fresh.a_eq.toarray(), stale.a_eq.toarray())
        assert fresh.b_eq.tolist() == [3.0]

    def test_is_feasible_agrees_between_add_row_and_add_constr(self):
        by_expr = build_toy_model()
        vx, vy, vz = (by_expr.get_var(name) for name in "xyz")
        by_expr.add_constr(vx + vz == 1 + vy)
        by_row = build_toy_model_by_rows()
        by_row.add_row([0, 2, 1], [1.0, 1.0, -1.0], ConstraintSense.EQ, 1.0)
        row_vars = [by_row.get_var(name) for name in "xyz"]
        verdicts = set()
        for values in itertools.product([0.0, 1.0], [0.0, 1.0], [0.0, 0.5, 1.0, 2.0, 4.0]):
            verdict = by_expr.is_feasible(dict(zip((vx, vy, vz), values)))
            assert by_row.is_feasible(dict(zip(row_vars, values))) == verdict, values
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestStandardForm:
    def test_maximise_is_negated(self):
        model = build_toy_model()
        form = to_standard_form(model)
        x_index = form.index_of(model.get_var("x"))
        assert form.c[x_index] == pytest.approx(-3.0)
        assert form.objective_sign == -1.0

    def test_constraint_rows(self):
        model = build_toy_model()
        form = to_standard_form(model)
        # choose_one (<=) and link (>= turned into <=) are both ub rows.
        assert form.a_ub.shape == (2, 3)
        assert form.a_eq.shape[0] == 0

    def test_eq_constraints_lowered_separately(self):
        model = Model()
        x = model.add_continuous("x", 0, 10)
        y = model.add_continuous("y", 0, 10)
        model.add_constr(x + y == 4)
        form = to_standard_form(model)
        assert form.a_eq.shape == (1, 2)
        assert form.b_eq[0] == pytest.approx(4.0)

    def test_bounds_and_integrality(self):
        model = build_toy_model()
        form = to_standard_form(model)
        z_index = form.index_of(model.get_var("z"))
        assert form.upper[z_index] == pytest.approx(4.0)
        assert form.integrality[z_index] == 0.0
        x_index = form.index_of(model.get_var("x"))
        assert form.integrality[x_index] == 1.0

    def test_fixed_variable_becomes_tight_bounds(self):
        model = build_toy_model()
        x = model.get_var("x")
        model.fix_var(x, 0)
        form = to_standard_form(model)
        idx = form.index_of(x)
        assert form.lower[idx] == form.upper[idx] == 0.0

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            to_standard_form(Model())

    def test_bound_mutation_invalidates_cached_form(self):
        # Regression: assigning Variable.upper/.lower after a solve used
        # to bypass Model.revision, silently serving the stale cached
        # StandardForm with the old bounds.
        model = build_toy_model()
        x = model.get_var("x")
        stale = to_standard_form(model)
        revision = model.revision
        x.upper = 0.0
        assert model.revision > revision
        fresh = to_standard_form(model)
        assert fresh is not stale
        assert fresh.upper[fresh.index_of(x)] == pytest.approx(0.0)

    def test_bound_mutation_noop_keeps_cache(self):
        model = build_toy_model()
        x = model.get_var("x")
        form = to_standard_form(model)
        x.upper = x.upper  # unchanged value: no structural edit
        assert to_standard_form(model) is form

    def test_empty_domain_assignment_rejected(self):
        model = build_toy_model()
        x = model.get_var("x")
        with pytest.raises(ModelError, match="empty domain"):
            x.lower = x.upper + 1.0

    def test_model_objective_round_trip(self):
        model = build_toy_model()
        form = to_standard_form(model)
        x = np.array([1.0, 0.0, 0.0])
        assert form.model_objective(x) == pytest.approx(3.0)
