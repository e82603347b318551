import math

import pytest

from ucbench import (Step, StepFunction, approximate_steps,
                     minimal_steps_oracle, startup_cost)

from conftest import make_unit

HOT_HALF = make_unit()  # V=100, F=10, heat_loss=ln 2


class TestStartupCost:
    """K(l) = V (1 - e^{-lambda l}) + F, evaluated at integer off-times."""

    def test_zero_off_time_costs_only_the_fixed_part(self):
        assert startup_cost(HOT_HALF, 0) == pytest.approx(10.0)

    def test_one_period_off(self):
        # e^{-ln 2} = 1/2, so 100 * (1 - 0.5) + 10
        assert startup_cost(HOT_HALF, 1) == pytest.approx(60.0)

    def test_three_periods_off(self):
        assert startup_cost(HOT_HALF, 3) == pytest.approx(97.5)

    def test_monotone_nondecreasing(self):
        vals = [startup_cost(HOT_HALF, l) for l in range(30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_off_time_rejected(self):
        with pytest.raises(ValueError):
            startup_cost(HOT_HALF, -1)


class TestStepFunction:
    """A step function's steps cover 1..domain_end in order, with values
    rising strictly; any other list is refused with its rule."""

    @pytest.mark.parametrize("steps, message", [
        # a gap between two steps, then a step that ends before it starts
        ([Step(1, 2, 5.0), Step(4, 5, 6.0)],
         "steps must partition the off-time range consecutively with "
         "lo <= hi"),
        ([Step(1, 0, 5.0)],
         "steps must partition the off-time range consecutively with "
         "lo <= hi"),
        ([Step(1, 2, 5.0), Step(3, 5, 5.0)],
         "step values must be strictly increasing"),
        ([Step(1, 2, 5.0), Step(3, 4, 6.0)], "steps end at 4, expected 5"),
    ])
    def test_a_broken_invariant_is_refused(self, steps, message):
        with pytest.raises(ValueError) as info:
            StepFunction(steps, domain_end=5, ktol=0.0)
        assert str(info.value) == message


class TestApproximateSteps:
    def test_constant_curve_collapses_to_one_step(self):
        unit = make_unit(startup_var_cost=0.0, startup_fixed_cost=7.0)
        sf = approximate_steps(unit, horizon=12, ktol=0.25)
        assert sf.n_steps == 1
        (step,) = sf.steps
        assert (step.lo, step.hi) == (1, 11)
        assert step.value == pytest.approx(7.0)

    def test_zero_tolerance_gives_one_step_per_off_time(self):
        # slow cooling keeps the cost strictly increasing across all 71
        # off-times in float64 (fast cooling plateaus once e^{-lambda l}
        # drops below one ulp of the total, merging the tail steps)
        slow = make_unit(heat_loss=0.3)
        sf = approximate_steps(slow, horizon=72, ktol=0.0)
        assert sf.n_steps == 71
        for l, step in enumerate(sf.steps, start=1):
            assert (step.lo, step.hi) == (l, l)
            assert step.value == pytest.approx(startup_cost(slow, l))

    def test_five_percent_band_on_a_short_horizon(self):
        sf = approximate_steps(HOT_HALF, horizon=8, ktol=0.05)
        assert sf.n_steps == 4
        assert [(s.lo, s.hi) for s in sf.steps] == \
            [(1, 1), (2, 2), (3, 5), (6, 7)]

    def test_every_covered_off_time_is_within_the_band(self):
        for ktol in (0.01, 0.05, 0.2):
            sf = approximate_steps(HOT_HALF, horizon=24, ktol=ktol)
            for step in sf.steps:
                for l in range(step.lo, step.hi + 1):
                    k = startup_cost(HOT_HALF, l)
                    assert abs(step.value - k) <= ktol * k + 1e-12

    def test_values_nondecreasing_and_cover_contiguously(self):
        sf = approximate_steps(HOT_HALF, horizon=30, ktol=0.1)
        assert sf.steps[0].lo == 1
        assert sf.steps[-1].hi == 29
        for a, b in zip(sf.steps, sf.steps[1:]):
            assert b.lo == a.hi + 1
            assert b.value >= a.value

    def test_horizon_below_two_rejected(self):
        with pytest.raises(ValueError):
            approximate_steps(HOT_HALF, horizon=1, ktol=0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            approximate_steps(HOT_HALF, horizon=8, ktol=-0.1)

    @pytest.mark.parametrize("steps", [approximate_steps,
                                       minimal_steps_oracle])
    @pytest.mark.parametrize("ktol", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, steps, ktol):
        """An infinite tolerance would price every step at nan."""
        with pytest.raises(ValueError, match="ktol must be finite"):
            steps(HOT_HALF, horizon=8, ktol=ktol)


class TestMinimalStepsOracle:
    """Independent DP count the greedy construction must match."""

    def test_constant_curve(self):
        unit = make_unit(startup_var_cost=0.0, startup_fixed_cost=7.0)
        assert minimal_steps_oracle(unit, horizon=12, ktol=0.25) == 1

    def test_strictly_increasing_curve_zero_tolerance(self):
        slow = make_unit(heat_loss=0.3)
        assert minimal_steps_oracle(slow, horizon=72, ktol=0.0) == 71

    def test_fast_cooling_plateaus_merge_in_both_constructions(self):
        # at heat_loss = ln 2 the float64 curve goes flat near l = 53;
        # greedy and DP must agree on the merged count
        n = minimal_steps_oracle(HOT_HALF, horizon=72, ktol=0.0)
        assert n < 71
        assert approximate_steps(HOT_HALF, 72, 0.0).n_steps == n

    def test_five_percent_short_horizon(self):
        assert minimal_steps_oracle(HOT_HALF, horizon=8, ktol=0.05) == 4

    def test_greedy_matches_dp_on_a_small_grid(self):
        for lam in (0.05, 0.3, 0.69):
            for ktol in (0.0, 0.03, 0.15):
                unit = make_unit(heat_loss=lam)
                sf = approximate_steps(unit, horizon=20, ktol=ktol)
                assert sf.n_steps == minimal_steps_oracle(unit, 20, ktol)
