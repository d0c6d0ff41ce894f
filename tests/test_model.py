"""Closed-form layer: critical ratio, regimes, fixed points, envelopes."""

import math

import numpy as np
import pytest

from twolevel import (
    DomainError,
    FluidState,
    ModelParams,
    Regime,
    RegimeError,
    ScalingParams,
    blocked_fraction_limit,
    build_generator,
    classify_regime,
    critical_ratio,
    fluid,
    gbar_functional,
    h_bar,
    overloaded_fixed_point,
    simulate,
    underloaded_fixed_point,
    validate,
    y_b_closed_form,
    y_bar,
    y_underline,
)

SYM = ModelParams(0.5, 1.0, 1.0, 1.0)


class TestValidate:
    def test_symmetric_baseline_passes(self):
        validate(SYM, ScalingParams(100, 50))

    def test_p_out_of_range_names_field(self):
        with pytest.raises(DomainError) as err:
            validate(ModelParams(1.5, 1.0, 1.0, 1.0))
        assert err.value.field == "p"

    def test_nonpositive_rate_names_field(self):
        with pytest.raises(DomainError) as err:
            validate(ModelParams(0.5, 1.0, 0.0, 1.0))
        assert err.value.field == "mu11"

    def test_nan_rate_rejected(self):
        with pytest.raises(DomainError):
            validate(ModelParams(0.5, float("nan"), 1.0, 1.0))

    def test_zero_n_rejected(self):
        with pytest.raises(DomainError) as err:
            validate(SYM, ScalingParams(0, 1))
        assert err.value.field == "n"

    def test_zero_c2_rejected(self):
        with pytest.raises(DomainError) as err:
            validate(SYM, ScalingParams(10, 0))
        assert err.value.field == "c2"


GOOD_SCALING = ScalingParams(3, 1)
BAD = {  # case: (field, params, scaling)
    "p-nan": ("p", ModelParams(math.nan, 1.0, 1.0, 1.0), GOOD_SCALING),
    "p-negative": ("p", ModelParams(-0.1, 1.0, 1.0, 1.0), GOOD_SCALING),
    "p-above-1": ("p", ModelParams(1.5, 1.0, 1.0, 1.0), GOOD_SCALING),
    "mu01-nan": ("mu01", ModelParams(0.5, math.nan, 1.0, 1.0), GOOD_SCALING),
    "mu11-negative": ("mu11", ModelParams(0.5, 1.0, -1.0, 1.0), GOOD_SCALING),
    "mu02-nan": ("mu02", ModelParams(0.5, 1.0, 1.0, math.nan), GOOD_SCALING),
    "n-negative": ("n", SYM, ScalingParams(-1, 1)),
    "c2-nan": ("c2", SYM, ScalingParams(3, math.nan)),
    "c2-negative": ("c2", SYM, ScalingParams(3, -1)),
}
PARAMS_ONLY = [case for case, (_, _, scaling) in BAD.items() if scaling is GOOD_SCALING]


class TestEnginesValidate:
    """The engines and the closed forms refuse what ``validate`` refuses, naming the field,
    before any work."""

    def refused(self, case, call):
        field, params, scaling = BAD[case]
        with pytest.raises(DomainError) as err:
            call(params, scaling)
        assert err.value.field == field

    @pytest.mark.parametrize("case", list(BAD))
    def test_simulator(self, case):
        self.refused(case, lambda params, scaling: simulate((0, 0, 0), params, scaling, 5.0, 1))

    @pytest.mark.parametrize("case", list(BAD))
    def test_oracle_build(self, case):
        self.refused(case, build_generator)

    @pytest.mark.parametrize("system", fluid.SYSTEMS)
    @pytest.mark.parametrize("case", PARAMS_ONLY)
    def test_fluid_solve(self, case, system):
        self.refused(case, lambda params, _: fluid.solve_system(
            system, params, 0.3, (0.0, 0.0, 0.0), 2.0, 0.01))

    @pytest.mark.parametrize("case", PARAMS_ONLY)
    def test_gbar_functional(self, case):
        self.refused(case, lambda params, _: gbar_functional(params, 0.3, (0.0, 0.0)))

    CLOSED_FORMS = {
        "critical_ratio": critical_ratio,
        "classify_regime": lambda params: classify_regime(params, 0.3),
        "blocked_fraction_limit": lambda params: blocked_fraction_limit(params, 0.1),
        "overloaded_fixed_point": lambda params: overloaded_fixed_point(params, 0.1),
        "underloaded_fixed_point": lambda params: underloaded_fixed_point(params, 0.9),
        "y_bar": y_bar,
        "y_underline": lambda params: y_underline(params, 0.3),
        "h_bar": lambda params: h_bar(1.0, params, 0.3, 0.5),
        "y_b_closed_form": lambda params: y_b_closed_form(1.0, params, 0.2),
    }

    @pytest.mark.parametrize("form", list(CLOSED_FORMS))
    @pytest.mark.parametrize("case", PARAMS_ONLY)
    def test_closed_form(self, case, form):
        """critical_ratio at p = 1.5 once returned 1.5, and y_bar at p = NaN returned NaN."""
        self.refused(case, lambda params, _: self.CLOSED_FORMS[form](params))


class TestCriticalRatio:
    def test_symmetric_is_half(self):
        assert critical_ratio(SYM) == 0.5

    def test_p_zero_is_zero(self):
        assert critical_ratio(ModelParams(0.0, 1.0, 1.0, 1.0)) == 0.0

    def test_all_class0_fast_level1(self):
        params = ModelParams(1.0, 2.0, 1.0, 1.0)
        assert critical_ratio(params) == 2.0


class TestClassifyRegime:
    def test_three_regimes_symmetric(self):
        assert classify_regime(SYM, 0.7) is Regime.Underloaded
        assert classify_regime(SYM, 0.3) is Regime.Overloaded
        assert classify_regime(SYM, 0.5) is Regime.Critical

    def test_tolerance_band_is_critical(self):
        assert classify_regime(SYM, 0.5 + 1e-13) is Regime.Critical
        assert classify_regime(SYM, 0.5 + 1e-11) is Regime.Underloaded


class TestBlockedFractionLimit:
    def test_symmetric_r03(self):
        assert blocked_fraction_limit(SYM, 0.3) == pytest.approx(0.4, abs=1e-12)

    def test_vanishes_at_criticality(self):
        assert blocked_fraction_limit(SYM, 0.5 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_asymmetric_instance(self):
        params = ModelParams(0.5, 2.0, 1.0, 1.0)
        assert blocked_fraction_limit(params, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_p_zero_raises_domain_before_regime(self):
        with pytest.raises(DomainError) as err:
            blocked_fraction_limit(ModelParams(0.0, 1.0, 1.0, 1.0), 0.3)
        assert err.value.field == "p"

    def test_underloaded_ratio_rejected(self):
        with pytest.raises(RegimeError):
            blocked_fraction_limit(SYM, 0.7)
        with pytest.raises(RegimeError):
            blocked_fraction_limit(SYM, 0.5)

    def test_complement_identity_exact(self):
        """blocked fraction + served fraction is exactly 1 in floating point."""
        rng = np.random.default_rng(20260823)
        for _ in range(200):
            params = ModelParams(
                rng.uniform(0.05, 1.0),
                rng.uniform(0.2, 3.0),
                rng.uniform(0.2, 3.0),
                rng.uniform(0.2, 3.0),
            )
            r = rng.uniform(0.05, 0.95) * critical_ratio(params)
            served = (params.mu02 * r / params.mu01) * (
                (1 - params.p) * params.mu01 / (params.p * params.mu11) + 1.0
            )
            assert blocked_fraction_limit(params, r) + served == 1.0


class TestFixedPoints:
    def test_overloaded_symmetric(self):
        np.testing.assert_allclose(overloaded_fixed_point(SYM, 0.3), (0.4, 0.3), atol=1e-12)
        np.testing.assert_allclose(overloaded_fixed_point(SYM, 0.1), (0.8, 0.1), atol=1e-12)

    def test_underloaded_symmetric(self):
        np.testing.assert_allclose(underloaded_fixed_point(SYM, 0.7), (0.5, 0.2), atol=1e-12)

    def test_underloaded_p_zero(self):
        params = ModelParams(0.0, 1.0, 1.0, 1.0)
        y, z = underloaded_fixed_point(params, 0.6)
        assert y == 0.0
        assert z == pytest.approx(0.6, abs=1e-12)

    def test_wrong_regime_raises(self):
        with pytest.raises(RegimeError):
            overloaded_fixed_point(SYM, 0.7)
        with pytest.raises(RegimeError):
            underloaded_fixed_point(SYM, 0.3)

    @pytest.mark.parametrize("r", [0.5 - 1e-14, 0.5 + 1e-14], ids=["below", "above"])
    def test_critical_band_has_no_fixed_point(self, r):
        """Within classify_regime's Critical band around r_c = 0.5 every closed form refuses;
        the bare inequality returned (2e-14, 0.49999999999999) below and (0.5, 1e-14) above."""
        assert classify_regime(SYM, r) is Regime.Critical
        for closed_form in (overloaded_fixed_point, blocked_fraction_limit,
                            underloaded_fixed_point):
            with pytest.raises(RegimeError):
                closed_form(SYM, r)

    def test_blocked_fraction_is_overloaded_y_star(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = ModelParams(
                rng.uniform(0.1, 1.0),
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.0),
                rng.uniform(0.3, 2.0),
            )
            r = rng.uniform(0.1, 0.9) * critical_ratio(params)
            y_star, _ = overloaded_fixed_point(params, r)
            assert y_star == blocked_fraction_limit(params, r)


class TestHeuristicFractions:
    def test_y_bar_values(self):
        assert y_bar(SYM) == 0.5
        assert y_bar(ModelParams(1.0, 1.0, 1.0, 1.0)) == 1.0
        assert y_bar(ModelParams(0.25, 1.0, 2.0, 1.0)) == pytest.approx(0.4, abs=1e-12)

    def test_y_underline_values(self):
        assert y_underline(SYM, 0.7) == 0.7
        assert y_underline(ModelParams(0.5, 4.0, 1.0, 2.0), 1.0) == 0.5
        assert y_underline(SYM, 0.0) == 0.0


class TestEnvelopes:
    def test_h_bar_starts_at_init_sum(self):
        assert h_bar(0.0, SYM, 0.3, 0.55) == pytest.approx(0.55, abs=1e-12)

    def test_h_bar_long_run_symmetric(self):
        assert h_bar(200.0, SYM, 0.3, 0.0) == pytest.approx(0.7, abs=1e-12)

    def test_h_bar_constant_when_started_at_limit(self):
        t = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(h_bar(t, SYM, 0.3, 0.7), 0.7, atol=1e-12)

    def test_h_bar_p_zero_rejected(self):
        with pytest.raises(DomainError):
            h_bar(1.0, ModelParams(0.0, 1.0, 1.0, 1.0), 0.3, 0.5)

    def test_y_b_closed_form_symmetric_t1(self):
        expected = 0.5 * (1.0 - math.exp(-1.0))
        assert y_b_closed_form(1.0, SYM, 0.0) == pytest.approx(expected, abs=1e-12)
        assert y_b_closed_form(1.0, SYM, 0.0) == pytest.approx(0.316060, abs=5e-7)

    def test_y_b_closed_form_array_matches_scalar(self):
        t = np.array([0.0, 0.5, 2.0])
        arr = y_b_closed_form(t, SYM, 0.25)
        for ti, vi in zip(t, arr):
            assert vi == y_b_closed_form(float(ti), SYM, 0.25)
        assert arr[0] == 0.25


class TestFluidState:
    def test_valid_state_passes(self):
        FluidState(0.0, 0.5, 0.2).check(0.7)
        FluidState(0.3, 0.4, 0.0).check(0.3)

    def test_first_violation_named(self):
        with pytest.raises(DomainError) as err:
            FluidState(-0.1, 0.5, 0.0).check(0.7)
        assert err.value.field == "y_star"
        with pytest.raises(DomainError) as err:
            FluidState(0.0, 0.5, 0.9).check(0.7)
        assert err.value.field == "z"

    def test_mutual_exclusion_enforced(self):
        with pytest.raises(DomainError):
            FluidState(0.2, 0.3, 0.2).check(0.7)

    def test_as_array_roundtrip(self):
        state = FluidState(0.1, 0.2, 0.0)
        np.testing.assert_array_equal(state.as_array(), [0.1, 0.2, 0.0])


class TestScalingParams:
    def test_ratio_property(self):
        assert ScalingParams(200, 140).r == 0.7
        assert ScalingParams(3, 1).r == pytest.approx(1 / 3)
