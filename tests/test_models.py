"""Model-space checks: parameter functions, the 37-model grid, instantiation."""

import dataclasses
import math

import numpy as np
import pytest

from arrivalsim.distributions import Exp, Gamma, GenF, GenGam
from arrivalsim.errors import ParameterError
from arrivalsim.models import (
    Family,
    FuncKind,
    ModelSpec,
    enumerate_models,
    eval_func,
    feasible_on_grid,
    instantiate,
    model_from_name,
)
from arrivalsim.scoring import minute_grid


class TestParamFunc:
    def test_quadratic_degenerates_to_constant(self):
        for t in (-30.0, -3.25, 0.0, 2.0):
            assert eval_func(FuncKind.QUADR, (1.0, 0.0, 0.0), t) == 1.0

    def test_linear(self):
        assert eval_func(FuncKind.LIN, (2.0, 1.0), -3.0) == -1.0

    def test_exponential(self):
        assert eval_func(FuncKind.EXPON, (0.5, 0.0, 1.0), 0.0) == pytest.approx(1.5)

    def test_vectorized(self):
        t = np.array([-2.0, -1.0])
        np.testing.assert_allclose(eval_func(FuncKind.LIN, (1.0, 2.0), t), [-3.0, -1.0])

    def test_coeff_count_enforced(self):
        spec = model_from_name("Exp.Lin")
        with pytest.raises(ParameterError):
            instantiate(spec, [1.0], -1.0)
        with pytest.raises(ParameterError):
            feasible_on_grid(spec, [1.0, 0.1, 0.0], [-1.0])

    def test_complexity(self):
        assert [k.complexity for k in FuncKind] == [1, 2, 3, 3]

    def test_exponential_overflow_is_infeasible(self):
        value = eval_func(FuncKind.EXPON, (0.0, 1000.0, 0.0), -1.0)
        assert not np.isfinite(value)


class TestModelSpace:
    def test_enumerate_has_37_models(self):
        assert len(enumerate_models()) == 37

    def test_names_unique_and_parse_back(self):
        specs = enumerate_models()
        names = [s.name for s in specs]
        assert len(set(names)) == 37
        for spec in specs:
            assert model_from_name(spec.name) == spec

    def test_complexity_rule(self):
        names = {s.name for s in enumerate_models()}
        assert "Gamma.Lin.Const" in names
        assert "Gamma.Const.Lin" not in names
        for family in ("Gamma", "GenGam", "GenF"):
            assert f"{family}.Quadr.Expon" in names
            assert f"{family}.Expon.Quadr" in names

    def test_family_counts(self):
        specs = enumerate_models()
        by_family = {}
        for s in specs:
            by_family.setdefault(s.family, []).append(s)
        assert len(by_family[Family.EXP]) == 4
        for family in (Family.GAMMA, Family.GENGAM, Family.GENF):
            assert len(by_family[family]) == 11

    def test_shape_more_complex_than_rate_rejected(self):
        with pytest.raises(ParameterError):
            ModelSpec(Family.GAMMA, FuncKind.CONST, FuncKind.LIN)

    def test_bad_names_rejected(self):
        for bad in ("Gamma.Lin", "Exp.Lin.Const", "Weibull.Const.Const", "Gamma"):
            with pytest.raises(ParameterError):
                model_from_name(bad)

    def test_max_parameter_count(self):
        assert max(s.n_params for s in enumerate_models()) == 8
        assert model_from_name("GenF.Expon.Expon").n_params == 8

    def test_theta_layout(self):
        spec = model_from_name("GenF.Quadr.Lin")
        assert spec.param_names == (
            "rate.c", "rate.b1", "rate.b2", "shape.c", "shape.b1", "Q", "P",
        )
        assert spec.rate_slice == slice(0, 3)
        assert spec.shape_slice == slice(3, 5)
        assert spec.q_index == 5
        assert spec.p_index == 6

    def test_bounds_layout(self):
        spec = model_from_name("GenF.Expon.Expon")
        lo, hi = spec.bounds()
        names = spec.param_names
        for i, name in enumerate(names):
            if name == "Q":
                assert (lo[i], hi[i]) == (-5.0, 5.0)
            elif name == "P":
                assert (lo[i], hi[i]) == (0.0, 50.0)
            elif name.endswith(".c"):
                assert (lo[i], hi[i]) == (1e-6, 1e6)
            else:
                assert (lo[i], hi[i]) == (-1e4, 1e4)


def feasible_theta(spec: ModelSpec, rng) -> np.ndarray:
    """A random parameter vector that stays positive on the study window."""
    def level_coeffs(kind, level):
        if kind is FuncKind.CONST:
            return [level]
        if kind is FuncKind.LIN:
            return [level, rng.uniform(-0.1, 0.1) * level]
        if kind is FuncKind.QUADR:
            return [level, rng.uniform(-0.1, 0.1) * level, rng.uniform(-0.02, 0.02) * level]
        return [level, math.log(level), rng.uniform(0.0, 0.3)]

    theta = level_coeffs(spec.rate_kind, rng.uniform(5.0, 200.0))
    if spec.shape_kind is not None:
        theta += level_coeffs(spec.shape_kind, rng.uniform(0.4, 4.0))
    if spec.family in (Family.GENGAM, Family.GENF):
        theta.append(rng.uniform(-2.0, 2.0))
    if spec.family is Family.GENF:
        theta.append(rng.uniform(0.0, 5.0))
    return np.asarray(theta)


class TestInstantiate:
    def test_gamma_shape_one_is_exponential(self):
        spec = model_from_name("Gamma.Const.Const")
        lam = 3.0
        for t in (-3.0, -1.0):
            params = instantiate(spec, [lam, 1.0], t)
            assert params == Gamma(1.0, lam)
            x = np.linspace(0.05, 2.0, 9)
            np.testing.assert_allclose(params.logpdf(x), Exp(lam).logpdf(x), atol=1e-12)

    def test_gengam_mapping(self):
        spec = model_from_name("GenGam.Const.Const")
        params = instantiate(spec, [2.0, 4.0, 0.7], -1.5)
        assert params == GenGam(math.log(2.0), 0.5, 0.7)

    def test_genf_keeps_constant_q_p(self):
        spec = model_from_name("GenF.Lin.Const")
        params = instantiate(spec, [2.0, 0.1, 4.0, 0.7, 1.2], -2.0)
        assert isinstance(params, GenF)
        assert params.q == 0.7 and params.p == 1.2
        assert params.mu == pytest.approx(math.log(4.0 / (2.0 + 0.1 * -2.0)))

    def test_exp_with_exponential_rate(self):
        spec = model_from_name("Exp.Expon")
        assert instantiate(spec, [0.5, 0.0, 1.0], 0.0) == Exp(1.5)

    def test_exp_const_is_time_invariant(self):
        spec = model_from_name("Exp.Const")
        assert instantiate(spec, [7.0], -3.25) == instantiate(spec, [7.0], -0.5)

    def test_infeasible_rate_raises(self):
        spec = model_from_name("Exp.Lin")
        with pytest.raises(ParameterError):
            instantiate(spec, [1.0, 1.0], -3.0)  # 1 - 3 < 0

    def test_infeasible_shape_raises(self):
        spec = model_from_name("Gamma.Const.Const")
        with pytest.raises(ParameterError):
            instantiate(spec, [1.0, -0.5], -1.0)

    def test_every_spec_instantiates_on_minute_grid(self):
        rng = np.random.default_rng(31)
        grid = minute_grid(-3.25, -0.5)
        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            assert feasible_on_grid(spec, theta, grid)
            for t in grid[:: 40]:
                params = instantiate(spec, theta, float(t))
                assert np.isfinite(params.logpdf(0.01))

    def test_params_at_matches_instantiate_on_minute_grid(self):
        rng = np.random.default_rng(5)
        grid = minute_grid(-3.25, -0.5)
        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            params, ok = spec.params_at(theta, grid)
            assert ok and feasible_on_grid(spec, theta, grid)
            pointwise = [instantiate(spec, theta, float(t)) for t in grid]
            names = [f.name for f in dataclasses.fields(pointwise[0])]
            assert len(params) == len(names)
            for name, value, column in zip(
                names, params, np.array([dataclasses.astuple(d) for d in pointwise]).T
            ):
                # numpy's vectorized power may differ from libm's scalar pow
                # in the last bit of sigma = shape**-0.5
                np.testing.assert_array_max_ulp(
                    np.broadcast_to(value, grid.shape), column, maxulp=int(name == "sigma")
                )

    def test_params_at_flags_infeasible_parameters(self):
        grid = minute_grid(-3.25, -0.5)
        cases = [
            ("Gamma.Lin.Lin", [2.0, 0.0, 1.0, 0.5]),  # shape 1 + 0.5 t < 0 for t < -2
            ("GenGam.Const.Const", [2.0, 0.0, 0.5]),  # zero shape
            ("Exp.Expon", [0.0, 1000.0, 0.0]),  # rate overflows to inf
            ("GenF.Const.Const", [2.0, 4.0, 0.7, -0.1]),  # p < 0
        ]
        for name, theta in cases:
            spec = model_from_name(name)
            params, ok = spec.params_at(np.asarray(theta), grid)
            assert (params, ok) == ((), False), name
            assert not feasible_on_grid(spec, theta, grid)
            with pytest.raises(ParameterError):
                instantiate(spec, theta, float(grid[0]))

    def test_feasible_on_grid_flags_sign_changes(self):
        spec = model_from_name("Exp.Lin")
        grid = minute_grid(-3.25, -0.5)
        assert feasible_on_grid(spec, [1.0, 0.1], grid)
        assert not feasible_on_grid(spec, [0.1, 0.2], grid)
