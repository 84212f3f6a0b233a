"""Model-space checks: parameter functions, the 37-model grid, the family
parameters at a time (``params_at``) against a scalar oracle."""

import math

import numpy as np
import pytest

from arrivalsim.distributions import KERNELS
from arrivalsim.errors import ParameterError
from arrivalsim.models import (
    Family,
    FuncKind,
    ModelSpec,
    enumerate_models,
    eval_func,
    feasible_on_grid,
    join,
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
            feasible_on_grid(spec, [1.0], -1.0)
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


# at +-0, inside the study window and far before it
JOIN_TIMES = np.array([0.0, -0.0, -0.5, -1.7, -3.25, -8.0, -33.0])


def same_bits(a, b) -> bool:
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return a.tobytes() == b.tobytes()


class TestJoin:
    """A lockstep's layout: :func:`join` of its specs, holding each of them
    bitwise through :meth:`ModelSpec.embed`."""

    @pytest.mark.parametrize("kind", list(FuncKind))
    def test_each_kind_padded_into_the_joined_function_is_bitwise_its_own(self, kind):
        layout = join([model_from_name("Exp.Quadr"), model_from_name("Exp.Expon")])
        assert layout.rate_kind.value == "Quadr+Expon" and layout.rate_kind not in list(FuncKind)
        spec = ModelSpec(Family.EXP, kind)
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta = rng.normal(0.0, 3.0, spec.n_params)
            padded = spec.embed(theta, layout)
            assert same_bits(
                eval_func(layout.rate_kind, padded, JOIN_TIMES), eval_func(kind, theta, JOIN_TIMES)
            )

    @pytest.mark.parametrize("companion", ["Gamma.Lin.Lin", "Gamma.Expon.Expon", "Gamma.Expon.Lin"])
    def test_an_exp_row_has_a_shape_of_exactly_one(self, companion):
        exp = model_from_name("Exp.Lin")
        layout = join([exp, model_from_name(companion)])
        assert layout.family is Family.GAMMA
        theta = np.array([40.0, 0.5])
        (shape, rate), ok = layout.params_at(exp.embed(theta, layout), JOIN_TIMES)
        assert ok and same_bits(shape, 1.0)
        assert same_bits(rate, exp.params_at(theta, JOIN_TIMES)[0][0])

    def test_every_model_keeps_its_parameters_in_the_join_of_its_step_kernel(self):
        rng = np.random.default_rng(4)
        for families in ((Family.EXP, Family.GAMMA), (Family.GENGAM, Family.GENF)):
            specs = [s for s in enumerate_models() if s.family in families]
            layout = join(specs)
            assert layout.family is families[1]
            for spec in specs:
                theta = feasible_theta(spec, rng)
                got, ok = layout.params_at(spec.embed(theta, layout), JOIN_TIMES[:5])
                want, _ = spec.params_at(theta, JOIN_TIMES[:5])
                assert ok
                step = slice(-1, None) if spec.family is Family.EXP else slice(len(want))
                assert all(same_bits(g, w) for g, w in zip(got[step], want)), spec.name
                if spec.family is Family.GENGAM:
                    assert got[3] == 0.0

    @pytest.mark.parametrize("names, want", [
        (["Exp.Const", "Exp.Lin", "Exp.Quadr"], "Exp.Quadr"),
        (["Exp.Expon"], "Exp.Expon"),
        (["Exp.Const", "Gamma.Lin.Const", "Gamma.Quadr.Lin"], "Gamma.Quadr.Quadr"),
        (["Exp.Expon", "Gamma.Expon.Expon"], "Gamma.Expon.Expon"),
        (["GenGam.Const.Const", "GenGam.Lin.Lin"], "GenF.Quadr.Quadr"),
        (["Exp.Lin", "Gamma.Expon.Const"], "Gamma.Quadr+Expon.Quadr"),
        (["GenF.Expon.Expon", "GenGam.Quadr.Lin"], "GenF.Quadr+Expon.Quadr+Expon"),
    ])
    def test_the_narrowest_layout(self, names, want):
        assert join(model_from_name(n) for n in names).name == want

    def test_the_joined_kind_is_not_in_the_catalogue(self):
        assert {s.rate_kind for s in enumerate_models()} == set(FuncKind)
        with pytest.raises(ParameterError):
            model_from_name("Exp.Quadr+Expon")


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


def scalar_func(kind, coeffs):
    """A parameter function on one float time, from the scalar formulas."""
    c = [float(v) for v in coeffs] + [0.0, 0.0]
    if kind is FuncKind.EXPON:
        return lambda t: c[0] + math.exp(c[1] + c[2] * t)
    return lambda t: c[0] + c[1] * t + c[2] * t * t


def instantiate(spec: ModelSpec, theta, t: float) -> tuple[float, ...]:
    """The family parameters of ``spec`` at one time ``t`` from scalar
    formulas: the oracle of :meth:`ModelSpec.params_at`."""
    rate = scalar_func(spec.rate_kind, theta[spec.rate_slice])(t)
    if spec.family is Family.EXP:
        return (rate,)
    shape = scalar_func(spec.shape_kind, theta[spec.shape_slice])(t)
    if spec.family is Family.GAMMA:
        return (shape, rate)
    extra = [float(v) for v in theta[spec.q_index:]]
    return (math.log(shape) - math.log(rate), shape ** -0.5, *extra)


def params_at(spec: ModelSpec, theta, t: float) -> tuple[float, ...]:
    """``spec.params_at`` at one time, as floats; the parameters must be feasible."""
    params, ok = spec.params_at(np.asarray(theta, dtype=float), t)
    assert ok
    return tuple(float(v) for v in params)


class TestInstantiate:
    """The family parameters at one time, as the first gap of a trajectory
    takes them."""

    def test_gamma_shape_one_is_exponential(self):
        spec = model_from_name("Gamma.Const.Const")
        lam = 3.0
        for t in (-3.0, -1.0):
            params = params_at(spec, [lam, 1.0], t)
            assert params == (1.0, lam)
            x = np.linspace(0.05, 2.0, 9)
            np.testing.assert_allclose(
                KERNELS[Family.GAMMA].logpdf(x, *params),
                KERNELS[Family.EXP].logpdf(x, lam),
                atol=1e-12,
            )

    def test_gengam_mapping(self):
        spec = model_from_name("GenGam.Const.Const")
        assert params_at(spec, [2.0, 4.0, 0.7], -1.5) == (math.log(2.0), 0.5, 0.7)

    def test_genf_keeps_constant_q_p(self):
        spec = model_from_name("GenF.Lin.Const")
        mu, _, q, p = params_at(spec, [2.0, 0.1, 4.0, 0.7, 1.2], -2.0)
        assert q == 0.7 and p == 1.2
        assert mu == pytest.approx(math.log(4.0 / (2.0 + 0.1 * -2.0)))

    def test_exp_with_exponential_rate(self):
        spec = model_from_name("Exp.Expon")
        assert params_at(spec, [0.5, 0.0, 1.0], 0.0) == (1.5,)

    def test_exp_const_is_time_invariant(self):
        spec = model_from_name("Exp.Const")
        assert params_at(spec, [7.0], -3.25) == params_at(spec, [7.0], -0.5)

    def test_infeasible_rate_is_flagged(self):
        spec = model_from_name("Exp.Lin")
        assert spec.params_at(np.array([1.0, 1.0]), -3.0) == ((), False)  # 1 - 3 < 0
        assert not feasible_on_grid(spec, [1.0, 1.0], -3.0)

    def test_infeasible_shape_is_flagged(self):
        spec = model_from_name("Gamma.Const.Const")
        assert spec.params_at(np.array([1.0, -0.5]), -1.0) == ((), False)
        assert not feasible_on_grid(spec, [1.0, -0.5], -1.0)

    def test_every_spec_instantiates_on_minute_grid(self):
        rng = np.random.default_rng(31)
        grid = minute_grid(-3.25, -0.5)
        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            assert feasible_on_grid(spec, theta, grid)
            for t in grid[:: 40]:
                params = params_at(spec, theta, float(t))
                assert np.isfinite(KERNELS[spec.family].logpdf(0.01, *params))

    def test_params_at_matches_instantiate_on_minute_grid(self):
        rng = np.random.default_rng(5)
        grid = minute_grid(-3.25, -0.5)
        for spec in enumerate_models():
            theta = feasible_theta(spec, rng)
            params, ok = spec.params_at(theta, grid)
            assert ok and feasible_on_grid(spec, theta, grid)
            pointwise = np.array([instantiate(spec, theta, float(t)) for t in grid]).T
            assert len(params) == len(pointwise)
            for value, column in zip(params, pointwise):
                # numpy's vectorized log, exp and power may differ from libm's
                # scalar ones in the last bits
                np.testing.assert_allclose(
                    np.broadcast_to(value, grid.shape), column,
                    rtol=1e-13, atol=1e-13, err_msg=spec.name,
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
            assert not feasible_on_grid(spec, theta, float(grid[0]))

    def test_feasible_on_grid_flags_sign_changes(self):
        spec = model_from_name("Exp.Lin")
        grid = minute_grid(-3.25, -0.5)
        assert feasible_on_grid(spec, [1.0, 0.1], grid)
        assert not feasible_on_grid(spec, [0.1, 0.2], grid)
