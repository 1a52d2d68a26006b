import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_filter.errors import (
    ConfigError,
    NonPositiveSigma,
    SpaceGridTooNarrow,
    UnknownFunctionName,
)
from fbsde_filter.model import (
    GaussianMixturePrior,
    LinearGaussianModelSpec,
    NamedFunction,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
    build_model,
    parse_config,
    registry_eval,
    registry_names,
    serialize_model,
)

from conftest import make_scalar, specs_equal


LG_DOC = """
[model]
drift = linear
a = -1
sigma = 1
h = linear
f = linear
"""

DW_DOC = """
[model]
drift = double_well
sigma = 0.5
h = linear
f = indicator_positive
prior_mean = 0.0
prior_var = 1.0
"""


class TestRegistry:
    def test_double_well_value(self):
        assert registry_eval("double_well", {}, 2.0) == 2.0 - 8.0

    def test_constant(self):
        assert registry_eval("constant", {"c": 0.5}, -3.1) == 0.5

    def test_indicator(self):
        assert registry_eval("indicator_positive", {}, -0.2) == 0.0
        assert registry_eval("indicator_positive", {}, 0.2) == 1.0

    def test_unknown_name(self):
        with pytest.raises(UnknownFunctionName):
            registry_eval("nope", {}, 0.0)

    def test_vectorized(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(registry_eval("double_well", {}, x), x - x**3)

    @given(st.sampled_from(registry_names()),
           st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_finite_on_finite_inputs(self, name, x):
        assert math.isfinite(registry_eval(name, {}, x))

    PARAMS = {"linear": {"a": -1.3, "b": 0.2}, "cubic": {"c": 0.7},
              "sine": {"amplitude": 1.2, "frequency": 2.1, "phase": 0.3},
              "constant": {"c": 2.5}, "quadratic": {"center": -0.2, "weight": 2.0},
              "gaussian_bump": {"center": 0.3, "width": 0.7, "amplitude": 1.5}}

    @pytest.mark.parametrize("name", registry_names())
    def test_every_input_form_reads_the_same_bits(self, name):
        # float64 arrays and floats go straight to the kernel; lists, 0-d
        # arrays and integers are converted first
        f = NamedFunction(name, self.PARAMS.get(name, {}))
        rng = np.random.default_rng(7)
        x = np.concatenate([3.0 * rng.standard_normal(300), [0.0, -0.0, 1e-300, 40.0]])
        for arg in (x, x.reshape(2, -1)):
            got, want = f(arg), f(arg.tolist())
            assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
        for v in x[:50].tolist() + [np.float64(0.7), 1e200, -1e200]:
            with np.errstate(over="ignore", invalid="ignore"):  # inf, as numpy gives it
                got, want = f(v), f(np.array(v))
            assert type(got) is float and type(want) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert type(f(3)) is float and f(3) == f(3.0)
        assert f(np.arange(4)).tobytes() == f(np.arange(4.0)).tobytes()


class TestBuildModel:
    def test_linear_config_promotes_to_lg(self):
        model = build_model(LG_DOC)
        assert isinstance(model, LinearGaussianModelSpec)
        np.testing.assert_array_equal(model.A, [[-1.0]])
        np.testing.assert_array_equal(model.H, [[1.0]])
        np.testing.assert_array_equal(model.f_bar, [1.0])

    def test_zero_sigma_rejected(self):
        with pytest.raises(NonPositiveSigma):
            build_model(LG_DOC.replace("sigma = 1", "sigma = 0"))

    def test_double_well_is_scalar(self):
        model = build_model(DW_DOC)
        assert isinstance(model, ScalarModelSpec)
        assert model.drift_fn.name == "double_well"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_model(LG_DOC + "mystery = 3\n")

    def test_unknown_function_rejected(self):
        with pytest.raises(UnknownFunctionName):
            build_model(DW_DOC.replace("double_well", "septic_well"))

    def test_missing_model_section(self):
        with pytest.raises(ConfigError):
            build_model("[grid]\nt_end = 1\nn_steps = 10\n")

    def test_matrix_form(self):
        doc = """
[model]
kind = linear_gaussian
a = 0,1;0,0
h = 1;0
g = 0;1
sigma = 0.5
m0 = 0,0
sigma0 = 1,0;0,1
f_bar = 0,1
"""
        model = build_model(doc)
        assert model.n_state == 2
        assert model.n_obs == 1
        np.testing.assert_array_equal(model.A, [[0, 1], [0, 0]])

    def test_round_trip_lg(self):
        model = build_model(LG_DOC)
        again = build_model(serialize_model(model))
        assert specs_equal(model, again)

    def test_round_trip_scalar_with_params(self):
        model = build_model(DW_DOC + "h_params = a=0.5\n")
        again = build_model(serialize_model(model))
        assert specs_equal(model, again)

    def test_round_trip_mixture_prior(self):
        doc = """
[model]
drift = sine
sigma = 0.3
h = linear
f = gaussian_bump
prior_means = -1,1
prior_vars = 0.5,0.5
prior_weights = 0.25,0.75
"""
        model = build_model(doc)
        assert isinstance(model, ScalarModelSpec)
        again = build_model(serialize_model(model))
        assert specs_equal(model, again)

    def test_serialized_text_is_pinned(self):
        # the writer's exact text: keys in this order, %.17g numbers, empty
        # parameter lists and a zero G or control gain left out
        lg = LinearGaussianModelSpec(A=[[-1, 0.2], [0, -0.5]], H=[[1], [0.5]], G=[[1], [0]],
                                     sigma=0.5, m0=[0.3, -0.2], Sigma0=[[1, 0.1], [0.1, 2]],
                                     f_bar=[1, 0])
        assert serialize_model(lg) == (
            "[model]\nkind = linear_gaussian\na = -1,0.20000000000000001;0,-0.5\n"
            "h = 1;0.5\ng = 1;0\nsigma = 0.5\nm0 = 0.29999999999999999,-0.20000000000000001\n"
            "sigma0 = 1,0.10000000000000001;0.10000000000000001,2\nf_bar = 1,0\n\n")
        mixture = build_model("[model]\ndrift = sine\ndrift_params = frequency=2,amplitude=0.5\n"
                              "sigma = 0.3\nh = linear\nh_params = a=0.5,b=0.1\n"
                              "f = gaussian_bump\nprior_means = -1,1\nprior_vars = 0.5,0.25\n"
                              "prior_weights = 0.25,0.75\ncontrol_gain = 1.5\n")
        assert serialize_model(mixture) == (
            "[model]\nkind = scalar\ndrift = sine\ndrift_params = amplitude=0.5,frequency=2\n"
            "sigma = 0.29999999999999999\nh = linear\nh_params = a=0.5,b=0.10000000000000001\n"
            "f = gaussian_bump\nprior_means = -1,1\nprior_vars = 0.5,0.25\n"
            "prior_weights = 0.25,0.75\ncontrol_gain = 1.5\n\n")
        no_gain = LinearGaussianModelSpec(A=[[-1]], H=[[1]], sigma=1.0, m0=[0], Sigma0=[[1]],
                                          f_bar=[1])
        assert serialize_model(no_gain) == ("[model]\nkind = linear_gaussian\na = -1\nh = 1\n"
                                            "sigma = 1\nm0 = 0\nsigma0 = 1\nf_bar = 1\n\n")

    @given(st.floats(-3, 3), st.floats(0.1, 4), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_linear(self, a, sigma, m0):
        doc = f"""
[model]
drift = linear
a = {a!r}
sigma = {sigma!r}
h = linear
f = linear
prior_mean = {m0!r}
prior_var = 1.0
"""
        model = build_model(doc)
        assert specs_equal(model, build_model(serialize_model(model)))


class TestLinearGaussianSpec:
    def test_scalar_callbacks_match_matrices(self, lg_benchmark):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=100)
        scalar = lg_benchmark.as_scalar()
        np.testing.assert_array_equal(scalar.drift(xs), lg_benchmark.A[0, 0] * xs)
        np.testing.assert_array_equal(scalar.obs(xs), lg_benchmark.H[0, 0] * xs)
        np.testing.assert_array_equal(scalar.terminal(xs), lg_benchmark.f_bar[0] * xs)

    def test_dimension_checks(self):
        from fbsde_filter.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            LinearGaussianModelSpec(A=[[0, 1]], H=[[1]], sigma=1.0, m0=[0],
                                    Sigma0=[[1]], f_bar=[1])
        with pytest.raises(DimensionMismatch):
            LinearGaussianModelSpec(A=[[0]], H=[[1]], sigma=1.0, m0=[0, 0],
                                    Sigma0=[[1]], f_bar=[1])

    def test_asymmetric_sigma0_rejected(self):
        from fbsde_filter.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            LinearGaussianModelSpec(A=[[0, 0], [0, 0]], H=[[1], [0]], sigma=1.0,
                                    m0=[0, 0], Sigma0=[[1, 0.5], [0, 1]],
                                    f_bar=[1, 0])


class TestGridsAndPrior:
    def test_time_grid(self):
        grid = TimeGrid(2.0, 8)
        assert grid.dt == 0.25
        times = grid.times()
        assert times[0] == 0.0 and times[-1] == 2.0 and len(times) == 9
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_space_grid(self):
        grid = SpaceGrid(-1.0, 1.0, 5)
        assert grid.dx == 0.5
        with pytest.raises(ValueError):
            SpaceGrid(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            SpaceGrid(-1.0, 1.0, 2)

    def test_prior_moments_and_quadrature(self):
        prior = GaussianMixturePrior((-1.0, 2.0), (0.5, 1.5), (0.4, 0.6))
        mean = 0.4 * -1.0 + 0.6 * 2.0
        assert prior.mean == pytest.approx(mean)
        second = prior.expectation(lambda x: x**2)
        expected = 0.4 * (0.5 + 1.0) + 0.6 * (1.5 + 4.0)
        assert second == pytest.approx(expected, rel=1e-12)

    def test_prior_mass_validation(self):
        model = make_scalar("double_well", sigma=0.5, f="indicator_positive")
        with pytest.raises(SpaceGridTooNarrow):
            model.validate_on_grid(SpaceGrid(-3.0, 3.0, 101))
        model.validate_on_grid(SpaceGrid(-5.5, 5.5, 101))

    def test_prior_sampling_moments(self):
        prior = GaussianMixturePrior((-1.0, 2.0), (0.5, 1.5), (0.4, 0.6))
        gen = np.random.default_rng(7)
        draws = prior.sample(gen, 200_000)
        assert draws.mean() == pytest.approx(prior.mean, abs=0.02)
        assert draws.var() == pytest.approx(prior.variance, rel=0.02)


def test_config_with_all_sections_parses():
    doc = LG_DOC + """
[grid]
t_end = 1.0
n_steps = 100
x_min = -8
x_max = 8
n_points = 101

[estimator]
id = pi_innovation
particles = 100

[control]
mode = lqg_iteration
terminal_hessian = 1.0

[output]
dir = out
"""
    parser = parse_config(doc)
    assert parser.has_section("estimator")
    with pytest.raises(ConfigError):
        parse_config(doc + "\n[mystery]\nkey = 1\n")
