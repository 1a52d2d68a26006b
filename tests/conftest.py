from dataclasses import replace

import numpy as np
import pytest

from fbsde_filter.model import (
    GaussianMixturePrior,
    LinearGaussianModelSpec,
    NamedFunction,
    ScalarModelSpec,
    SpaceGrid,
    TimeGrid,
)


def with_scaled_initial_weights(ensemble, scale: float):
    """Copy of an ensemble with every weight process multiplied by `scale`, for the
    weight-linearity checks of the estimators."""
    shift = np.log(scale)
    kwargs = {}
    if ensemble.log_weights_innovation is not None:
        kwargs["log_weights_innovation"] = ensemble.log_weights_innovation + shift
    if ensemble.log_weights_girsanov is not None:
        kwargs["log_weights_girsanov"] = ensemble.log_weights_girsanov + shift
    return replace(ensemble, **kwargs)


def specs_equal(a, b) -> bool:
    """Structural equality for model specs (numpy fields compared elementwise)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, LinearGaussianModelSpec):
        return all(np.array_equal(getattr(a, name), getattr(b, name))
                   for name in ("A", "H", "G", "sigma", "m0", "Sigma0", "f_bar"))
    return a == b


def make_scalar(drift, drift_params=None, sigma=1.0, h="linear", h_params=None,
                f="linear", f_params=None, prior=(0.0, 1.0), control_gain=0.0):
    return ScalarModelSpec(
        drift_fn=NamedFunction(drift, drift_params or {}),
        sigma=sigma,
        obs_fn=NamedFunction(h, h_params or {}),
        terminal_fn=NamedFunction(f, f_params or {}),
        prior=GaussianMixturePrior.gaussian(*prior),
        control_gain=control_gain,
    )


@pytest.fixture(scope="session")
def lg_benchmark():
    """The scalar linear-Gaussian benchmark: A=-1, H=1, sigma=1, N(0,1) prior, f=x."""
    return LinearGaussianModelSpec(
        A=[[-1.0]], H=[[1.0]], G=[[1.0]], sigma=1.0,
        m0=[0.0], Sigma0=[[1.0]], f_bar=[1.0],
    )


@pytest.fixture(scope="session")
def lg_scalar(lg_benchmark):
    return lg_benchmark.as_scalar()


@pytest.fixture(scope="session")
def double_well():
    return make_scalar("double_well", sigma=0.5, f="indicator_positive")


@pytest.fixture(scope="session")
def grid_1k():
    return TimeGrid(1.0, 1000)


@pytest.fixture(scope="session")
def grid_500():
    return TimeGrid(1.0, 500)


@pytest.fixture(scope="session")
def space_wide():
    return SpaceGrid(-8.0, 8.0, 801)


def ou_terminal_variance(t, var0, sigma=1.0, rate=1.0):
    """Var(X_t) for dX = -rate X dt + sigma dB, X_0 ~ (*, var0)."""
    stat = sigma**2 / (2.0 * rate)
    return stat + np.exp(-2.0 * rate * t) * (var0 - stat)
