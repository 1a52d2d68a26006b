"""Weighted-ensemble approximations of the conditional expectations.

sigma-type functionals are plain ensemble averages of weight * g(X) under the
Girsanov weights (Zakai normalization); pi-type functionals are
self-normalized ratio estimators.  Multinomial resampling is available for
long-horizon filtering, but resampled ensembles are rejected by the
minimum-variance estimators, which require raw weighted paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, WeightCollapse
from .io import write_csv
from .model import TimeGrid, scalar_view
from .sde_sim import (
    STREAM_FILTER,
    STREAM_RESAMPLE,
    ObservationRecord,
    PathEnsemble,
    check_ess_floor,
    normalized_weights,
    path_generator,
    resample_below,
    resample_indices,
    weighted_step,
)


@dataclass(frozen=True)
class ConditionalEstimate:
    """Per-time Monte Carlo estimate of a conditional functional."""

    grid: TimeGrid
    values: np.ndarray
    std_err: np.ndarray
    ess: np.ndarray

    def to_csv(self, path) -> None:
        times = self.grid.times()
        rows = (
            (times[k], self.values[k], self.std_err[k], self.ess[k])
            for k in range(len(times))
        )
        write_csv(path, ["t", "value", "std_err", "ess"], rows)


def _shifted_weights(lw: np.ndarray):
    """Per-time weights exp(lw - max lw) of (N, K + 1) log-weights, their sums and
    the ESS path; a common shift of lw leaves all three unchanged up to rounding."""
    w = np.exp(lw - lw.max(axis=0))
    s = w.sum(axis=0)
    return w, s, s * s / np.einsum("ij,ij->j", w, w)


def sigma_estimate(ensemble: PathEnsemble, g) -> ConditionalEstimate:
    """Unnormalized conditional expectation: mean of girsanov-weight * g(X)."""
    lw = ensemble.log_weights("girsanov")
    vals = np.exp(lw) * np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    mean = vals.mean(axis=0)
    std_err = vals.std(axis=0, ddof=1) / np.sqrt(n)
    return ConditionalEstimate(ensemble.grid, mean, std_err, _shifted_weights(lw)[2])


def pi_estimate(ensemble: PathEnsemble, g, normalization: str = "self",
                normalizer=None, ess_floor: float | None = None) -> ConditionalEstimate:
    """Normalized conditional expectation.

    normalization="self" uses the ratio estimator sum(w g) / sum(w) with the
    weights max-shifted per time, so a common log-weight shift cancels;
    "external" divides the plain mean of w g(X) by a supplied per-time
    normalizer path (e.g. a sigma_t[1] estimate).
    """
    floor = None if ess_floor is None else check_ess_floor(ess_floor) * ensemble.n_paths
    lw = ensemble.log_weights()
    gv = np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    w, wsum, ess = _shifted_weights(lw)
    if normalization == "self":
        ratio = (w * gv).sum(axis=0) / wsum  # with equal weights, bitwise gv.mean(axis=0)
        resid = gv - ratio[None, :]
        std_err = np.sqrt(np.einsum("ij,ij->j", w * w, resid * resid)) / wsum
    elif normalization == "external":
        if normalizer is None:
            raise ValueError("external normalization requires a normalizer path")
        norm = np.asarray(normalizer, dtype=float)
        if norm.shape[0] != ensemble.grid.n_steps + 1:
            raise GridMismatch("normalizer path does not cover the grid")
        vals = np.exp(lw) * gv
        ratio = vals.mean(axis=0) / norm
        std_err = vals.std(axis=0, ddof=1) / np.sqrt(n) / np.abs(norm)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if floor is not None and ess.min() < floor:
        warnings.warn(f"effective sample size fell below {floor:g}", WeightCollapse)
    return ConditionalEstimate(ensemble.grid, ratio, std_err, ess)


def resample_multinomial(ensemble: PathEnsemble, seed: int,
                         at_step: int | None = None) -> PathEnsemble:
    """Multinomial resampling of whole paths using the weights at one step.

    Offspring counts are multinomial in the normalized weights at `at_step`
    (default: the final step); weights are reset to 1 from that step onward.
    The returned ensemble records the resampling step and is rejected by the
    minimum-variance estimators.
    """
    k = ensemble.grid.n_steps if at_step is None else at_step
    w, wsum, _ = normalized_weights(ensemble.log_weights()[:, k])
    idx = resample_indices(path_generator(seed, STREAM_RESAMPLE, 0), w, wsum)

    def reindex(mat):
        if mat is None:
            return None
        out = mat[idx].copy()
        out[:, k:] -= out[:, k][:, None]
        return out

    return replace(
        ensemble,
        states=ensemble.states[idx].copy(),
        log_weights_innovation=reindex(ensemble.log_weights_innovation),
        log_weights_girsanov=reindex(ensemble.log_weights_girsanov),
        resample_steps=ensemble.resample_steps + (k,),
    )


@dataclass(frozen=True)
class FilterResult:
    """Output of the sequential resampling particle filter."""

    grid: TimeGrid
    estimates: dict
    ess: np.ndarray
    resample_steps: tuple


def run_particle_filter(model, grid: TimeGrid, obs: ObservationRecord,
                        n_paths: int, seed: int, ess_floor: float = 0.5,
                        observables: dict | None = None) -> FilterResult:
    """Sequential Girsanov-weighted filter with ESS-triggered resampling.

    Per-step noise comes from streams keyed by the step index so the run is
    reproducible; multinomial resampling fires whenever the effective sample
    size drops below ess_floor * N.  `observables` maps names to callables;
    the identity is always included under "x".
    """
    if not obs.grid.matches(grid):
        raise GridMismatch("observation record does not cover the requested grid")
    floor = check_ess_floor(ess_floor) * n_paths
    sm = scalar_view(model)
    fns = {"x": lambda x: x}
    if observables:
        fns.update(observables)
    K = grid.n_steps
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K)

    x = sm.prior.sample(path_generator(seed, STREAM_FILTER, 0), n_paths)
    lw = np.zeros(n_paths)
    gen_resample = path_generator(seed, STREAM_RESAMPLE, 1)

    values = {name: np.empty(K + 1) for name in fns}
    errs = {name: np.empty(K + 1) for name in fns}
    ess_path = np.empty(K + 1)
    resample_steps = []
    for k in range(K + 1):
        x, lw, w, wsum, ess, resampled = resample_below(gen_resample, x, lw, floor)
        if resampled:
            resample_steps.append(k)
        ess_path[k] = n_paths if resampled else ess  # the ESS the estimates see
        for name, fn in fns.items():
            gv = np.asarray(fn(x), dtype=float)
            ratio = np.dot(w, gv) / wsum
            resid = gv - ratio
            values[name][k] = ratio
            errs[name][k] = np.sqrt(np.dot(w * w, resid * resid)) / wsum
        if k < K:
            noise = path_generator(seed, STREAM_FILTER, k + 1).standard_normal(n_paths)
            x, lw = weighted_step(x, lw, np.asarray(sm.drift(x), dtype=float),
                                  np.asarray(sm.obs(x), dtype=float), dZ[k], noise,
                                  sm.sigma, grid.dt)

    estimates = {
        name: ConditionalEstimate(grid, values[name], errs[name], ess_path.copy())
        for name in fns
    }
    return FilterResult(grid=grid, estimates=estimates, ess=ess_path,
                        resample_steps=tuple(resample_steps))
