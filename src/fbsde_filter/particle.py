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
    log_weight_step,
    normalized_weights,
    path_generator,
    resample_indices,
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


def _ess_path(w: np.ndarray) -> np.ndarray:
    s = w.sum(axis=0)
    return s * s / np.einsum("ij,ij->j", w, w)


def sigma_estimate(ensemble: PathEnsemble, g) -> ConditionalEstimate:
    """Unnormalized conditional expectation: mean of girsanov-weight * g(X)."""
    w = np.exp(ensemble.log_weights("girsanov"))
    vals = w * np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    mean = vals.mean(axis=0)
    std_err = vals.std(axis=0, ddof=1) / np.sqrt(n)
    return ConditionalEstimate(ensemble.grid, mean, std_err, _ess_path(w))


def pi_estimate(ensemble: PathEnsemble, g, normalization: str = "self",
                normalizer=None, ess_floor: float | None = None) -> ConditionalEstimate:
    """Normalized conditional expectation.

    normalization="self" uses the ratio estimator sum(w g) / sum(w);
    "external" divides the plain mean of w g(X) by a supplied per-time
    normalizer path (e.g. a sigma_t[1] estimate).
    """
    w = np.exp(ensemble.log_weights())
    gv = np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    ess = _ess_path(w)
    if normalization == "self":
        wsum = w.sum(axis=0)
        ratio = np.einsum("ij,ij->j", w, gv) / wsum
        resid = gv - ratio[None, :]
        std_err = np.sqrt(np.einsum("ij,ij->j", w * w, resid * resid)) / wsum
    elif normalization == "external":
        if normalizer is None:
            raise ValueError("external normalization requires a normalizer path")
        norm = np.asarray(normalizer, dtype=float)
        if norm.shape[0] != ensemble.grid.n_steps + 1:
            raise GridMismatch("normalizer path does not cover the grid")
        vals = w * gv
        ratio = vals.mean(axis=0) / norm
        std_err = vals.std(axis=0, ddof=1) / np.sqrt(n) / np.abs(norm)
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if ess_floor is not None and ess.min() < ess_floor * n:
        warnings.warn(
            f"effective sample size fell below {ess_floor * n:g}", WeightCollapse
        )
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
    sm = scalar_view(model)
    fns = {"x": lambda x: x}
    if observables:
        fns.update(observables)
    dt = grid.dt
    sqdt = np.sqrt(dt)
    K = grid.n_steps
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K)

    gen0 = path_generator(seed, STREAM_FILTER, 0)
    x = sm.prior.sample(gen0, n_paths)
    lw = np.zeros(n_paths)
    gen_resample = path_generator(seed, STREAM_RESAMPLE, 1)

    values = {name: np.empty(K + 1) for name in fns}
    errs = {name: np.empty(K + 1) for name in fns}
    ess_path = np.empty(K + 1)
    resample_steps = []

    def record(k):
        w, wsum, ess_path[k] = normalized_weights(lw)
        for name, fn in fns.items():
            gv = np.asarray(fn(x), dtype=float)
            ratio = np.dot(w, gv) / wsum
            resid = gv - ratio
            values[name][k] = ratio
            errs[name][k] = np.sqrt(np.dot(w * w, resid * resid)) / wsum

    record(0)
    for k in range(K):
        lw = log_weight_step(lw, np.asarray(sm.obs(x), dtype=float), dZ[k], dt)
        gen_k = path_generator(seed, STREAM_FILTER, k + 1)
        x = x + np.asarray(sm.drift(x), dtype=float) * dt \
            + sm.sigma * sqdt * gen_k.standard_normal(n_paths)
        w, wsum, ess = normalized_weights(lw)
        if ess < ess_floor * n_paths:
            x = x[resample_indices(gen_resample, w, wsum)]
            lw = np.zeros(n_paths)
            resample_steps.append(k + 1)
        record(k + 1)

    estimates = {
        name: ConditionalEstimate(grid, values[name], errs[name], ess_path.copy())
        for name in fns
    }
    return FilterResult(grid=grid, estimates=estimates, ess=ess_path,
                        resample_steps=tuple(resample_steps))
