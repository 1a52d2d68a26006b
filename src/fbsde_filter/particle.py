"""Weighted-ensemble approximations of the conditional expectations.

sigma-type functionals are plain ensemble averages of weight * g(X) under the
Girsanov weights (Zakai normalization); pi-type functionals are
self-normalized ratio estimators.  Multinomial resampling is available for
long-horizon filtering, but resampled ensembles are rejected by the
minimum-variance estimators, which require raw weighted paths.  The filter runs
on `sde_sim.weighted_paths`, the one forward loop over a weighted population,
resampling on STREAM_RESAMPLE key index 1 (the control filter uses index 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, WeightCollapse
from .io import write_columns
from .model import TimeGrid, scalar_view
from .sde_sim import (
    STREAM_FILTER,
    STREAM_RESAMPLE,
    ObservationRecord,
    PathEnsemble,
    check_ess_floor,
    check_n_paths,
    normalized_weights,
    path_dot,
    path_generator,
    raw_weights,
    resample_indices,
    weighted_paths,
)


@dataclass(frozen=True)
class ConditionalEstimate:
    """Per-time Monte Carlo estimate of a conditional functional."""

    grid: TimeGrid
    values: np.ndarray
    std_err: np.ndarray
    ess: np.ndarray

    def to_csv(self, path) -> None:
        write_columns(path, {"t": self.grid.times(), "value": self.values,
                             "std_err": self.std_err, "ess": self.ess})


def sigma_estimate(ensemble: PathEnsemble, g) -> ConditionalEstimate:
    """Unnormalized conditional expectation: mean of girsanov-weight * g(X).
    Raises WeightUnderflow when every weight of a step underflows to 0."""
    lw = ensemble.log_weights("girsanov")
    vals = raw_weights(lw.T).T * np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    mean = vals.mean(axis=0)
    std_err = vals.std(axis=0, ddof=1) / np.sqrt(n)
    return ConditionalEstimate(ensemble.grid, mean, std_err, normalized_weights(lw)[2])


def pi_estimate(ensemble: PathEnsemble, g, normalization: str = "self",
                normalizer=None, ess_floor: float | None = None) -> ConditionalEstimate:
    """Normalized conditional expectation.

    normalization="self" uses the ratio estimator sum(w g) / sum(w) with the
    weights max-shifted per time, so a common log-weight shift cancels;
    "external" divides the plain mean of w g(X) by a supplied per-time
    normalizer path (e.g. a sigma_t[1] estimate) and raises WeightUnderflow
    when every raw weight of a step underflows to 0.
    """
    floor = None if ess_floor is None else check_ess_floor(ess_floor) * ensemble.n_paths
    lw = ensemble.log_weights()
    gv = np.asarray(g(ensemble.states), dtype=float)
    n = ensemble.n_paths
    w, wsum, ess = normalized_weights(lw)
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
        vals = raw_weights(lw.T).T * gv
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
    (default: the final step), an integer in [0, n_steps]; weights are reset to
    1 from that step onward.  The returned ensemble records the resampling step
    and is rejected by the minimum-variance estimators.
    """
    n_steps = ensemble.grid.n_steps
    k = n_steps if at_step is None else at_step
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= n_steps:
        raise ValueError(f"at_step must be an integer in [0, {n_steps}], got {at_step!r}")
    k = int(k)
    w, wsum, _ = normalized_weights(ensemble.log_weights()[:, k])
    idx = resample_indices(path_generator(seed, STREAM_RESAMPLE, 0), w, wsum)

    def reindex(mat, reset=True):
        if mat is None:
            return None
        out = np.take(mat.T, idx, axis=1).T  # time-major, as the simulators store it
        if reset:
            out[:, k:] -= out[:, k][:, None]
        return out

    return replace(
        ensemble,
        states=reindex(ensemble.states, reset=False),
        log_weights_innovation=reindex(ensemble.log_weights_innovation),
        log_weights_girsanov=reindex(ensemble.log_weights_girsanov),
        resample_steps=ensemble.resample_steps + (k,),
    )


@dataclass(frozen=True)
class FilterResult:
    """Output of the sequential resampling particle filter.

    ess[k] is the ESS at step k before the resampling decision, so it reads
    below the floor at every step in resample_steps; each estimate's ess is
    the ESS of the weights it was computed with (N after a resampling).
    """

    grid: TimeGrid
    estimates: dict
    ess: np.ndarray
    resample_steps: tuple


def run_particle_filter(model, grid: TimeGrid, obs: ObservationRecord,
                        n_paths: int, seed: int, ess_floor: float = 0.5,
                        observables: dict | None = None) -> FilterResult:
    """Sequential Girsanov-weighted filter on `weighted_paths` (resampling key
    index 1), resampling whenever the ESS drops below ess_floor * N.
    `observables` maps names to callables; the identity is always included
    under "x".
    """
    if not obs.grid.matches(grid):
        raise GridMismatch("observation record does not cover the requested grid")
    ess_floor = check_ess_floor(ess_floor)
    n_paths = check_n_paths(n_paths)
    sm = scalar_view(model)
    fns = {"x": lambda x: x, **(observables or {})}
    K = grid.n_steps
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K)

    values = {name: np.empty(K + 1) for name in fns}
    errs = {name: np.empty(K + 1) for name in fns}
    ess_path = np.empty(K + 1)  # before the resampling decision
    seen_path = np.empty(K + 1)  # the ESS the estimates see
    resample_steps = []
    steps = weighted_paths(sm, grid, n_paths, seed, STREAM_FILTER, ess_floor * n_paths, 1)
    for k in range(K + 1):  # step k - 1 is taken on dZ[k - 1]
        x, w, wsum, ess, resampled, _ = steps.send(None if k == 0 else (b, c, dZ[k - 1]))
        if resampled:
            resample_steps.append(k)
        ess_path[k] = ess
        seen_path[k] = n_paths if resampled else ess
        w2 = w * w
        for name, fn in fns.items():
            gv = np.asarray(fn(x), dtype=float)
            ratio = path_dot(w, gv) / wsum
            resid = gv - ratio
            values[name][k] = ratio
            errs[name][k] = np.sqrt(path_dot(w2, resid * resid)) / wsum
        if k < K:
            b, c = np.asarray(sm.drift(x), dtype=float), np.asarray(sm.obs(x), dtype=float)

    estimates = {
        name: ConditionalEstimate(grid, values[name], errs[name], seen_path.copy())
        for name in fns
    }
    return FilterResult(grid=grid, estimates=estimates, ess=ess_path,
                        resample_steps=tuple(resample_steps))
