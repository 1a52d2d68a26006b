"""Euler-Maruyama simulation of the forward SDE systems.

Simulates the signal/observation pair, weighted path ensembles under the
Girsanov change of measure (weights driven by the raw observations) and under
the innovation reweighting (mean-field weights driven by the innovation), and
computes innovation and observation-error processes.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stream tag, path index), so results are bit-reproducible regardless of
scheduling or worker count.  The 128-bit key is the word pair
(seed, stream << 48 | path index).  `path_generator` builds the generator of
one key; `_ensemble_noise` builds the one of path 0, snapshots its fresh
`bit_generator.state` (the key, a zero counter and an empty buffer) and, for
each path, writes the path's key word into the snapshot and assigns it back,
so row i holds exactly the draws of `path_generator(seed, stream, i)` without
constructing N generators.  Weights evolve in the log domain via the
exponential-martingale step, which is exact for observation maps that are
constant along a step.

Storage is time-major: the ensembles step through time, so the noise, the
states and the log-weights live in C-ordered buffers with one row per time
step, written and read a contiguous row at a time.  The arrays handed out keep
their path-major (N, ...) shapes as `.T` views of those buffers.

Forward kernels shared by the ensembles, the particle filter and the control
filter: `weighted_step` (one move and log-weight step), `resample_below` (the
ESS-triggered multinomial resampling), `per_step_path` and `cumulative_path`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, MissingTruthPath, SimulationDiverged, WeightCollapse
from .model import LinearGaussianModelSpec, TimeGrid, scalar_view

STATE_OVERFLOW = 1.0e8

# stream tags for the Philox key schedule
STREAM_TRUTH_STATE = 1
STREAM_TRUTH_OBS = 2
STREAM_GIRSANOV = 3
STREAM_INNOVATION = 4
STREAM_RESAMPLE = 5
STREAM_CONTROL_STATE = 6
STREAM_CONTROL_OBS = 7
STREAM_FILTER = 8

# paths per block of `_ensemble_noise`: the block of draws stays in cache while
# it is copied into the time-major noise buffer, one 1-KB run per time step
# (N = 10 000, K = 500, one Xeon core with 2 MB of L2: the copy takes 0.010 s,
# against 0.021 s in blocks of 64 paths)
_NOISE_BLOCK = 128


def _key_part(name: str, value: int, bits: int) -> int:
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def check_seed(seed: int) -> int:
    """Return seed if it fits the 64-bit key word, else raise ValueError."""
    return _key_part("seed", seed, 64)


def path_generator(seed: int, stream: int, path_index: int) -> np.random.Generator:
    """Philox generator for one (seed, stream, path) triple.

    Key parts outside their bit fields would alias other streams: rejected.
    """
    check_seed(seed)
    _key_part("stream", stream, 16)
    _key_part("path index", path_index, 48)
    key = np.array(
        [np.uint64(seed), (np.uint64(stream) << np.uint64(48)) | np.uint64(path_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _ensemble_noise(seed: int, stream: int, n_paths: int, n_steps: int,
                    with_obs_noise: bool = False):
    """Per-path initial draws (uniform, normal) plus step normals.

    Returns (u0, z0, xi, eta) with shapes (N,), (N,), (N, n_steps) and
    optionally (N, n_steps) observation-channel normals (drawn after the
    state noise, in a fixed order).  Row i holds the draws of
    path_generator(seed, stream, i), from one re-keyed generator (see the
    module docstring).  xi and eta are `.T` views of a time-major buffer, so
    the per-step column xi[:, k] is contiguous.
    """
    _key_part("path index", max(n_paths - 1, 0), 48)
    gen = path_generator(seed, stream, 0)
    fresh = gen.bit_generator.state  # key, zero counter, empty buffer
    key = fresh["state"]["key"]
    u0 = np.empty(n_paths)
    z0 = np.empty(n_paths)
    channels = 2 if with_obs_noise else 1
    noise = np.empty((channels, n_steps, n_paths))
    # a block of paths is drawn path-major (a path's xi row, then its eta row)
    # into a small buffer, then copied transposed into the time-major buffer
    block = np.empty((min(_NOISE_BLOCK, n_paths), channels, n_steps))
    for start in range(0, n_paths, _NOISE_BLOCK):
        stop = min(start + _NOISE_BLOCK, n_paths)
        for j, i in enumerate(range(start, stop)):
            key[1] = stream << 48 | i
            gen.bit_generator.state = fresh
            u0[i] = gen.random()
            z0[i] = gen.standard_normal()
            gen.standard_normal(out=block[j])
        noise[:, :, start:stop] = block[: stop - start].transpose(1, 2, 0)
    return u0, z0, noise[0].T, noise[1].T if with_obs_noise else None


def weighted_step(x, lw, b, c, d, noise, sigma: float, dt: float):
    """One forward step of a weighted ensemble, with b, c and d read at the
    pre-move state: the Euler-Maruyama move x + b dt + sigma sqrt(dt) noise and
    the exponential-martingale step d(log w) = c d - c^2 dt / 2."""
    return x + b * dt + sigma * np.sqrt(dt) * noise, lw + c * d - 0.5 * c * c * dt


def normalized_weights(lw: np.ndarray):
    """Shifted weights exp(lw - max lw), their sum and the effective sample size."""
    w = np.exp(lw - lw.max())
    wsum = w.sum()
    return w, wsum, wsum * wsum / np.dot(w, w)


def check_ess_floor(ess_floor) -> float:
    """ess_floor as a float: the fraction of the ensemble size below which the
    ESS triggers resampling or a collapse warning, which must be in [0, 1]."""
    floor = float(ess_floor)
    if not 0.0 <= floor <= 1.0:  # also rejects NaN
        raise ValueError(f"ess_floor must be in [0, 1], got {ess_floor!r}")
    return floor


def resample_indices(gen: np.random.Generator, w: np.ndarray, wsum) -> np.ndarray:
    """Multinomial offspring indices for weights w with sum wsum."""
    n = w.shape[0]
    return np.repeat(np.arange(n), gen.multinomial(n, w / wsum))


def resample_below(gen: np.random.Generator, x: np.ndarray, lw: np.ndarray, floor: float):
    """Multinomial resampling of (x, lw) if the ESS is below floor.  Returns (x, lw,
    w, wsum, ess, resampled): the ensemble handed back (offspring with log-weights 0
    if it resampled), its `normalized_weights` and sum, and the ESS before."""
    w, wsum, ess = normalized_weights(lw)
    resampled = bool(ess < floor)
    if resampled:
        n = x.shape[0]
        x = x[resample_indices(gen, w, wsum)]
        lw, w, wsum = np.zeros(n), np.ones(n), float(n)
    return x, lw, w, wsum, ess, resampled


def per_step_path(values, grid: TimeGrid, label: str) -> np.ndarray:
    """A per-step path of n_steps entries; an (n_steps + 1)-th entry is dropped."""
    path = np.asarray(values, dtype=float).reshape(-1)
    if path.shape[0] == grid.n_steps + 1:
        path = path[:-1]
    if path.shape[0] != grid.n_steps:
        raise GridMismatch(f"{label} must have n_steps or n_steps + 1 entries")
    return path


def cumulative_path(increments) -> np.ndarray:
    """Running sums along axis 0 with a leading zero: out[k] = sum_{j<k} inc[j]."""
    inc = np.asarray(increments)
    return np.concatenate([np.zeros((1,) + inc.shape[1:]), np.cumsum(inc, axis=0)])


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationRecord:
    """A simulated (or supplied) observation path on a time grid.

    Z is the cumulative observation with Z[0] = 0; dZ holds the per-step
    increments, so Z = [0, cumsum(dZ)] bitwise.  Synthetic records carry the
    truth path and the recoverable measurement-noise accumulation.
    """

    grid: TimeGrid
    Z: np.ndarray
    dZ: np.ndarray
    X_truth: np.ndarray | None = None
    noise_cum: np.ndarray | None = None
    innovation: np.ndarray | None = None
    obs_error: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.Z.shape[0] != self.grid.n_steps + 1:
            raise GridMismatch("Z must have n_steps + 1 entries")
        if self.dZ.shape[0] != self.grid.n_steps:
            raise GridMismatch("dZ must have n_steps entries")
        if np.any(np.atleast_1d(self.Z[0]) != 0.0):
            raise ValueError("Z must start at 0")

    def to_npz(self, path) -> None:
        data = {"t_end": self.grid.t_end, "n_steps": self.grid.n_steps,
                "Z": self.Z, "dZ": self.dZ}
        for name in ("X_truth", "noise_cum", "innovation", "obs_error", "seed"):
            if getattr(self, name) is not None:
                data[name] = getattr(self, name)
        np.savez_compressed(path, **data)

    @staticmethod
    def from_npz(path, grid: TimeGrid | None = None,
                 n_obs: int | None = None) -> "ObservationRecord":
        """Load a record; Z and dZ must be finite, and when `grid` or `n_obs` is
        given the record must lie on that grid and carry that many channels."""
        with np.load(path) as data:
            record = ObservationRecord(
                grid=TimeGrid(float(data["t_end"]), int(data["n_steps"])),
                Z=data["Z"],
                dZ=data["dZ"],
                X_truth=data["X_truth"] if "X_truth" in data else None,
                noise_cum=data["noise_cum"] if "noise_cum" in data else None,
                innovation=data["innovation"] if "innovation" in data else None,
                obs_error=data["obs_error"] if "obs_error" in data else None,
                seed=int(data["seed"]) if "seed" in data else None,
            )
        if grid is not None and not record.grid.matches(grid):
            raise GridMismatch(f"record grid (T={record.grid.t_end:g}, "
                               f"{record.grid.n_steps} steps) differs from "
                               f"T={grid.t_end:g}, {grid.n_steps} steps")
        if not (np.isfinite(record.Z).all() and np.isfinite(record.dZ).all()):
            raise ValueError("observation record holds non-finite Z or dZ values")
        channels = 1 if record.dZ.ndim == 1 else record.dZ.shape[1]
        if n_obs is not None and channels != n_obs:
            raise GridMismatch(f"record has {channels} observation channels, "
                               f"the model {n_obs}")
        return record


@dataclass(frozen=True)
class PathEnsemble:
    """N simulated signal paths with optional log-weight processes.

    states has shape (N, n_steps + 1).  The simulators return it and the
    log-weights as `.T` views of time-major (n_steps + 1, N) buffers, so the
    time slice states[:, k] is contiguous; `to_npz`/`from_npz` keep that
    layout, and any other layout gives the same numbers.  Weight processes are
    stored in the log domain (log-weight 0 at t = 0).  Innovation-weighted
    ensembles also record the realized mean-field path pi_h and the innovation
    increments they were driven by.
    """

    grid: TimeGrid
    states: np.ndarray
    log_weights_innovation: np.ndarray | None = None
    log_weights_girsanov: np.ndarray | None = None
    pi_h_path: np.ndarray | None = None
    innovation_increments: np.ndarray | None = None
    seed: int | None = None
    stream: int | None = None
    resample_steps: tuple = ()
    collapse_step: int | None = None

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def log_weights(self, kind: str | None = None) -> np.ndarray:
        """The (N, n_steps + 1) log-weights of one kind ("innovation" or
        "girsanov"); kind=None takes the innovation weights when present."""
        if kind is None:
            kind = "innovation" if self.log_weights_innovation is not None else "girsanov"
        lw = {"innovation": self.log_weights_innovation,
              "girsanov": self.log_weights_girsanov}.get(kind)
        if lw is None:
            raise ValueError(f"ensemble carries no {kind} weights")
        return lw

    def to_npz(self, path) -> None:
        data = {"t_end": self.grid.t_end, "n_steps": self.grid.n_steps,
                "states": self.states}
        for name in ("log_weights_innovation", "log_weights_girsanov",
                     "pi_h_path", "innovation_increments"):
            val = getattr(self, name)
            if val is not None:
                data[name] = val
        if self.seed is not None:
            data["seed"] = self.seed
        if self.stream is not None:
            data["stream"] = self.stream
        data["resample_steps"] = np.array(self.resample_steps, dtype=int)
        np.savez_compressed(path, **data)

    @staticmethod
    def from_npz(path) -> "PathEnsemble":
        with np.load(path) as data:
            grid = TimeGrid(float(data["t_end"]), int(data["n_steps"]))
            get = lambda k: data[k] if k in data else None
            return PathEnsemble(
                grid=grid,
                states=data["states"],
                log_weights_innovation=get("log_weights_innovation"),
                log_weights_girsanov=get("log_weights_girsanov"),
                pi_h_path=get("pi_h_path"),
                innovation_increments=get("innovation_increments"),
                seed=int(data["seed"]) if "seed" in data else None,
                stream=int(data["stream"]) if "stream" in data else None,
                resample_steps=tuple(int(s) for s in data["resample_steps"]),
            )


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def _check_overflow(x) -> None:
    if np.any(np.abs(x) > STATE_OVERFLOW) or not np.all(np.isfinite(x)):
        raise SimulationDiverged(f"state exceeded {STATE_OVERFLOW:g}")


def simulate_truth_and_obs(model, grid: TimeGrid, seed: int,
                           drift_fn=None) -> ObservationRecord:
    """Simulate one signal path and its observation record.

    X_{k+1} = X_k + b(X_k) dt + sigma sqrt(dt) xi_k,
    Z_{k+1} = Z_k + h(X_k) dt + sqrt(dt) eta_k,  Z_0 = 0,  X_0 ~ prior.

    An optional drift_fn(k, x) overrides the model drift (controlled truth
    dynamics); supported on the scalar path only.
    """
    dt = grid.dt
    sqdt = np.sqrt(dt)
    K = grid.n_steps

    gen_x = path_generator(seed, STREAM_TRUTH_STATE, 0)
    gen_z = path_generator(seed, STREAM_TRUTH_OBS, 0)
    if isinstance(model, LinearGaussianModelSpec) and model.n_state > 1:
        if drift_fn is not None:
            raise ValueError("drift_fn override is supported on the scalar path only")
        X = np.empty((K + 1, model.n_state))
        X[0] = model.draw_initial_state(gen_x)
        xi = gen_x.standard_normal((K, model.n_state))
        eta = gen_z.standard_normal((K, model.n_obs))
        for k in range(K):
            X[k + 1] = X[k] + (model.A.T @ X[k]) * dt + model.sigma * sqdt * xi[k]
        _check_overflow(X)
        signal = (X[:-1] @ model.H) * dt
    else:
        sm = scalar_view(model)
        X = np.empty(K + 1)
        X[0] = sm.prior.sample(gen_x, 1)[0]
        xi = gen_x.standard_normal(K)
        eta = gen_z.standard_normal(K)
        for k in range(K):
            b = sm.drift(X[k]) if drift_fn is None else float(drift_fn(k, X[k]))
            X[k + 1] = X[k] + b * dt + sm.sigma * sqdt * xi[k]
            if abs(X[k + 1]) > STATE_OVERFLOW:
                raise SimulationDiverged(f"state exceeded {STATE_OVERFLOW:g} at step {k + 1}")
        signal = np.asarray(sm.obs(X[:-1])) * dt
    dZ = signal + sqdt * eta
    return ObservationRecord(grid=grid, Z=cumulative_path(dZ), dZ=dZ, X_truth=X,
                             noise_cum=cumulative_path(dZ - signal), seed=seed)


def _simulate_weighted_ensemble(
    model,
    grid: TimeGrid,
    obs: ObservationRecord | None,
    n_paths: int,
    seed: int,
    kind: str,
    pi_h_source="self",
    drift_fn=None,
    ess_floor: float | None = None,
):
    """Shared core for the Girsanov- and innovation-weighted ensembles.

    With obs=None every path draws its own fresh Brownian observation
    increments, realizing the reference measure where the driving channel is
    an independent Brownian motion (used by the martingale and
    unconditional-variance checks).
    """
    sm = scalar_view(model)
    dt = grid.dt
    K = grid.n_steps
    floor = (check_ess_floor(ess_floor) if ess_floor is not None else 0.0) * n_paths

    stream = STREAM_GIRSANOV if kind == "girsanov" else STREAM_INNOVATION
    fresh = obs is None
    u0, z0, xi, eta = _ensemble_noise(seed, stream, n_paths, K,
                                      with_obs_noise=fresh)
    if fresh:
        dZ_paths = np.sqrt(dt) * eta  # (N, K), independent per path
        dZ = None
    else:
        if not obs.grid.matches(grid):
            raise GridMismatch("observation record does not cover the requested grid")
        dZ = np.asarray(obs.dZ, dtype=float).reshape(K)
        dZ_paths = None
    # time-major buffers: each step reads and writes contiguous rows
    X = np.empty((K + 1, n_paths))
    lw = np.empty((K + 1, n_paths))
    X[0] = xk = sm.prior.from_draws(u0, z0)
    lw[0] = lwk = np.zeros(n_paths)

    external_pi_h = None
    if kind == "innovation" and not (isinstance(pi_h_source, str) and pi_h_source == "self"):
        external_pi_h = per_step_path(pi_h_source, grid, "pi_h source")

    pi_h_path = np.empty(K) if kind == "innovation" else None
    dI = np.empty(K) if kind == "innovation" and not fresh else None
    collapse_step = None

    for k in range(K):
        c = np.asarray(sm.obs(xk), dtype=float)
        d = dZ_paths[:, k] if fresh else dZ[k]
        if kind == "innovation":
            if external_pi_h is not None:
                pih = external_pi_h[k]
            else:
                w, wsum, _ = normalized_weights(lwk)
                pih = float(np.dot(w, c) / wsum)
            pi_h_path[k] = pih
            c, d = c - pih, d - pih * dt
            if not fresh:
                dI[k] = d
        b = np.asarray(sm.drift(xk), dtype=float) if drift_fn is None else \
            np.asarray(drift_fn(k, xk), dtype=float)
        xk, lwk = weighted_step(xk, lwk, b, c, d, xi[:, k], sm.sigma, dt)
        X[k + 1] = xk
        lw[k + 1] = lwk
        if np.any(np.abs(xk) > STATE_OVERFLOW):
            raise SimulationDiverged(f"ensemble state exceeded {STATE_OVERFLOW:g} at step {k + 1}")
        if floor > 0 and collapse_step is None:
            if normalized_weights(lwk)[2] < floor:
                collapse_step = k + 1
                warnings.warn(
                    f"effective sample size fell below {floor:g} at step {k + 1}",
                    WeightCollapse,
                )
    if not np.all(np.isfinite(lw)):
        raise SimulationDiverged("log-weights became non-finite")

    return PathEnsemble(
        grid=grid,
        states=X.T,
        log_weights_innovation=lw.T if kind == "innovation" else None,
        log_weights_girsanov=lw.T if kind == "girsanov" else None,
        pi_h_path=pi_h_path,
        innovation_increments=dI,
        seed=seed,
        stream=stream,
        collapse_step=collapse_step,
    )


def simulate_girsanov_ensemble(model, grid, obs, n_paths, seed,
                               ess_floor=None) -> PathEnsemble:
    """N independent signal paths with Girsanov log-weights.

    d(log w) = h(X) dZ - 0.5 h(X)^2 dt along the given observation record;
    obs=None replaces the record by fresh per-path Brownian increments
    (the reference-measure law, under which the weights are a martingale).
    """
    return _simulate_weighted_ensemble(
        model, grid, obs, n_paths, seed, "girsanov", ess_floor=ess_floor
    )


def simulate_innovation_ensemble(model, grid, obs, n_paths, seed,
                                 pi_h_source="self", drift_fn=None,
                                 ess_floor=None) -> PathEnsemble:
    """N signal paths with mean-field innovation log-weights.

    d(log w) = (h - pi[h]) dI - 0.5 (h - pi[h])^2 dt with
    dI = dZ - pi[h] dt.  pi_h_source is either "self" (self-normalized
    ensemble average, the mean-field closure) or an explicit pi[h] path, e.g.
    from a Kalman-Bucy run.  An optional drift_fn(k, x) overrides the model
    drift (controlled dynamics).  obs=None drives each path with its own
    fresh Brownian innovation increments.
    """
    return _simulate_weighted_ensemble(
        model, grid, obs, n_paths, seed, "innovation",
        pi_h_source=pi_h_source, drift_fn=drift_fn, ess_floor=ess_floor,
    )


# ---------------------------------------------------------------------------
# derived processes
# ---------------------------------------------------------------------------

def compute_innovation(obs: ObservationRecord, pi_h_path) -> np.ndarray:
    """Innovation path I_k = Z_k - sum_{j<k} pi_h_j dt (left-point sum)."""
    pih = per_step_path(pi_h_path, obs.grid, "pi_h path")
    return cumulative_path(np.asarray(obs.dZ).reshape(obs.grid.n_steps) - pih * obs.grid.dt)


def compute_observation_error(model, obs: ObservationRecord) -> np.ndarray:
    """Observation-error path W_k = Z_k - sum_{j<k} h(X_j) dt.

    Requires the synthetic truth path; for simulator output this reproduces
    the stored measurement-noise accumulation bit-exactly.
    """
    if obs.X_truth is None:
        raise MissingTruthPath("observation record carries no truth path")
    signal = np.asarray(model.obs(obs.X_truth[:-1]), dtype=float) * obs.grid.dt
    return cumulative_path(np.asarray(obs.dZ).reshape(signal.shape) - signal)


def with_scaled_initial_weights(ensemble: PathEnsemble, scale: float) -> PathEnsemble:
    """Copy of an ensemble with every weight process multiplied by `scale`.

    Testing hook for the weight-linearity property of the estimators.
    """
    shift = np.log(scale)
    kwargs = {}
    if ensemble.log_weights_innovation is not None:
        kwargs["log_weights_innovation"] = ensemble.log_weights_innovation + shift
    if ensemble.log_weights_girsanov is not None:
        kwargs["log_weights_girsanov"] = ensemble.log_weights_girsanov + shift
    return replace(ensemble, **kwargs)
