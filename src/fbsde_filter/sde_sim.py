"""Euler-Maruyama simulation of the forward SDE systems.

Simulates the signal/observation pair, weighted path ensembles under the
Girsanov change of measure (weights driven by the raw observations) and under
the innovation reweighting (mean-field weights driven by the innovation), and
computes innovation and observation-error processes.  Weights evolve in the
log domain via the exponential-martingale step, which is exact for observation
maps that are constant along a step.

Randomness is drawn from counter-based Philox streams, so results are
bit-reproducible regardless of scheduling.  The 128-bit key is the word pair
(seed, stream << 48 | index), and `path_generator` builds the generator of one
key.  `weighted_paths`, the one forward loop over a weighted population (under
the weighted ensembles, the particle filter and the particle control filter),
reads one schedule through `_ensemble_noise`: the initial draws (N uniforms,
then N normals) are those of key index 0, and the normals of step k
(k = 0 .. K - 1) are the draws of key index k + 1, the N state normals first and
then, for an ensemble with fresh observation noise, N observation normals.

The step rows come a block of max(1, 2**17 // N) steps at a time, each block
filled by `_fill_rows`: it builds one generator with `path_generator` and, for
each row, writes the row's key word into the generator's fresh
`bit_generator.state` (the key, a zero counter and an empty buffer) and assigns
it back, so no generator is built per step.  With at least 2**11 paths a block
is filled one block ahead on a single worker thread (a `ThreadPoolExecutor`
created on first use and dropped in a forked child) while the caller steps
through the block before it; numpy releases the interpreter lock inside the
fill.  With fewer paths a row fills in a few microseconds, the thread's
hand-offs cost more than they hide, and the caller fills each block as it
reaches it.  A row's bits depend only on its key, so the outputs do not depend
on where or when a block is filled.  The worker calls nothing but
`path_generator` and the fill.

Storage is time-major: the ensembles step through time, so the states and the
log-weights live in C-ordered buffers with one row per time step, written and
read a contiguous row at a time.  The arrays handed out keep their path-major
(N, ...) shapes as `.T` views of those buffers.

`weighted_paths` steps with `weighted_step` (one move and log-weight step) on the
drift, observation slope and increment its consumer sends back.  The consumers
share `path_dot` (every weighted sum over the paths), `normalized_weights` and
`raw_weights` (every weight read-out: shifted by the max with the ESS, or raw
with an underflow check), `per_step_path` and `cumulative_path`.  `truth_step`
is the one move of every truth path, open- or closed-loop.

`_save_npz` and `_load_npz` are the one npz writer and reader of both records,
`ObservationRecord` and `PathEnsemble`: the grid's t_end and n_steps, then every
field that is set.  The reader rejects a file that lacks t_end, n_steps or a
field without a default, and both reject a float array holding NaN or +-inf
(ValueError naming the array); the writer then makes no file.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
import zipfile
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (GridMismatch, MissingTruthPath, SimulationDiverged, WeightCollapse,
                     WeightUnderflow)
from .model import LinearGaussianModelSpec, TimeGrid, _check_count, scalar_view

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

# draws per channel in one block of step rows (1 MB: it stays in L2 while read)
_NOISE_BLOCK = 1 << 17
# fewest paths whose blocks are filled ahead on the worker (2-vCPU host, one
# BLAS thread: drawing ahead cut the double-well ensemble and particle filter
# by a sixth at N = 3 000 and a third at N = 10 000, and cost a fifth at
# N = 1 000; about even in between)
_AHEAD_PATHS = 1 << 11

_worker = None
_worker_lock = threading.Lock()


def _key_part(name: str, value: int, bits: int) -> int:
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{name} must lie in [0, 2**{bits}), got {value}")
    return value


def check_seed(seed: int) -> int:
    """Return seed if it fits the 64-bit key word, else raise ValueError."""
    return _key_part("seed", seed, 64)


def path_generator(seed: int, stream: int, index: int) -> np.random.Generator:
    """Philox generator for one (seed, stream, index) key: index is a path's
    index or, in the step-keyed schedule, a step's.

    Key parts outside their bit fields would alias other streams: rejected.
    """
    check_seed(seed)
    _key_part("stream", stream, 16)
    _key_part("key index", index, 48)
    key = np.array(
        [np.uint64(seed), (np.uint64(stream) << np.uint64(48)) | np.uint64(index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _noise_worker():
    """The single thread that fills noise blocks, created on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fbsde-noise")
        return _worker


def _forget_worker() -> None:
    # a forked child inherits the executor but not its thread: start afresh
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _fill_rows(seed: int, stream: int, first: int, rows: np.ndarray) -> np.ndarray:
    """rows[j] <- the normals of key index first + j, on one re-keyed generator."""
    gen = path_generator(seed, stream, first)
    fresh = gen.bit_generator.state  # key, zero counter, empty buffer
    key = fresh["state"]["key"]
    for j, row in enumerate(rows):
        key[1] = stream << 48 | first + j
        gen.bit_generator.state = fresh
        gen.standard_normal(out=row)
    return rows


def _rows_ahead(submit, size: int, n_steps: int, pending):
    """Yield the step rows block by block, submitting each block's successor
    before handing out its rows; a stream dropped early cancels its pending
    block, which no other stream shares."""
    try:
        for start in range(0, n_steps, size):
            rows = pending.result()
            pending = submit(start + size) if start + size < n_steps else None
            yield from rows
    finally:
        if pending is not None:
            pending.cancel()


def _ensemble_noise(seed: int, stream: int, n_paths: int, n_steps: int,
                    with_obs_noise: bool = False):
    """Initial draws and step rows of a forward loop (see the module docstring).

    Returns (u0, z0, rows): N uniforms and then N normals of key index 0, and an
    iterator over the n_steps step rows, row k holding the normals of key index
    k + 1: (N,) state normals or, with_obs_noise, (2, N) state then observation
    normals.  On the worker, the first block is submitted before the initial
    draws are made.  A row stays valid after the iterator moves on.
    """
    check_seed(seed)
    _key_part("stream", stream, 16)
    _key_part("step index", n_steps, 48)
    size = max(1, _NOISE_BLOCK // max(n_paths, 1))
    shape = (2, n_paths) if with_obs_noise else (n_paths,)

    def fill(start):
        rows = np.empty((min(size, n_steps - start),) + shape)
        return _fill_rows(seed, stream, start + 1, rows)

    if n_paths < _AHEAD_PATHS or n_steps == 0:
        rows = (row for start in range(0, n_steps, size) for row in fill(start))
    else:
        worker = _noise_worker()
        submit = lambda start: worker.submit(fill, start)
        rows = _rows_ahead(submit, size, n_steps, submit(0))
    gen = path_generator(seed, stream, 0)
    return gen.random(n_paths), gen.standard_normal(n_paths), rows


def weighted_step(x, lw, b, c, d, noise, sigma: float, dt: float, step: int, out=None):
    """One forward step of a weighted ensemble, with b, c and d read at the
    pre-move state: the Euler-Maruyama move x + b dt + sigma sqrt(dt) noise and
    the exponential-martingale step d(log w) = c d - c^2 dt / 2.

    Returns (x_row, lw_row), (x + b dt) + (sigma sqrt(dt)) noise and
    (lw + c d) - ((0.5 c) c) dt, written into out=(x_row, lw_row) when it is
    given and into new arrays otherwise.  The log-weights are formed with numpy's
    overflow reports off and checked by one sum: SimulationDiverged naming
    `step` when it is not finite.
    """
    scale = sigma * np.sqrt(dt)
    if out is None:
        out = (np.empty_like(x), np.empty_like(lw))
    x_row, lw_row = out
    np.multiply(b, dt, out=x_row)
    x_row += x
    x_row += np.multiply(noise, scale)
    # here, not around the loop of `weighted_paths`: its consumer runs between yields
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(c, d, out=lw_row)
        lw_row += lw
        square = np.multiply(c, 0.5)
        square *= c
        square *= dt
        lw_row -= square
        total = np.add.reduce(lw_row)
    if not math.isfinite(total):
        raise SimulationDiverged(f"log-weights not finite at step {step}")
    return out


def path_dot(a: np.ndarray, b: np.ndarray):
    """sum_i a_i b_i over the path axis, with numpy's own loop rather than a BLAS
    dot, whose last bits depend on how many threads split the sum."""
    return np.einsum("i,i->", a, b)


def normalized_weights(lw: np.ndarray):
    """Shifted weights exp(lw - max lw), their sum and the effective sample size
    of log-weights with the paths on axis 0: one step (N,) or one column per time
    (N, K + 1), each column shifted by its own max.  A common shift of lw leaves
    all three unchanged up to rounding."""
    w = np.exp(lw - lw.max(axis=0))
    wsum = w.sum(axis=0)
    return w, wsum, wsum * wsum / np.einsum("i...,i...->...", w, w)


def raw_weights(lw: np.ndarray, first_step: int = 0) -> np.ndarray:
    """exp(lw) of time-major log-weight rows (..., N), row j being step
    first_step + j; WeightUnderflow when every weight of a step underflows to 0."""
    w = np.exp(lw)
    top = w.max(axis=-1)
    if not top.all():
        raise WeightUnderflow(f"every weight underflows to 0 at "
                              f"step {first_step + int(np.argmax(top == 0.0))}")
    return w


def check_ess_floor(ess_floor) -> float:
    """ess_floor as a float: the fraction of the ensemble size below which the
    ESS triggers resampling or a collapse warning, which must be in [0, 1]."""
    floor = float(ess_floor)
    if not 0.0 <= floor <= 1.0:  # also rejects NaN
        raise ValueError(f"ess_floor must be in [0, 1], got {ess_floor!r}")
    return floor


def check_n_paths(n_paths) -> int:
    """n_paths as an int: an ensemble size must be an integer (a numpy one too, not
    a bool) of at least 2, since one path has no spread."""
    _check_count("n_paths", n_paths, 2)
    return int(n_paths)


def resample_indices(gen: np.random.Generator, w: np.ndarray, wsum) -> np.ndarray:
    """Multinomial offspring indices for weights w with sum wsum."""
    n = w.shape[0]
    return np.repeat(np.arange(n), gen.multinomial(n, w / wsum))


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

def _finite(path, name: str, value: np.ndarray) -> np.ndarray:
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        raise ValueError(f"{path}: {name!r} holds non-finite values")
    return value


def _save_npz(record, path) -> None:
    """Write a record as its first field, the grid, by t_end and n_steps, then every
    field that is set, a tuple as an integer array; ValueError naming the array,
    and no file, if a float array holds NaN or +-inf."""
    data = {"t_end": record.grid.t_end, "n_steps": record.grid.n_steps}
    for f in fields(record)[1:]:
        value = getattr(record, f.name)
        if value is not None:
            value = np.asarray(value, dtype=int if isinstance(value, tuple) else None)
            data[f.name] = _finite(path, f.name, value)
    np.savez_compressed(path, **data)


def _load_npz(cls, path):
    """The `cls` record of a file `_save_npz` wrote.  ValueError if the file is not
    an npz archive, if it lacks t_end, n_steps or a field without a default, or if
    a float array holds NaN or +-inf (naming the array); n_steps reaches TimeGrid
    as stored, so a count that is not an integer is rejected."""
    try:
        data = np.load(path)
    except (EOFError, zipfile.BadZipFile) as exc:  # an empty or a truncated file
        raise ValueError(f"{path} is not an npz archive: {exc}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not an npz archive")
    with data:
        for name in ("t_end", "n_steps", *(f.name for f in fields(cls)[1:]
                                           if f.default is MISSING)):
            if name not in data:
                raise ValueError(f"{path} holds no {name!r} array")
        values = {}
        for f in fields(cls)[1:]:
            if f.name in data:
                value = _finite(path, f.name, data[f.name])
                values[f.name] = (tuple(value.tolist()) if isinstance(f.default, tuple)
                                  else value.item() if value.ndim == 0 else value)
        grid = TimeGrid(float(data["t_end"].item()), data["n_steps"].item())
    return cls(grid, **values)


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
    seed: int | None = None

    def __post_init__(self):
        if np.shape(self.Z)[:1] != (self.grid.n_steps + 1,):
            raise GridMismatch("Z must have n_steps + 1 entries")
        if np.shape(self.dZ)[:1] != (self.grid.n_steps,):
            raise GridMismatch("dZ must have n_steps entries")
        if np.any(np.atleast_1d(self.Z[0]) != 0.0):
            raise ValueError("Z must start at 0")

    to_npz = _save_npz

    @staticmethod
    def from_npz(path, grid: TimeGrid | None = None,
                 n_obs: int | None = None) -> "ObservationRecord":
        """`_load_npz`, on `grid` and with `n_obs` channels when they are given."""
        record = _load_npz(ObservationRecord, path)
        if grid is not None and not record.grid.matches(grid):
            raise GridMismatch(f"record grid (T={record.grid.t_end:g}, "
                               f"{record.grid.n_steps} steps) differs from "
                               f"T={grid.t_end:g}, {grid.n_steps} steps")
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
    increments they were driven by.  Construction checks the shapes (O(1)):
    a mismatch raises GridMismatch.
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

    def __post_init__(self):
        K = self.grid.n_steps
        shape = np.shape(self.states)
        if len(shape) != 2 or shape[1] != K + 1:
            raise GridMismatch(f"states must have shape (N, {K + 1}), got {shape}")
        for name in ("log_weights_innovation", "log_weights_girsanov"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != shape:
                raise GridMismatch(f"{name} must have the states' shape {shape}, "
                                   f"got {np.shape(value)}")
        for name in ("pi_h_path", "innovation_increments"):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (K,):
                raise GridMismatch(f"{name} must have {K} entries, got shape {np.shape(value)}")

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

    to_npz = _save_npz
    from_npz = classmethod(_load_npz)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def _check_state(x: np.ndarray, step: int, label: str) -> None:
    """SimulationDiverged naming the step if an entry of the states x, of any
    shape, lies beyond +-STATE_OVERFLOW (no temporaries; a NaN passes)."""
    if np.fmax.reduce(x, None) > STATE_OVERFLOW or np.fmin.reduce(x, None) < -STATE_OVERFLOW:
        raise SimulationDiverged(f"{label} exceeded {STATE_OVERFLOW:g} at step {step}")


def truth_step(x, b, noise, sigma: float, dt: float, step: int):
    """The Euler-Maruyama move x + b dt + sigma sqrt(dt) noise of a truth path,
    for a float, an n-vector or stacked (S, n) states; SimulationDiverged naming
    the step if a new state lies beyond +-STATE_OVERFLOW."""
    x = x + b * dt + sigma * math.sqrt(dt) * noise
    if not isinstance(x, float) or abs(x) > STATE_OVERFLOW:  # a float costs one compare
        _check_state(x, step, "state")
    return x


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
        _check_state(X[0], 0, "state")
        xi = gen_x.standard_normal((K, model.n_state))
        eta = gen_z.standard_normal((K, model.n_obs))
        for k in range(K):
            X[k + 1] = truth_step(X[k], model.A.T @ X[k], xi[k], model.sigma, dt, k + 1)
        if not np.all(np.isfinite(X)):
            raise SimulationDiverged("state became non-finite")
        signal = (X[:-1] @ model.H) * dt
    else:
        sm = scalar_view(model)
        X = np.empty(K + 1)
        X[0] = sm.prior.sample(gen_x, 1)[0]
        _check_state(X[0], 0, "state")
        xi = gen_x.standard_normal(K)
        eta = gen_z.standard_normal(K)
        for k in range(K):
            b = sm.drift(X[k]) if drift_fn is None else float(drift_fn(k, X[k]))
            X[k + 1] = truth_step(X[k], b, xi[k], sm.sigma, dt, k + 1)
        signal = np.asarray(sm.obs(X[:-1])) * dt
    dZ = signal + sqdt * eta
    return ObservationRecord(grid=grid, Z=cumulative_path(dZ), dZ=dZ, X_truth=X,
                             noise_cum=cumulative_path(dZ - signal), seed=seed)


def weighted_paths(model, grid: TimeGrid, n_paths: int, seed: int, stream: int,
                   floor: float | None = None, resample_index: int | None = None,
                   obs_noise: bool = False, out=None):
    """The one forward loop over a weighted population of n_paths (checked by the
    caller): a generator yielding (x, w, wsum, ess, acted, row) at k = 0 .. K and
    taking back (b, c, d) for `weighted_step` to make step k, into out=(X, lw)'s
    time-major rows k + 1 when given, and `_check_state` to check, as it checks the
    prior draw before the first drift.  The prior draw and the rows (step k's
    normals; (2, N) state then observation normals with obs_noise) come from
    `_ensemble_noise` on `stream`.  Only given a floor does it
    form w, wsum, ess = `normalized_weights` once per step and act on an ESS below
    it: resample on key `resample_index` of STREAM_RESAMPLE (w, wsum then weigh the
    x handed out), or else warn WeightCollapse at the first such step.
    """
    K = grid.n_steps
    u0, z0, rows = _ensemble_noise(seed, stream, n_paths, K, with_obs_noise=obs_noise)
    sm = scalar_view(model)
    gen = None if resample_index is None else path_generator(seed, STREAM_RESAMPLE,
                                                             resample_index)
    label = "ensemble state" if gen is None else "particle state"
    x, lw = sm.prior.from_draws(u0, z0), np.zeros(n_paths)
    _check_state(x, 0, label)
    if out is not None:
        out[0][0], out[1][0] = x, lw
    w = wsum = ess = None
    acted = False
    for k in range(K + 1):
        if floor is not None:
            w, wsum, ess = normalized_weights(lw)
            acted = bool(ess < floor)
            if acted and gen is not None:
                x = x[resample_indices(gen, w, wsum)]
                lw, w, wsum = np.zeros(n_paths), np.ones(n_paths), float(n_paths)
            elif acted:
                warnings.warn(f"effective sample size fell below {floor:g} at step {k}",
                              WeightCollapse)
                floor = -math.inf  # no ESS is below it: warn at the first collapse only
        row = next(rows) if k < K else None
        b, c, d = yield x, w, wsum, ess, acted, row  # not resumed after step K
        x, lw = weighted_step(x, lw, b, c, d, row[0] if obs_noise else row, sm.sigma,
                              grid.dt, k + 1,
                              None if out is None else (out[0][k + 1], out[1][k + 1]))
        _check_state(x, k + 1, label)


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
    n_paths = check_n_paths(n_paths)
    sm = scalar_view(model)
    dt = grid.dt
    K = grid.n_steps
    floor = None if ess_floor is None else check_ess_floor(ess_floor) * n_paths

    stream = STREAM_GIRSANOV if kind == "girsanov" else STREAM_INNOVATION
    fresh = obs is None
    if not fresh:
        if not obs.grid.matches(grid):
            raise GridMismatch("observation record does not cover the requested grid")
        dZ = np.asarray(obs.dZ, dtype=float).reshape(K)
    external_pi_h = None
    if kind == "innovation" and not (isinstance(pi_h_source, str) and pi_h_source == "self"):
        external_pi_h = per_step_path(pi_h_source, grid, "pi_h source")
    elif kind == "innovation" and floor is None:
        floor = 0.0  # the self pi[h] reads every step's weights; no ESS is below 0

    # time-major buffers: each step reads and writes contiguous rows
    X = np.empty((K + 1, n_paths))
    lw = np.empty((K + 1, n_paths))
    pi_h_path = np.empty(K) if kind == "innovation" else None
    dI = np.empty(K) if kind == "innovation" and not fresh else None
    collapse_step = None

    sqdt = np.sqrt(dt)
    steps = weighted_paths(sm, grid, n_paths, seed, stream, floor, obs_noise=fresh,
                           out=(X, lw))
    for k in range(K + 1):
        xk, w, wsum, _, collapsed, row = steps.send(None if k == 0 else (b, c, d))
        collapse_step = k if collapsed else collapse_step
        if k == K:
            break
        c = np.asarray(sm.obs(xk), dtype=float)
        d = sqdt * row[1] if fresh else dZ[k]  # fresh: independent per path
        if kind == "innovation":
            pih = external_pi_h[k] if external_pi_h is not None else \
                float(path_dot(w, c) / wsum)
            pi_h_path[k] = pih
            c, d = c - pih, d - pih * dt
            if not fresh:
                dI[k] = d
        b = np.asarray(sm.drift(xk) if drift_fn is None else drift_fn(k, xk), dtype=float)

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
