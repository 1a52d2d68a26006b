"""The forward loops built on the shared step kernels (`kalman_mean_step`, and
`sde_sim.weighted_paths`, the one forward loop over a weighted population under
the weighted ensembles, the particle filter and the control filter) equal the
hand-written loops they replace, kept here as references: bit for bit, except
the row-stacked Kalman batch,
whose products are formed on column vectors now.  The references draw
their noise from the step-keyed schedule with one generator per key (the
initial draws from key 0, step k's normals from key k + 1), sum over the paths
with numpy's own loop (`path_sum`), and step the Kalman-Bucy mean on the
transition Phi_k = I + (A^T - Sigma_k H H^T - G gains_k) dt."""

import math
import warnings

import numpy as np
import pytest

from fbsde_filter import sde_sim
from fbsde_filter.control import (
    PolicyField,
    _policy_filter_mean_lg,
    certainty_equivalence_batch,
    certainty_equivalence_run,
)
from fbsde_filter.errors import FilterDivergence, WeightCollapse
from fbsde_filter.kalman import kalman_bucy_mean, lq_control_riccati, model_riccati
from fbsde_filter.model import LinearGaussianModelSpec, TimeGrid, scalar_view
from fbsde_filter.particle import run_particle_filter
from fbsde_filter.sde_sim import (
    STATE_OVERFLOW,
    STREAM_CONTROL_OBS,
    STREAM_CONTROL_STATE,
    STREAM_FILTER,
    STREAM_GIRSANOV,
    STREAM_INNOVATION,
    STREAM_RESAMPLE,
    normalized_weights,
    path_generator,
    per_step_path,
    resample_indices,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def log_weight_step(lw, c, d, dt):
    return lw + c * d - 0.5 * c * c * dt


def path_sum(a, b):
    """sum_i a_i b_i, the same bits however many BLAS threads there are."""
    return np.einsum("i,i->", a, b)


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

def reference_ensemble(model, grid, obs, n_paths, seed, kind, pi_h_source="self",
                       drift_fn=None, ess_floor=None):
    """(states, log-weights, pi[h] path, innovation increments, collapse step)."""
    sm = scalar_view(model)
    dt, sqdt, K = grid.dt, np.sqrt(grid.dt), grid.n_steps
    stream = STREAM_GIRSANOV if kind == "girsanov" else STREAM_INNOVATION
    fresh = obs is None
    # step k: the state normals of key k + 1, then its observation normals
    xi, eta = np.empty((n_paths, K)), np.empty((n_paths, K))
    for k in range(K):
        gen_k = path_generator(seed, stream, k + 1)
        xi[:, k] = gen_k.standard_normal(n_paths)
        eta[:, k] = gen_k.standard_normal(n_paths)
    dZ_paths = sqdt * eta if fresh else None
    dZ = None if fresh else np.asarray(obs.dZ, dtype=float).reshape(K)
    X, lw = np.empty((n_paths, K + 1)), np.empty((n_paths, K + 1))
    xk = sm.prior.sample(path_generator(seed, stream, 0), n_paths)
    lwk = np.zeros(n_paths)
    X[:, 0], lw[:, 0] = xk, lwk
    external = None
    if kind == "innovation" and not (isinstance(pi_h_source, str) and pi_h_source == "self"):
        external = per_step_path(pi_h_source, grid, "pi_h source")
    pi_h_path = np.empty(K) if kind == "innovation" else None
    dI = np.empty(K) if kind == "innovation" and not fresh else None
    collapse_step = None
    floor = (ess_floor if ess_floor is not None else 0.0) * n_paths
    for k in range(K):
        hk = np.asarray(sm.obs(xk), dtype=float)
        dz_k = dZ_paths[:, k] if fresh else dZ[k]
        if kind == "girsanov":
            lwk = log_weight_step(lwk, hk, dz_k, dt)
        else:
            if external is not None:
                pih = external[k]
            else:
                w, wsum, _ = normalized_weights(lwk)
                pih = float(path_sum(w, hk) / wsum)
            pi_h_path[k] = pih
            di_k = dz_k - pih * dt
            if not fresh:
                dI[k] = di_k
            lwk = log_weight_step(lwk, hk - pih, di_k, dt)
        lw[:, k + 1] = lwk
        b = np.asarray(sm.drift(xk), dtype=float) if drift_fn is None else \
            np.asarray(drift_fn(k, xk), dtype=float)
        xk = xk + b * dt + sm.sigma * sqdt * xi[:, k]
        X[:, k + 1] = xk
        assert not np.any(np.abs(xk) > STATE_OVERFLOW)
        if floor > 0 and collapse_step is None and normalized_weights(lwk)[2] < floor:
            collapse_step = k + 1
    return X, lw, pi_h_path, dI, collapse_step


def reference_particle_filter(model, grid, obs, n_paths, seed, ess_floor, observables):
    """(estimates {name: (values, std_err)}, ESS path before each resampling
    decision, ESS path the estimates see, resample steps)."""
    sm = scalar_view(model)
    fns = {"x": lambda x: x, **observables}
    dt, sqdt, K = grid.dt, np.sqrt(grid.dt), grid.n_steps
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K)
    x = sm.prior.sample(path_generator(seed, STREAM_FILTER, 0), n_paths)
    lw = np.zeros(n_paths)
    gen_resample = path_generator(seed, STREAM_RESAMPLE, 1)
    values = {name: np.empty(K + 1) for name in fns}
    errs = {name: np.empty(K + 1) for name in fns}
    ess_path, seen_path = np.empty(K + 1), np.empty(K + 1)
    resample_steps = []

    def record(k):
        w, wsum, seen_path[k] = normalized_weights(lw)
        for name, fn in fns.items():
            gv = np.asarray(fn(x), dtype=float)
            ratio = path_sum(w, gv) / wsum
            resid = gv - ratio
            values[name][k] = ratio
            errs[name][k] = np.sqrt(path_sum(w * w, resid * resid)) / wsum

    record(0)
    ess_path[0] = seen_path[0]
    for k in range(K):
        lw = log_weight_step(lw, np.asarray(sm.obs(x), dtype=float), dZ[k], dt)
        gen_k = path_generator(seed, STREAM_FILTER, k + 1)
        x = x + np.asarray(sm.drift(x), dtype=float) * dt \
            + sm.sigma * sqdt * gen_k.standard_normal(n_paths)
        w, wsum, ess_path[k + 1] = normalized_weights(lw)
        if ess_path[k + 1] < ess_floor * n_paths:
            x = x[resample_indices(gen_resample, w, wsum)]
            lw = np.zeros(n_paths)
            resample_steps.append(k + 1)
        record(k + 1)
    return ({n: (values[n], errs[n]) for n in fns}, ess_path, seen_path,
            tuple(resample_steps))


def reference_ce_particle(model, policy, grid, seed, n_particles, ess_floor):
    """(realized cost, filter trace, resample count) of one particle
    certainty-equivalence run."""
    dt, sqdt, K = grid.dt, math.sqrt(grid.dt), grid.n_steps
    g = model.control_gain
    gen_x = path_generator(seed, STREAM_CONTROL_STATE, 0)
    gen_z = path_generator(seed, STREAM_CONTROL_OBS, 0)
    gen_r = path_generator(seed, STREAM_RESAMPLE, 0)
    x_truth = float(model.prior.sample(gen_x, 1)[0])
    xi, eta = gen_x.standard_normal(K), gen_z.standard_normal(K)
    particles = model.prior.sample(path_generator(seed, STREAM_FILTER, 0), n_particles)
    lw = np.zeros(n_particles)
    cost, trace, n_resamples = 0.0, np.empty(K + 1), 0
    for k in range(K):
        w, wsum, _ = normalized_weights(lw)
        trace[k] = float(path_sum(w, particles) / wsum)
        alpha = float(path_sum(w, policy.policy_at(k, particles)) / wsum)
        cost += 0.5 * alpha * alpha * dt
        dZ = model.obs(x_truth) * dt + sqdt * eta[k]
        x_truth = x_truth + (model.drift(x_truth) + g * alpha) * dt + model.sigma * sqdt * xi[k]
        lw = log_weight_step(lw, np.asarray(model.obs(particles), dtype=float), dZ, dt)
        noise = path_generator(seed, STREAM_FILTER, k + 1).standard_normal(n_particles)
        particles = particles + (np.asarray(model.drift(particles), dtype=float)
                                 + g * alpha) * dt + model.sigma * sqdt * noise
        w, wsum, ess = normalized_weights(lw)
        assert ess >= 1.0 + 1e-9
        if ess < ess_floor * n_particles:
            particles = particles[resample_indices(gen_r, w, wsum)]
            lw = np.zeros(n_particles)
            n_resamples += 1
    w, wsum, _ = normalized_weights(lw)
    trace[K] = float(path_sum(w, particles) / wsum)
    return cost + float(model.terminal(x_truth)), trace, n_resamples


def reference_kalman_mean(A, H, Sigma, m0, obs, G=None, gains=None):
    """(mean path, innovation path) of the Kalman-Bucy mean recursion."""
    A, H = np.atleast_2d(A), np.atleast_2d(H)
    K, dt = obs.grid.n_steps, obs.grid.dt
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K, H.shape[1])
    mean = np.empty((K + 1, A.shape[0]))
    mean[0] = np.asarray(m0, dtype=float).reshape(A.shape[0])
    innovation = np.zeros((K + 1, H.shape[1]))
    for k in range(K):
        m = mean[k]
        innovation[k + 1] = innovation[k] + (dZ[k] - np.einsum("n,nm->m", m, H) * dt)
        SH = Sigma[k] @ H
        rate = A.T - SH @ H.T if gains is None else A.T - SH @ H.T - G @ gains[k]
        mean[k + 1] = (np.eye(A.shape[0]) + rate * dt) @ m + SH @ dZ[k]
    return mean, innovation


def reference_ce_batch(model, policy, grid, seeds, terminal_hessian):
    """(realized costs, first seed's filter trace) of the row-stacked Kalman batch."""
    S, n, m_obs, p = len(seeds), model.n_state, model.n_obs, model.G.shape[1]
    K, dt, sqdt = grid.n_steps, grid.dt, math.sqrt(grid.dt)
    Qf = np.atleast_2d(np.asarray(terminal_hessian, dtype=float))
    Sigma = model_riccati(model, grid)
    X, xi, eta = np.empty((S, n)), np.empty((S, K, n)), np.empty((S, K, m_obs))
    for s, seed in enumerate(seeds):
        gx = path_generator(seed, STREAM_CONTROL_STATE, 0)
        gz = path_generator(seed, STREAM_CONTROL_OBS, 0)
        X[s] = model.draw_initial_state(gx)
        xi[s] = gx.standard_normal((K, n))
        eta[s] = gz.standard_normal((K, m_obs))
    m = np.tile(model.m0, (S, 1))
    cost, trace = np.zeros(S), np.empty((K + 1, n))
    trace[0] = m[0]
    H, G = model.H, model.G
    for k in range(K):
        alpha = _policy_filter_mean_lg(policy, k, m, float(Sigma[k][0, 0]), p)
        cost += 0.5 * np.einsum("sp,sp->s", alpha, alpha) * dt
        drift_truth = X @ model.A + alpha @ G.T
        dZ = (X @ H) * dt + sqdt * eta[:, k, :]
        X = X + drift_truth * dt + model.sigma * sqdt * xi[:, k, :]
        dI = dZ - (m @ H) * dt
        m = m + (m @ model.A + alpha @ G.T) * dt + dI @ (Sigma[k] @ H).T
        trace[k + 1] = m[0]
    return cost + 0.5 * np.einsum("si,ij,sj->s", X, Qf, X), trace


# ---------------------------------------------------------------------------
# the particle filter and the control filter
# ---------------------------------------------------------------------------

def check_particle_filter(n_paths, resamples):
    model = make_scalar("double_well", sigma=0.5, h="linear", h_params={"a": 5.0},
                        f="indicator_positive")
    grid = TimeGrid(1.0, 200)
    obs = simulate_truth_and_obs(model, grid, seed=11)
    indicator = {"f": lambda x: (x > 0.0).astype(float)}
    result = run_particle_filter(model, grid, obs, n_paths, seed=12, ess_floor=0.5,
                                 observables=indicator)
    estimates, ess, seen, steps = reference_particle_filter(model, grid, obs, n_paths, 12,
                                                            0.5, indicator)
    assert len(steps) >= resamples  # resampling fired
    assert result.resample_steps == steps
    assert same_bits(result.ess, ess)
    for name, (values, errs) in estimates.items():
        assert same_bits(result.estimates[name].values, values)
        assert same_bits(result.estimates[name].std_err, errs)
        assert same_bits(result.estimates[name].ess, seen)


def test_particle_filter_equals_the_reference_loop_while_it_resamples():
    check_particle_filter(2000, 3)


# 3 000 paths are at least _AHEAD_PATHS: the worker thread fills the noise rows
def test_particle_filter_on_worker_filled_noise_equals_the_reference_loop():
    check_particle_filter(3000, 2)


# 3 000 particles are at least _AHEAD_PATHS: the worker thread fills the noise rows
@pytest.mark.parametrize("ess_floor, n_particles", [
    pytest.param(0.1, 300, id="0.1"), pytest.param(0.9, 300, id="0.9"),
    pytest.param(0.1, 3000, id="0.1-3000"), pytest.param(0.9, 3000, id="0.9-3000"),
])
def test_particle_control_run_equals_the_reference_loop(ess_floor, n_particles):
    model = make_scalar("double_well", sigma=0.5, h="linear", h_params={"a": 2.0},
                        f="quadratic", f_params={"weight": 2.0}, control_gain=1.0)
    grid = TimeGrid(1.0, 100)
    policy = PolicyField.from_gains(grid, np.full((101, 1, 1), 0.8))
    report = certainty_equivalence_run(model, policy, grid, seed=5,
                                       filter_particles=n_particles, ess_floor=ess_floor)
    cost, trace, n_resamples = reference_ce_particle(model, policy, grid, 5, n_particles,
                                                     ess_floor)
    assert (n_resamples > 0) == (ess_floor > 0.5)
    assert same_bits(report.realized_cost, cost)
    assert same_bits(report.filter_trace, trace)


def test_a_particle_control_filter_that_collapses_raises_filter_divergence():
    # h = 50 x with two particles and no resampling: one weight dominates at once
    model = make_scalar("linear", {"a": -1.0}, h="linear", h_params={"a": 50.0})
    grid = TimeGrid(1.0, 100)
    with pytest.raises(FilterDivergence):
        certainty_equivalence_run(model, PolicyField.zero(grid), grid, seed=3,
                                  filter_particles=2, ess_floor=0.0)


# ---------------------------------------------------------------------------
# the weighted ensembles
# ---------------------------------------------------------------------------

def check_ensemble(ens, reference):
    X, lw, pi_h_path, dI, collapse_step = reference
    assert same_bits(ens.states, X)
    assert same_bits(ens.log_weights(), lw)
    for got, want in ((ens.pi_h_path, pi_h_path), (ens.innovation_increments, dI)):
        assert (got is None and want is None) or same_bits(got, want)
    assert ens.collapse_step == collapse_step


# 3 000 paths are at least _AHEAD_PATHS: the worker thread fills the noise rows,
# (2, N) ones without a record
@pytest.mark.parametrize("n_paths", [300, 3000])
@pytest.mark.parametrize("with_obs", [True, False])
def test_girsanov_ensemble_equals_the_reference_loop(double_well, with_obs, n_paths):
    grid = TimeGrid(1.0, 100)
    obs = simulate_truth_and_obs(double_well, grid, seed=21) if with_obs else None
    ens = simulate_girsanov_ensemble(double_well, grid, obs, n_paths, seed=22)
    check_ensemble(ens, reference_ensemble(double_well, grid, obs, n_paths, 22, "girsanov"))


@pytest.mark.parametrize("source, n_paths", [
    ("self", 300), ("external", 300), ("fresh", 300), ("drift_fn", 300),
    ("self", 3000), ("fresh", 3000),
])
def test_innovation_ensemble_equals_the_reference_loop(double_well, source, n_paths):
    grid = TimeGrid(1.0, 100)
    obs = None if source == "fresh" else simulate_truth_and_obs(double_well, grid, seed=23)
    kwargs = {}
    if source == "external":
        kwargs["pi_h_source"] = 0.3 * np.sin(np.arange(101) * 0.05)
    if source == "drift_fn":
        kwargs["drift_fn"] = lambda k, x: double_well.drift(x) - 0.01 * k * x
    ens = simulate_innovation_ensemble(double_well, grid, obs, n_paths, seed=24, **kwargs)
    check_ensemble(ens, reference_ensemble(double_well, grid, obs, n_paths, 24, "innovation",
                                           **kwargs))


@pytest.mark.parametrize("kind", ["girsanov", "innovation"])
def test_ensemble_collapse_step_equals_the_reference_loop(kind):
    model = make_scalar("linear", {"a": -1.0}, h="linear", h_params={"a": 4.0})
    grid = TimeGrid(1.0, 100)
    obs = simulate_truth_and_obs(model, grid, seed=25)
    simulate = simulate_girsanov_ensemble if kind == "girsanov" else simulate_innovation_ensemble
    with pytest.warns(WeightCollapse):
        ens = simulate(model, grid, obs, 200, seed=26, ess_floor=0.5)
    reference = reference_ensemble(model, grid, obs, 200, 26, kind, ess_floor=0.5)
    assert reference[4] is not None
    check_ensemble(ens, reference)


def test_a_girsanov_ensemble_forms_per_step_weights_only_under_a_floor(monkeypatch):
    model = make_scalar("linear", {"a": -1.0}, h="linear", h_params={"a": 4.0})
    grid = TimeGrid(1.0, 100)
    obs = simulate_truth_and_obs(model, grid, seed=25)
    calls = []

    def counted(lw):
        calls.append(lw.shape)
        return normalized_weights(lw)

    monkeypatch.setattr(sde_sim, "normalized_weights", counted)
    simulate_girsanov_ensemble(model, grid, obs, 200, seed=26)
    simulate_girsanov_ensemble(model, grid, None, 200, seed=26)
    assert calls == []
    with pytest.warns(WeightCollapse):
        ens = simulate_girsanov_ensemble(model, grid, obs, 200, seed=26, ess_floor=0.5)
    assert 0 < len(calls) <= grid.n_steps + 1
    reference = reference_ensemble(model, grid, obs, 200, 26, "girsanov", ess_floor=0.5)
    assert ens.collapse_step == reference[4] is not None


# ---------------------------------------------------------------------------
# the Kalman-Bucy mean
# ---------------------------------------------------------------------------

def lg2():
    return LinearGaussianModelSpec(
        A=[[-1.0, 0.3], [0.2, -0.5]], H=[[1.0], [0.4]], G=[[1.0, 0.0], [0.5, 1.0]],
        sigma=0.8, m0=[0.5, -0.2], Sigma0=[[1.0, 0.2], [0.2, 0.7]], f_bar=[1.0, 0.5])


def lg1(h):
    return LinearGaussianModelSpec(A=[[-1.0]], H=[[h]], G=[[1.0]], sigma=1.0,
                                   m0=[0.3], Sigma0=[[1.0]], f_bar=[1.0])


@pytest.mark.parametrize("model", [lg1(1.0), lg1(1.3), lg2()], ids=["n1", "n1_h13", "n2"])
@pytest.mark.parametrize("with_gains", [False, True])
def test_kalman_bucy_mean_equals_the_reference_loop(model, with_gains):
    grid = TimeGrid(1.0, 200)
    obs = simulate_truth_and_obs(model, grid, seed=31)
    Sigma = model_riccati(model, grid)
    law = {}
    if with_gains:
        law = dict(G=model.G, gains=lq_control_riccati(model.A, model.G,
                                                       np.eye(model.n_state), grid).gains)
    state = kalman_bucy_mean(model.A, model.H, Sigma, model.m0, obs, **law)
    mean, innovation = reference_kalman_mean(model.A, model.H, Sigma, model.m0, obs, **law)
    assert same_bits(state.mean, mean)
    assert same_bits(state.innovation, innovation)


@pytest.mark.parametrize("model", [lg1(1.0), lg2()], ids=["n1", "n2"])
@pytest.mark.parametrize("policy_kind", ["zero", "gains"])
def test_certainty_equivalence_batch_matches_the_reference_loop(model, policy_kind):
    grid = TimeGrid(1.0, 200)
    Qf = np.eye(model.n_state)
    policy = PolicyField.zero(grid) if policy_kind == "zero" else \
        PolicyField.from_gains(grid, lq_control_riccati(model.A, model.G, Qf, grid).gains)
    seeds = [3, 4, 5, 6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        costs, trace = certainty_equivalence_batch(model, policy, grid, seeds, Qf)
    ref_costs, ref_trace = reference_ce_batch(model, policy, grid, seeds, Qf)
    np.testing.assert_allclose(costs, ref_costs, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(trace, ref_trace, rtol=0.0, atol=1e-12)
