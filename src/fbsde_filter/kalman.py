"""Kalman-Bucy filter, filter Riccati equation, and LQ control Riccati.

These are the exact linear-Gaussian oracles used to validate the Monte Carlo
estimators.  Conventions match drift b(x) = A^T x and observation
h(x) = H^T x with unit observation noise: the covariance obeys

    dSigma/dt = A^T Sigma + Sigma A + sigma^2 I - Sigma H H^T Sigma,

and the filtered mean is stepped as

    m_{k+1} = m_k + A^T m_k dt + Sigma_k H (dZ_k - H^T m_k dt)
            = Phi_k m_k + Sigma_k H dZ_k,  Phi_k = I + (A^T - Sigma_k H H^T) dt.

The transpose conventions are pinned by the cross-module consistency tests
rather than assumed.

By the Kalman-Bucy duality the LQ control Riccati is this filter Riccati of
the dual system (A^T, G, no noise) run in reversed time s = T - t.

Shared linear-Gaussian kernels: `riccati_sweep` (every Runge-Kutta loop, on the
one `rk4_step`), `covariance_path` (every Sigma-path check), the forward
kernel `kalman_mean_step` (every filtered-mean step, of one or of stacked means,
on the transitions `kalman_transitions` forms once per Sigma path) and its
adjoint `dual_sweep` (every discrete dual recursion y_k = Phi_k^T y_{k+1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, RiccatiBlowup
from .io import write_columns
from .model import LinearGaussianModelSpec, TimeGrid
from .sde_sim import ObservationRecord, cumulative_path

RICCATI_OVERFLOW = 1.0e8


@dataclass(frozen=True)
class GaussianState:
    """Time-indexed mean and covariance of the Kalman-Bucy filter."""

    grid: TimeGrid
    mean: np.ndarray        # (n_steps + 1, n)
    covariance: np.ndarray  # (n_steps + 1, n, n)
    innovation: np.ndarray | None = None  # realized innovation path (n_steps + 1, m)

    @property
    def n_state(self) -> int:
        return self.mean.shape[1]

    def to_csv(self, path) -> None:
        n = self.n_state
        columns = {"t": self.grid.times()}
        columns.update((f"m_{i + 1}", self.mean[:, i]) for i in range(n))
        columns.update((f"sigma_{i + 1}{j + 1}", self.covariance[:, i, j])
                       for i in range(n) for j in range(n))
        write_columns(path, columns)


@dataclass(frozen=True)
class ControlRiccati:
    """Backward LQ value Hessian path P_t with gains K_t = G^T P_t.

    value_offset carries the noise contribution r_t
    (-dr/dt = sigma^2/2 tr P_t, r_T = 0) so that the full quadratic value is
    0.5 x^T P_t x + r_t.
    """

    grid: TimeGrid
    P: np.ndarray            # (n_steps + 1, n, n)
    gains: np.ndarray        # (n_steps + 1, p, n)
    value_offset: np.ndarray  # (n_steps + 1,)

    def value(self, k: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.P.shape[1] == 1:
            return 0.5 * float(self.P[k, 0, 0]) * x * x + self.value_offset[k]
        return 0.5 * np.einsum("...i,ij,...j->...", x, self.P[k], x) + self.value_offset[k]


def _symmetrize(S):
    return 0.5 * (S + S.T)


def _clip_psd(path: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero along a covariance path, with one batched
    eigh; a step without a negative eigenvalue keeps its bits."""
    w, V = np.linalg.eigh(path)
    neg = w.min(axis=-1) < 0.0
    out = path.copy()
    V = V[neg]
    out[neg] = (V * np.maximum(w[neg], 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
    return out


def covariance_path(Sigma, grid: TimeGrid) -> np.ndarray:
    """Sigma as an (n_steps + 1, n, n) path (a 1-D path holds variances)."""
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim == 1:
        Sigma = Sigma.reshape(-1, 1, 1)
    if Sigma.shape[0] != grid.n_steps + 1:
        raise GridMismatch("Sigma path does not cover the grid")
    return Sigma


def rk4_step(rate, y, h: float, c0=None, c_half=None, c1=None):
    """One classical RK4 step of dy/dt = rate(y, c) over a signed step h, with
    c = c0, c_half and c1 at the start, midpoint and end of the step."""
    k1 = rate(y, c0)
    k2 = rate(y + 0.5 * h * k1, c_half)
    k3 = rate(y + 0.5 * h * k2, c_half)
    k4 = rate(y + h * k3, c1)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def riccati_sweep(rate, S0, grid: TimeGrid, scale, coeffs=None) -> np.ndarray:
    """RK4 path (n_steps + 1, n, n) of the symmetric dS/dt = rate(S, c_t) from S0.

    Step k splits into ceil(4 dt scale(S_k, c_k)) substeps, with the coefficient
    path `coeffs` (None: a constant rate) read as (1 - theta) c_k + theta c_{k+1}
    at the stage times.  S is symmetrized after every substep; RiccatiBlowup once
    an entry exceeds RICCATI_OVERFLOW or is NaN."""
    S = _symmetrize(np.atleast_2d(np.asarray(S0, dtype=float)))
    path = [S]
    for k in range(grid.n_steps):
        c0, c1 = (None, None) if coeffs is None else coeffs[k:k + 2]
        n_sub = max(1, int(np.ceil(4.0 * grid.dt * scale(S, c0))))
        for j in range(n_sub):
            stages = () if coeffs is None else \
                [(1.0 - t) * c0 + t * c1 for t in ((j + i) / n_sub for i in (0.0, 0.5, 1.0))]
            S = _symmetrize(rk4_step(rate, S, grid.dt / n_sub, *stages))
            if not np.abs(S).max() <= RICCATI_OVERFLOW:  # a NaN fails too
                raise RiccatiBlowup(f"covariance entry exceeded {RICCATI_OVERFLOW:g}")
        path.append(S)
    return np.array(path)


def _filter_sweep(A, H, sigma: float, Sigma0, grid: TimeGrid) -> np.ndarray:
    """`riccati_sweep` of the filter covariance ODE, substepped by 2(||A|| + ||H H^T Sigma||):
    the stiffness of -Sigma H H^T Sigma, which a Sigma growing unseen by H leaves alone."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    HHt = H @ H.T
    Q = sigma * sigma * np.eye(A.shape[0])
    norm_A = np.linalg.norm(A, 2)

    def rate(S, _):
        return A.T @ S + S @ A + Q - S @ HHt @ S

    def scale(S, _):
        return 2.0 * (norm_A + np.linalg.norm(HHt @ S, 2))

    return riccati_sweep(rate, Sigma0, grid, scale)


def riccati_filter(A, H, sigma: float, Sigma0, grid: TimeGrid) -> np.ndarray:
    """The filter covariance path (n_steps + 1, n, n) of `_filter_sweep`, every
    step's negative eigenvalues clipped to zero."""
    return _clip_psd(_filter_sweep(A, H, sigma, Sigma0, grid))


def kalman_transitions(A, H, Sigma, dt: float, G=None, gains=None):
    """Every step's transition Phi_k = I + (A^T - Sigma_k H H^T) dt and gain
    Sigma_k H of the Kalman-Bucy mean, k = 0 .. n_steps - 1, in one vectorised call.

    With a linear law (control matrix G and a gain path gains_k) Phi_k also
    subtracts G gains_k dt; zero gains give bitwise the Phi_k of no gains.
    """
    SH = Sigma[:-1] @ H
    rate = A.T - SH @ H.T
    if gains is not None:
        rate -= G @ gains[:len(SH)]
    return np.eye(A.shape[0]) + rate * dt, SH


def dual_sweep(Phi, y_end) -> np.ndarray:
    """The (K + 1, n) path y_K = y_end, y_k = Phi_k^T y_{k+1} over transitions Phi
    (K, n, n): the adjoint of x_{k+1} = Phi_k x_k + forcing_k, so that
    y_{k+1}^T x_{k+1} - y_k^T x_k = y_{k+1}^T forcing_k."""
    K = len(Phi)
    y = np.empty((K + 1, len(y_end)))
    y[K] = y_end
    for k in range(K - 1, -1, -1):
        y[k] = Phi[k].T @ y[k + 1]
    return y


def kalman_mean_step(m, dz, Phi_k, SH_k, dt: float, shift=None):
    """Kalman-Bucy step m -> Phi_k m + Sigma_k H dz + shift dt (`kalman_transitions`)
    of one mean (n,) or row-stacked means (S, n) (dz and shift alike).  It is
    m + (A^T m + shift) dt + Sigma_k H (dz - H^T m dt) with the products of m
    gathered into Phi_k.  Every product is formed on column vectors."""
    out = (Phi_k @ m.T).T + (SH_k @ dz.T).T
    return out if shift is None else out + shift * dt


def kalman_bucy_mean(A, H, Sigma_path, m0, obs: ObservationRecord,
                     G=None, gains=None) -> GaussianState:
    """Run the Kalman-Bucy mean recursion along an observation record.

    With a linear law (control matrix G and a gain path of shape
    (n_steps + 1, p, n)) the mean is driven by alpha_k = -gains_k m_k as well:
    m_{k+1} = m_k + (A^T m_k + G alpha_k) dt + Sigma_k H dI_k.  Emits the
    realized innovation path dI_k = dZ_k - H^T m_k dt alongside the Gaussian
    state.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H, dtype=float))
    n = A.shape[0]
    Sigma = covariance_path(Sigma_path, obs.grid)
    K, dt = obs.grid.n_steps, obs.grid.dt
    dZ = np.asarray(obs.dZ, dtype=float).reshape(K, H.shape[1])
    Phi, SH = kalman_transitions(A, H, Sigma, dt, G, gains)

    mean = np.empty((K + 1, n))
    mean[0] = np.asarray(m0, dtype=float).reshape(n)
    for k in range(K):
        mean[k + 1] = kalman_mean_step(mean[k], dZ[k], Phi[k], SH[k], dt)
    dI = dZ - np.einsum("kn,nm->km", mean[:-1], H) * dt  # H^T m_k, one row per step
    return GaussianState(grid=obs.grid, mean=mean, covariance=Sigma,
                         innovation=cumulative_path(dI))


def lq_control_riccati(A, G, terminal_hessian, grid: TimeGrid,
                       sigma: float = 0.0) -> ControlRiccati:
    """Backward LQ Riccati for drift b(x, a) = A^T x + G a and cost
    0.5 ||a||^2 + 0.5 x^T Q_f x:

        -dP/dt = A P + P A^T - P G G^T P,  P_T = Q_f,

    with gain K_t = G^T P_t and policy a_t(x) = -K_t x.  P_{T-s} is the
    `_filter_sweep` of the dual system (A^T, G, no noise) from Q_f, unclipped, as
    Q_f may be indefinite.  When sigma is given, the additive value offset r_t
    (-dr/dt = sigma^2/2 tr P) is integrated as well.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    dt = grid.dt
    K = grid.n_steps
    path = _filter_sweep(np.transpose(A), G, 0.0, terminal_hessian, grid)[::-1]
    gains = np.einsum("ij,kjl->kil", G.T, path)
    trace = 0.5 * sigma * sigma * np.trace(path, axis1=1, axis2=2)
    offset = np.zeros(K + 1)
    if sigma:
        # reverse cumulative trapezoid of the trace term
        increments = 0.5 * dt * (trace[:-1] + trace[1:])
        offset[:-1] = increments[::-1].cumsum()[::-1]
    return ControlRiccati(grid=grid, P=path, gains=gains, value_offset=offset)


def model_riccati(model: LinearGaussianModelSpec, grid: TimeGrid) -> np.ndarray:
    return riccati_filter(model.A, model.H, model.sigma, model.Sigma0, grid)


def model_kalman(model: LinearGaussianModelSpec, obs: ObservationRecord,
                 Sigma_path: np.ndarray | None = None) -> GaussianState:
    if Sigma_path is None:
        Sigma_path = model_riccati(model, obs.grid)
    return kalman_bucy_mean(model.A, model.H, Sigma_path, model.m0, obs)
