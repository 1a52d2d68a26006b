"""Model specifications, grids, and the named-function registry.

Configuration documents are INI-style text with sections [model], [grid],
[estimator], [control], [output].  `parse_config` checks the keys of every
section but [model], whose keys depend on its kind and are checked by
`build_model`; `setting` reads one typed value.  Models come in two kinds:
nonlinear scalar diffusions with a one-dimensional observation channel, and
general linear-Gaussian systems given by matrices.  All specification
objects are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveSigma,
    SpaceGridTooNarrow,
    UnknownFunctionName,
)


@cache
def _gauss_hermite():
    """The one 64-node Gauss-Hermite rule (weight exp(-x^2)) behind every Gaussian
    expectation, read-only, built on first use: numpy.polynomial is not imported
    until then."""
    from numpy.polynomial.hermite import hermgauss
    nodes, weights = hermgauss(64)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gaussian_quadrature(mean, var: float):
    """Gauss-Hermite nodes (one row per entry of `mean`) and weights for N(mean, var)."""
    gh_nodes, gh_weights = _gauss_hermite()
    nodes = np.asarray(mean, dtype=float)[..., None] + math.sqrt(2.0 * max(var, 0.0)) * gh_nodes
    return nodes, gh_weights / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer (a numpy one too, not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k * dt covering [0, t_end]."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        _check_count("n_steps", self.n_steps, 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def matches(self, other: "TimeGrid") -> bool:
        return self.n_steps == other.n_steps and math.isclose(
            self.t_end, other.t_end, rel_tol=1e-12
        )


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise ValueError(f"x_min and x_max must be finite with x_min < x_max, "
                             f"got {self.x_min}, {self.x_max}")
        _check_count("n_points", self.n_points, 3)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """The nodes np.linspace(x_min, x_max, n_points), built once per grid
        and read-only."""
        return self._nodes

    @cached_property
    def _nodes(self) -> np.ndarray:
        nodes = np.linspace(self.x_min, self.x_max, self.n_points)
        nodes.setflags(write=False)
        return nodes


# ---------------------------------------------------------------------------
# named-function registry
# ---------------------------------------------------------------------------

def _fn_linear(x, p):
    return p.get("a", 1.0) * x + p.get("b", 0.0)


# x * x * x, not x**3: numpy sends an integer power to pow(), which is about
# 60 times slower per element; the product is within 1 ulp of it.
def _fn_cubic(x, p):
    return p.get("c", 1.0) * (x * x * x)


def _fn_double_well(x, p):
    return x - x * x * x


def _fn_sine(x, p):
    return p.get("amplitude", 1.0) * np.sin(
        p.get("frequency", 1.0) * x + p.get("phase", 0.0)
    )


def _fn_constant(x, p):
    return p.get("c", 1.0) * np.ones_like(np.asarray(x, dtype=float))


def _fn_indicator_positive(x, p):
    return (np.asarray(x, dtype=float) > 0.0).astype(float)


def _fn_gaussian_bump(x, p):
    c = p.get("center", 0.0)
    w = p.get("width", 1.0)
    return p.get("amplitude", 1.0) * np.exp(-((x - c) ** 2) / (2.0 * w**2))


def _fn_quadratic(x, p):
    c = p.get("center", 0.0)
    return 0.5 * p.get("weight", 1.0) * (x - c) ** 2


_REGISTRY = {
    "linear": _fn_linear,
    "cubic": _fn_cubic,
    "double_well": _fn_double_well,
    "sine": _fn_sine,
    "constant": _fn_constant,
    "indicator_positive": _fn_indicator_positive,
    "gaussian_bump": _fn_gaussian_bump,
    "quadratic": _fn_quadratic,
}


# Cell-average rules (lo, hi, params) -> mean of f over [lo, hi] for the registry
# functions with a jump, whose node values a linear interpolant would misplace.
CELL_AVERAGES = {"indicator_positive": lambda lo, hi, p:
                 (np.maximum(hi, 0.0) - np.maximum(lo, 0.0)) / (hi - lo)}


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def registry_eval(name: str, params: dict | None, x):
    """Evaluate a registered named function pointwise.

    Accepts scalars or arrays; evaluation is deterministic.
    """
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise UnknownFunctionName(
            f"unknown function {name!r}; known: {', '.join(registry_names())}"
        ) from None
    # The hot loops' inputs skip the conversions, which would leave them as
    # they are: a float64 array, and a float (np.float64 too) read as a 0-d array.
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim:
        return fn(x, params or {})
    if isinstance(x, float):
        return float(fn(np.asarray(x), params or {}))
    out = fn(np.asarray(x, dtype=float), params or {})
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class NamedFunction:
    """A registry function bound to its parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise UnknownFunctionName(
                f"unknown function {self.name!r}; known: {', '.join(registry_names())}"
            )

    def __call__(self, x):
        return registry_eval(self.name, self.params, x)


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMixturePrior:
    """Finite Gaussian mixture prior; a single Gaussian is a 1-component mixture."""

    means: tuple[float, ...]
    variances: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.means) == len(self.variances) == len(self.weights)):
            raise DimensionMismatch("prior component lists must share length")
        if any(v <= 0 for v in self.variances):
            raise ValueError("prior variances must be positive")
        if any(w < 0 for w in self.weights):
            raise ValueError("prior weights must be nonnegative")
        total = sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError("prior weights must sum to 1")

    @staticmethod
    def gaussian(mean: float, variance: float) -> "GaussianMixturePrior":
        return GaussianMixturePrior((float(mean),), (float(variance),), (1.0,))

    @property
    def mean(self) -> float:
        return float(sum(w * m for w, m in zip(self.weights, self.means)))

    @property
    def variance(self) -> float:
        mu = self.mean
        return float(
            sum(w * (v + (m - mu) ** 2)
                for w, m, v in zip(self.weights, self.means, self.variances))
        )

    def expectation(self, fn) -> float:
        """E[fn(X)] by Gauss-Hermite quadrature, exact enough to serve as an oracle."""
        gh_nodes, gh_weights = _gauss_hermite()
        total = 0.0
        for w, m, v in zip(self.weights, self.means, self.variances):
            x = m + math.sqrt(2.0 * v) * gh_nodes
            fx = np.asarray(fn(x), dtype=float)
            total += w * float(np.dot(gh_weights, fx)) / math.sqrt(math.pi)
        return total

    def mass_outside(self, lo: float, hi: float) -> float:
        total = 0.0
        for w, m, v in zip(self.weights, self.means, self.variances):
            s = math.sqrt(v)
            total += w * (
                0.5 * math.erfc((hi - m) / (s * math.sqrt(2.0)))
                + 0.5 * math.erfc((m - lo) / (s * math.sqrt(2.0)))
            )
        return total

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # Fixed draw order (uniform then normal) keeps streams reproducible.
        return self.from_draws(gen.random(size), gen.standard_normal(size))

    def from_draws(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Map uniforms u (component choice) and normals z to prior samples."""
        means = np.asarray(self.means)
        sds = np.sqrt(np.asarray(self.variances))
        edges = np.cumsum(np.asarray(self.weights))
        idx = np.searchsorted(edges, u, side="right").clip(0, len(means) - 1)
        return means[idx] + sds[idx] * z


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarModelSpec:
    """Nonlinear scalar diffusion with a one-dimensional observation channel.

    dX = drift(X) dt + sigma dB,  dZ = obs(X) dt + dW,  X0 ~ prior.
    """

    drift_fn: NamedFunction
    sigma: float
    obs_fn: NamedFunction
    terminal_fn: NamedFunction
    prior: GaussianMixturePrior
    control_gain: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {self.sigma}")

    @property
    def kind(self) -> str:
        return "scalar"

    def drift(self, x):
        return self.drift_fn(x)

    def obs(self, x):
        return self.obs_fn(x)

    def terminal(self, x):
        return self.terminal_fn(x)

    def validate_on_grid(self, grid: SpaceGrid) -> None:
        x = grid.points()
        for fn, label in ((self.drift_fn, "drift"), (self.obs_fn, "h"),
                          (self.terminal_fn, "f")):
            vals = np.asarray(fn(x), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{label} evaluates to non-finite values on the grid")
        outside = self.prior.mass_outside(grid.x_min, grid.x_max)
        if outside >= 1e-6:
            raise SpaceGridTooNarrow(
                f"prior mass outside [{grid.x_min}, {grid.x_max}] is {outside:.2e} >= 1e-6"
            )


def _as_matrix(a, rows: int | None = None, cols: int | None = None, label: str = "matrix"):
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"{label} must have {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"{label} must have {cols} columns, got {m.shape[1]}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class LinearGaussianModelSpec:
    """Linear-Gaussian system: drift A^T x, observation H^T x, terminal f_bar^T x.

    dX = (A^T X + G alpha) dt + sigma dB,  dZ = H^T X dt + dW,
    X0 ~ N(m0, Sigma0).
    """

    A: np.ndarray
    H: np.ndarray
    sigma: float
    m0: np.ndarray
    Sigma0: np.ndarray
    f_bar: np.ndarray
    G: np.ndarray | None = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {self.sigma}")
        A = _as_matrix(self.A, label="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        H = _as_matrix(self.H, rows=n, label="H")
        m0 = np.asarray(self.m0, dtype=float).reshape(-1)
        if m0.shape[0] != n:
            raise DimensionMismatch(f"m0 must have length {n}, got {m0.shape[0]}")
        S0 = _as_matrix(self.Sigma0, rows=n, cols=n, label="Sigma0")
        if not np.allclose(S0, S0.T, atol=1e-12):
            raise DimensionMismatch("Sigma0 must be symmetric")
        eig = np.linalg.eigvalsh(S0)
        if eig.min() < -1e-10:
            raise DimensionMismatch("Sigma0 must be positive semidefinite")
        fb = np.asarray(self.f_bar, dtype=float).reshape(-1)
        if fb.shape[0] != n:
            raise DimensionMismatch(f"f_bar must have length {n}, got {fb.shape[0]}")
        G = self.G
        if G is None:
            G = np.zeros((n, 1))
        G = _as_matrix(G, rows=n, label="G")
        m0.setflags(write=False)
        fb.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "Sigma0", S0)
        object.__setattr__(self, "f_bar", fb)
        object.__setattr__(self, "G", G)

    @property
    def kind(self) -> str:
        return "linear_gaussian"

    @property
    def n_state(self) -> int:
        return self.A.shape[0]

    @property
    def n_obs(self) -> int:
        return self.H.shape[1]

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        if self.n_state == 1 and x.ndim <= 1:
            return float(self.A[0, 0]) * x
        return x @ self.A  # row-stacked states: (A^T x)^T = x^T A

    def obs(self, x):
        x = np.asarray(x, dtype=float)
        if self.n_state == 1 and self.n_obs == 1 and x.ndim <= 1:
            return float(self.H[0, 0]) * x
        return x @ self.H

    def terminal(self, x):
        x = np.asarray(x, dtype=float)
        if self.n_state == 1 and x.ndim <= 1:
            return float(self.f_bar[0]) * x
        return x @ self.f_bar

    @property
    def prior(self) -> GaussianMixturePrior:
        if self.n_state != 1:
            raise DimensionMismatch("scalar prior view requires a 1-D state")
        return GaussianMixturePrior.gaussian(float(self.m0[0]), float(self.Sigma0[0, 0]))

    def draw_initial_state(self, gen: np.random.Generator) -> np.ndarray:
        """One draw of X0 ~ N(m0, Sigma0); a singular PSD Sigma0 (eigenvalues down
        to -1e-10 pass validation) falls back to a clipped eigen-factor."""
        try:
            L = np.linalg.cholesky(self.Sigma0)
        except np.linalg.LinAlgError:
            w, V = np.linalg.eigh(self.Sigma0)
            L = V * np.sqrt(np.maximum(w, 0.0))
        return self.m0 + L @ gen.standard_normal(self.n_state)

    def as_scalar(self) -> ScalarModelSpec:
        """Scalar-model view of a 1-D linear-Gaussian spec (for grid solvers)."""
        if self.n_state != 1 or self.n_obs != 1:
            raise DimensionMismatch("as_scalar requires n = m = 1")
        return ScalarModelSpec(
            drift_fn=NamedFunction("linear", {"a": float(self.A[0, 0])}),
            sigma=self.sigma,
            obs_fn=NamedFunction("linear", {"a": float(self.H[0, 0])}),
            terminal_fn=NamedFunction("linear", {"a": float(self.f_bar[0])}),
            prior=self.prior,
            control_gain=float(self.G[0, 0]),
        )


def scalar_view(model) -> ScalarModelSpec:
    """The scalar-model view that grid solvers and ensembles run on."""
    if isinstance(model, ScalarModelSpec):
        return model
    if isinstance(model, LinearGaussianModelSpec):
        return model.as_scalar()
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

_MODEL_KEYS_SCALAR = {
    "kind", "drift", "drift_params", "a", "sigma", "h", "h_params", "f", "f_params",
    "prior_mean", "prior_var", "prior_means", "prior_vars", "prior_weights",
    "control_gain",
}
_MODEL_KEYS_LG = {"kind", "a", "h", "g", "sigma", "m0", "sigma0", "f_bar"}
_KNOWN_SECTIONS = {  # [model] keys depend on its kind; build_model checks them
    "model": None,
    "grid": {"t_end", "n_steps", "x_min", "x_max", "n_points"},
    "estimator": {"id", "particles", "pi_h_source", "ess_floor"},
    "control": {"mode", "terminal_hessian", "terminal", "terminal_params", "n_runs",
                "filter_particles"},
    "output": {"dir", "dump_ensembles"},
}
_REQUIRED = object()


def parse_config(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        if _KNOWN_SECTIONS[section] is not None:
            _check_keys(section, parser[section], _KNOWN_SECTIONS[section])
    return parser


def setting(config, section: str, key: str, convert=str, default=_REQUIRED):
    """[section] key of a parsed config, converted by `convert`; `default` if absent.

    A missing key without a default, or a value that `convert` rejects, raises
    ConfigError.
    """
    if not (config.has_section(section) and key in config[section]):
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        return default
    text = config[section][key].strip()
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from None


def _parse_matrix(text: str, label: str) -> np.ndarray:
    # rows separated by ';', entries by ','
    try:
        rows = [
            [float(v) for v in row.split(",") if v.strip() != ""]
            for row in text.split(";")
        ]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {label}={text!r} as a matrix") from exc
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"ragged rows in {label}={text!r}")
    return np.array(rows, dtype=float)


def _parse_vector(text: str, label: str) -> np.ndarray:
    m = _parse_matrix(text, label)
    return m.reshape(-1)


def _parse_params(text: str, label: str) -> dict:
    # "a=-1,b=0.5" -> {"a": -1.0, "b": 0.5}
    params = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"cannot parse parameter {item!r} in {label}")
        key, val = item.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"non-numeric parameter {item!r} in {label}") from exc
    return params


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"unknown keys in [{section}]: {', '.join(sorted(unknown))}"
        )


def _parsed(config) -> configparser.ConfigParser:
    return parse_config(config) if isinstance(config, str) else config


def _is_pure_linear(fn: NamedFunction) -> bool:
    return fn.name == "linear" and fn.params.get("b", 0.0) == 0.0


def build_model(config) -> ScalarModelSpec | LinearGaussianModelSpec:
    """Build and validate a model from a config document (text or parser).

    Scalar configs in which drift, h and f are all pure linear functions (and
    the prior is a single Gaussian) are promoted to the 1-D linear-Gaussian
    representation so that closed-form oracles apply.
    """
    config = _parsed(config)
    if not config.has_section("model"):
        raise ConfigError("missing [model] section")
    sec = config["model"]
    # a config with a "drift" key is in scalar form; matrix form has A/H/...
    default_kind = "scalar" if "drift" in sec else "linear_gaussian"
    kind = sec.get("kind", default_kind).strip()

    if kind == "linear_gaussian" and "drift" not in sec:
        _check_keys("model", sec.keys(), _MODEL_KEYS_LG)
        for key in ("a", "h", "sigma", "m0", "sigma0", "f_bar"):
            if key not in sec:
                raise ConfigError(f"[model] missing key {key!r}")
        sigma = float(sec["sigma"])
        if sigma <= 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
        A = _parse_matrix(sec["a"], "A")
        H = _parse_matrix(sec["h"], "H")
        G = _parse_matrix(sec["g"], "G") if "g" in sec else None
        return LinearGaussianModelSpec(
            A=A,
            H=H,
            G=G,
            sigma=sigma,
            m0=_parse_vector(sec["m0"], "m0"),
            Sigma0=_parse_matrix(sec["sigma0"], "Sigma0"),
            f_bar=_parse_vector(sec["f_bar"], "f_bar"),
        )

    if kind in ("scalar", "linear_gaussian"):
        _check_keys("model", sec.keys(), _MODEL_KEYS_SCALAR)
        for key in ("drift", "sigma", "h", "f"):
            if key not in sec:
                raise ConfigError(f"[model] missing key {key!r}")
        sigma = float(sec["sigma"])
        if sigma <= 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
        if "prior_means" in sec:
            means = tuple(_parse_vector(sec["prior_means"], "prior_means"))
            varis = tuple(_parse_vector(sec.get("prior_vars", "1"), "prior_vars"))
            weights = tuple(_parse_vector(sec.get("prior_weights", "1"), "prior_weights"))
            prior = GaussianMixturePrior(means, varis, weights)
        else:
            prior = GaussianMixturePrior.gaussian(
                float(sec.get("prior_mean", 0.0)), float(sec.get("prior_var", 1.0))
            )
        drift_params = _parse_params(sec.get("drift_params", ""), "drift_params")
        if "a" in sec:  # shorthand for the linear drift slope
            drift_params["a"] = float(sec["a"])
        spec = ScalarModelSpec(
            drift_fn=NamedFunction(sec["drift"].strip(), drift_params),
            sigma=sigma,
            obs_fn=NamedFunction(sec["h"].strip(),
                                 _parse_params(sec.get("h_params", ""), "h_params")),
            terminal_fn=NamedFunction(sec["f"].strip(),
                                      _parse_params(sec.get("f_params", ""), "f_params")),
            prior=prior,
            control_gain=float(sec.get("control_gain", 0.0)),
        )
        promotable = (
            _is_pure_linear(spec.drift_fn)
            and _is_pure_linear(spec.obs_fn)
            and _is_pure_linear(spec.terminal_fn)
            and len(spec.prior.means) == 1
        )
        if kind == "linear_gaussian" and not promotable:
            raise ConfigError(
                "kind=linear_gaussian requires pure linear drift/h/f and a Gaussian prior"
            )
        if promotable:
            return LinearGaussianModelSpec(
                A=[[spec.drift_fn.params.get("a", 1.0)]],
                H=[[spec.obs_fn.params.get("a", 1.0)]],
                G=[[spec.control_gain]] if spec.control_gain else None,
                sigma=sigma,
                m0=[spec.prior.means[0]],
                Sigma0=[[spec.prior.variances[0]]],
                f_bar=[spec.terminal_fn.params.get("a", 1.0)],
            )
        return spec

    raise ConfigError(f"unknown model kind {kind!r}")


def specs_equal(a, b) -> bool:
    """Structural equality for model specs (numpy fields compared elementwise)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, LinearGaussianModelSpec):
        return (
            np.array_equal(a.A, b.A)
            and np.array_equal(a.H, b.H)
            and np.array_equal(a.G, b.G)
            and a.sigma == b.sigma
            and np.array_equal(a.m0, b.m0)
            and np.array_equal(a.Sigma0, b.Sigma0)
            and np.array_equal(a.f_bar, b.f_bar)
        )
    return a == b


def build_time_grid(config) -> TimeGrid:
    config = _parsed(config)
    return TimeGrid(t_end=setting(config, "grid", "t_end", float),
                    n_steps=setting(config, "grid", "n_steps", int))


def build_space_grid(config) -> SpaceGrid:
    config = _parsed(config)
    return SpaceGrid(x_min=setting(config, "grid", "x_min", float),
                     x_max=setting(config, "grid", "x_max", float),
                     n_points=setting(config, "grid", "n_points", int))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def serialize_model(model: ScalarModelSpec | LinearGaussianModelSpec) -> str:
    """Emit a canonical [model] config section that re-parses to the same spec."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("model")
    sec = parser["model"]
    if isinstance(model, LinearGaussianModelSpec):
        sec["kind"] = "linear_gaussian"
        sec["a"] = ";".join(",".join(_fmt(v) for v in row) for row in model.A)
        sec["h"] = ";".join(",".join(_fmt(v) for v in row) for row in model.H)
        if np.any(model.G != 0.0):
            sec["g"] = ";".join(",".join(_fmt(v) for v in row) for row in model.G)
        sec["sigma"] = _fmt(model.sigma)
        sec["m0"] = ",".join(_fmt(v) for v in model.m0)
        sec["sigma0"] = ";".join(",".join(_fmt(v) for v in row) for row in model.Sigma0)
        sec["f_bar"] = ",".join(_fmt(v) for v in model.f_bar)
    else:
        sec["kind"] = "scalar"
        sec["drift"] = model.drift_fn.name
        if model.drift_fn.params:
            sec["drift_params"] = ",".join(
                f"{k}={_fmt(v)}" for k, v in sorted(model.drift_fn.params.items()))
        sec["sigma"] = _fmt(model.sigma)
        sec["h"] = model.obs_fn.name
        if model.obs_fn.params:
            sec["h_params"] = ",".join(
                f"{k}={_fmt(v)}" for k, v in sorted(model.obs_fn.params.items()))
        sec["f"] = model.terminal_fn.name
        if model.terminal_fn.params:
            sec["f_params"] = ",".join(
                f"{k}={_fmt(v)}" for k, v in sorted(model.terminal_fn.params.items()))
        sec["prior_means"] = ",".join(_fmt(v) for v in model.prior.means)
        sec["prior_vars"] = ",".join(_fmt(v) for v in model.prior.variances)
        sec["prior_weights"] = ",".join(_fmt(v) for v in model.prior.weights)
        if model.control_gain:
            sec["control_gain"] = _fmt(model.control_gain)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
