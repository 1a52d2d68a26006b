"""Span tracer for the traced benchmark run.

The tracer rebinds public entry points of the ``fbsde_filter`` modules to
timing wrappers for the duration of a ``with`` block; no library file is
changed.  Every wrapped call records a span ``[name, start, end, parent]``;
a span's self time is its duration minus the durations of its direct
children.  Counters are taken at the same boundaries, and health counters
are read from the objects the library returns (after each record, outside
any span, so that reading them is not charged to a layer).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from fbsde_filter import cli, control, estimators, kalman, model, particle, pde_backward, sde_sim

LAYERS = ("model", "sde_sim", "pde_backward", "estimators", "particle", "kalman",
          "control", "cli")


def _fn_key(fn) -> tuple:
    return fn.name, tuple(sorted(fn.params.items()))


def _min_ess_fraction(log_weights: np.ndarray) -> float:
    """Minimum over time of ESS / N for an (N, K + 1) log-weight array."""
    w = np.exp(log_weights - log_weights.max(axis=0))
    s = w.sum(axis=0)
    ess = s * s / np.einsum("ij,ij->j", w, w)
    return float(ess.min() / log_weights.shape[0])


class Tracer:
    """Records spans and counters while installed (``with Tracer(...):``).

    ``roles`` pairs named model functions with "drift" or "obs" so that calls of
    ``NamedFunction.__call__`` are split by role; other named functions (for
    example a terminal cost) are traced as ``model.fn``.  ``x_range`` is the
    workload's space grid, against which ensemble states are counted as
    outside the grid.
    """

    def __init__(self, roles, x_range: tuple[float, float]):
        self.roles = {_fn_key(fn): "model." + role for fn, role in roles}
        self.x_min, self.x_max = x_range
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._saved: list[tuple] = []
        self._ens_min = np.inf
        self._pf_min = np.inf
        self._out_states = 0
        self._all_states = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name, after=None):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(name, fn, args, kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    def _wrap_named_function(self, fn):
        roles, counts, span = self.roles, self.counts, self._span

        @functools.wraps(fn)
        def wrapper(fn_self, x):
            counts["model.fn_points"] += np.size(x)
            return span(roles.get(_fn_key(fn_self), "model.fn"), fn, (fn_self, x), {})
        return wrapper

    # -- counters ------------------------------------------------------------

    def _count(self, key):
        def after(out, args, kwargs):
            self.counts[key] += 1
        return after

    def _count_eval(self, out, args, kwargs):
        self.counts["pde_backward.eval_points"] += np.size(args[2])

    def _count_truth(self, out, args, kwargs):
        self.counts["sde_sim.path_steps"] += out.grid.n_steps

    def _count_ensemble(self, out, args, kwargs):
        self.counts["sde_sim.path_steps"] += out.n_paths * out.grid.n_steps
        self._pending.append(("ensemble", out))

    def _count_fixed_point(self, out, args, kwargs):
        self.counts["estimators.fp_iters"] += out.n_iterations or 0

    def _count_filter(self, out, args, kwargs):
        n_paths = kwargs["n_paths"] if "n_paths" in kwargs else args[3]
        self._pending.append(("filter", out, n_paths))

    def read_health(self) -> None:
        """Read health counters from the objects returned since the last call."""
        for item in self._pending:
            if item[0] == "ensemble":
                ens = item[1]
                lw = (ens.log_weights_innovation if ens.log_weights_innovation is not None
                      else ens.log_weights_girsanov)
                self._ens_min = min(self._ens_min, _min_ess_fraction(lw))
                states = ens.states
                self._out_states += int(np.count_nonzero(
                    (states < self.x_min) | (states > self.x_max)))
                self._all_states += states.size
            else:
                result, n_paths = item[1], item[2]
                self.counts["particle.resamples"] += len(result.resample_steps)
                self._pf_min = min(self._pf_min, float(result.ess.min()) / n_paths)
        self._pending.clear()

    # -- installation ----------------------------------------------------------

    def _targets(self):
        solve = "pde_backward.solve"
        fold = "estimators.fold"
        return (
            (sde_sim, "_ensemble_noise", "sde_sim.noise", None),
            (sde_sim, "simulate_truth_and_obs", "sde_sim.truth", self._count_truth),
            (sde_sim, "simulate_girsanov_ensemble", "sde_sim.ensemble", self._count_ensemble),
            (sde_sim, "simulate_innovation_ensemble", "sde_sim.ensemble", self._count_ensemble),
            (pde_backward.GridFunction, "eval", "pde_backward.eval", self._count_eval),
            (pde_backward.GridFunction, "eval_gradient", "pde_backward.eval", self._count_eval),
            (pde_backward, "solve_backward_kolmogorov", solve, None),
            (pde_backward, "solve_feynman_kac", solve, None),
            (pde_backward, "solve_backward_with_source", solve, None),
            (pde_backward, "solve_hjb_quadratic", solve, None),
            (pde_backward, "solve_banded", "pde_backward.banded",
             self._count("pde_backward.banded_solves")),
            (estimators, "estimate_sigma_obs", fold, None),
            (estimators, "estimate_pi_innovation", fold, None),
            (estimators, "estimate_sigma_obs_error", fold, None),
            (estimators, "estimate_pi_obs", "estimators.fp", self._count_fixed_point),
            (particle, "run_particle_filter", "particle.pf", self._count_filter),
            (kalman, "riccati_filter", "kalman.riccati", None),
            (kalman, "kalman_bucy_mean", "kalman.mean", None),
            (control, "certainty_equivalence_run", "control.ce", self._count("control.ce_runs")),
            (control, "hjb_policy", "control.hjb", None),
            (cli, "main", "cli.main", None),
        )

    def __enter__(self):
        self._rebind_class(model.NamedFunction, "__call__",
                           self._wrap_named_function(model.NamedFunction.__call__))
        for owner, attr, name, after in self._targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, after)
            if isinstance(owner, type):
                self._rebind_class(owner, attr, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        return self

    def _rebind_class(self, cls, attr, wrapper):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper):
        # Library modules import entry points by name, so every module-level
        # reference to the original is rebound, not only its home module's.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fbsde_filter"
                                   or mod_name.startswith("fbsde_filter.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- results ---------------------------------------------------------------

    def self_times(self) -> tuple[dict, float]:
        """Self time per span name, and the summed duration of top-level spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            if parent < 0:
                top += end - start
        return totals, top

    def health(self) -> dict:
        return {
            "sde_sim.ess_min": 0.0 if self._ens_min == np.inf else self._ens_min,
            "sde_sim.grid_out_frac": (self._out_states / self._all_states
                                      if self._all_states else 0.0),
            "particle.ess_min": 0.0 if self._pf_min == np.inf else self._pf_min,
        }
