"""Step rows drawn ahead on the worker thread cannot move a bit, and neither
can the number of CPUs a sum over the paths may use.

With at least 2**11 paths, every forward loop's step rows are filled one block
ahead on a worker thread.  A row's bits depend only on its Philox key, so the
ensembles and the particle filter give the same bytes whether the worker runs
beside the caller, shares one CPU with it, or is started afresh in a forked
child, and a loop that raises part-way leaves nothing behind that moves the
next call's bits.  Their sums over the paths, and the variance decay's, use
numpy's own loop, not a BLAS dot, so they keep their bits when the BLAS may
split a long sum over threads.
"""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fbsde_filter.errors import SimulationDiverged
from fbsde_filter.estimators import variance_decay
from fbsde_filter.model import SpaceGrid, TimeGrid
from fbsde_filter.particle import run_particle_filter
from fbsde_filter.pde_backward import GridFunction
from fbsde_filter.sde_sim import (
    _AHEAD_PATHS,
    simulate_girsanov_ensemble,
    simulate_innovation_ensemble,
    simulate_truth_and_obs,
)

from conftest import make_scalar

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

N_PATHS = 8_000  # blocks of 16 steps, filled on the worker
assert N_PATHS >= _AHEAD_PATHS

# One BLAS thread in every process compared: with more, OpenBLAS may split a
# long dot product over threads, which moves last bits for a reason that has
# nothing to do with the worker.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def digest(n_paths: int = N_PATHS) -> str:
    """SHA-256 of two ensembles, their variance decay and a particle filter of
    n_paths paths."""
    model = make_scalar("double_well", sigma=0.5, h="linear", h_params={"a": 2.0},
                        f="indicator_positive")
    grid = TimeGrid(1.0, 60)
    obs = simulate_truth_and_obs(model, grid, seed=41)
    space = SpaceGrid(-3.0, 3.0, 121)
    y = GridFunction.from_values(space, grid, np.tanh(space.points()) * np.ones((61, 1)))
    h = hashlib.sha256()
    for ens, flavor in ((simulate_innovation_ensemble(model, grid, obs, n_paths, seed=42), "pi"),
                        (simulate_girsanov_ensemble(model, grid, None, n_paths, seed=43),
                         "sigma")):
        h.update(ens.states.tobytes())
        h.update(ens.log_weights().tobytes())
        h.update(variance_decay(model, y, ens, flavor).var_y.tobytes())
    pf = run_particle_filter(model, grid, obs, n_paths, seed=44, ess_floor=0.9)
    h.update(pf.estimates["x"].values.tobytes())
    h.update(pf.ess.tobytes())
    h.update(repr(pf.resample_steps).encode())
    return h.hexdigest()


def _digest_to_pipe(conn):
    conn.send(digest())
    conn.close()


def digests_before_and_after_fork() -> tuple[str, str]:
    """The digest in this process, which runs the worker, and in a child forked
    from it afterwards, which inherits the executor but not its thread."""
    before = digest()
    parent_end, child_end = multiprocessing.Pipe(duplex=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        child = multiprocessing.get_context("fork").Process(target=_digest_to_pipe,
                                                            args=(child_end,))
        child.start()
    child_end.close()
    try:
        if not parent_end.poll(60):
            raise TimeoutError("the forked child hung")
        return before, parent_end.recv()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()


def run_in_subprocess(call: str, pin: bool = False, one_blas_thread: bool = True) -> str:
    """print(call) in a fresh interpreter, pinned to one CPU when pin is set,
    with one BLAS thread or, without one_blas_thread, the BLAS variables unset
    (the BLAS then starts a thread per CPU the process may use)."""
    pin_line = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})" if pin else ""
    script = (f"import os, sys\n{pin_line}\nsys.path.insert(0, {str(TESTS)!r})\n"
              f"import test_noise_stream as t\nprint({call})\n")
    env = {k: v for k, v in os.environ.items() if k not in ONE_BLAS_THREAD}
    if one_blas_thread:
        env.update(ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_the_worker_cannot_move_a_bit_pinned_unpinned_or_forked():
    unpinned = run_in_subprocess("t.digest()")
    assert run_in_subprocess("t.digest()", pin=True) == unpinned
    assert run_in_subprocess("' '.join(t.digests_before_and_after_fork())") == \
        f"{unpinned} {unpinned}"


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs two CPUs: with one, the BLAS has no thread to split a sum")
def test_path_sums_do_not_depend_on_the_cpu_count():
    # 20 000 paths: above the length from which OpenBLAS splits a dot product
    call = "t.digest(20_000)"
    unpinned = run_in_subprocess(call, one_blas_thread=False)
    assert run_in_subprocess(call, pin=True, one_blas_thread=False) == unpinned


def test_a_loop_that_raises_part_way_leaves_no_draw_behind():
    model = make_scalar("double_well", sigma=0.5, h="linear", h_params={"a": 2.0})
    grid = TimeGrid(1.0, 60)
    obs = simulate_truth_and_obs(model, grid, seed=51)

    def run():
        ens = simulate_innovation_ensemble(model, grid, obs, N_PATHS, seed=52)
        pf = run_particle_filter(model, grid, obs, N_PATHS, seed=52, ess_floor=0.5)
        return hashlib.sha256(ens.states.tobytes() + ens.log_weights().tobytes()
                              + pf.estimates["x"].values.tobytes()).hexdigest()

    before = run()
    # the same streams, stopped in the middle of a block with the next one pending
    blow_up = lambda k, x: np.where(k >= 9, 1e12, model.drift(x))
    for _ in range(3):
        with pytest.raises(SimulationDiverged):
            simulate_innovation_ensemble(model, grid, obs, N_PATHS, seed=52, drift_fn=blow_up)
    assert run() == before
