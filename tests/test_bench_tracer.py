import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # read bench/ only
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


def test_benchmark_tracer_finds_every_wrap_point(monkeypatch):
    # The traced benchmark wraps module attributes by name (verlet_step,
    # occupation_batch, propagate_series, ...); a rename would leave its
    # per-layer metrics reading 0 instead of failing.
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tracer.unwrapped == []
    finally:
        tracer.unpatch()


def test_benchmark_tracer_counts_one_propagation_per_step_size(monkeypatch):
    # every column and atom of a 1-D config propagates as one batch per step
    # size: two propagations, each step covering all 2 x 2 rows of the grid
    tracer_mod = load_tracer(monkeypatch)
    from obscert import scenario
    n = 256
    sc = scenario.parse({
        "scenario": "traced", "potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0]},
        "K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 0.4},
        "omega": {"boxes": [[-2.7, 8.0]]}, "T": 0.2, "deltas": [3.0], "hbars": [0.1, 0.2],
        "state": {"kind": "toeplitz", "atoms": [[-2.5, 1.25, 1.0], [-2.2, 1.0, 0.5]]},
        "numerics": {"n": n, "length": 20.0, "dt": 1e-2, "dt_flow": 1e-2},
    })
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        reports = scenario.run_scenario(sc)
    finally:
        tracer.unpatch()
    assert len(reports) == 2
    counters = tracer.counters
    assert counters["scenario.columns"] == 2
    assert counters["quantum.propagations"] == 2
    assert counters["quantum.strang_steps"] == (20 + 1) + (10 + 1)
    assert counters["quantum.step_points"] == counters["quantum.strang_steps"] * 4 * n


def test_benchmark_tracer_counts_2d_rows_exactly_under_threads(monkeypatch):
    # each row of a 2-D config propagates on its own at each step size, and
    # the rows run concurrently: 2 atoms x 2 step sizes give four
    # propagations, and every step is counted once
    tracer_mod = load_tracer(monkeypatch)
    from obscert import scenario
    n = 64
    sc = scenario.parse({
        "scenario": "traced2d",
        "potential": {"kind": "harmonic", "dim": 2, "box": [[-6, 6], [-6, 6]]},
        "K": {"boxes": [[[0.7, 1.3], [0.7, 1.3], [-0.3, 0.3], [-0.3, 0.3]]], "spacing": 0.3},
        "omega": {"boxes": [[[0.2, 2.0], [0.2, 2.0]]]}, "T": 0.2, "deltas": [1.0],
        "hbars": [0.15],
        "state": {"kind": "toeplitz", "atoms": [[[0.9, 0.9], [-0.1, 0.1], 0.5],
                                                [[1.1, 1.1], [-0.1, -0.1], 0.5]]},
        "numerics": {"n": n, "length": 8.5, "dt": 1e-2, "dt_flow": 1e-2},
    })
    tracer = tracer_mod.Tracer()
    # the first `+= 1` on a missing Counter key runs `__missing__`, Python
    # code where another thread can take over and lose an increment; on an
    # existing key the increment does not give up the interpreter lock
    for key in ("quantum.propagations", "quantum.strang_steps", "quantum.step_points"):
        tracer.counters[key] = 0
    try:
        tracer.install()
        reports = scenario.run_scenario(sc)
    finally:
        tracer.unpatch()
    assert len(reports) == 1
    counters = tracer.counters
    assert counters["quantum.propagations"] == 4
    assert counters["quantum.strang_steps"] == 2 * (20 + 1) + 2 * (10 + 1)
    assert counters["quantum.step_points"] == counters["quantum.strang_steps"] * n * n


@pytest.mark.parametrize("dim", [1, 2])
def test_benchmark_tracer_counts_each_husimi_phase_point_once(monkeypatch, dim):
    # husimi_mass calls the overlap kernel once per lattice and never through
    # the coherent_overlaps view, so the traced point count is the coarse
    # plus the fine lattice size of each hbar column
    tracer_mod = load_tracer(monkeypatch)
    from obscert import scenario
    from obscert.classical import lattice_axis
    if dim == 1:
        potential = {"kind": "free", "dim": 1, "box": [-10.0, 10.0]}
        K = [[[-3.1, -1.9], [0.65, 1.85]]]
        state = {"kind": "coherent", "q": -2.5, "p": 1.25}
        omega, n, length = [[-2.7, 8.0]], 256, 20.0
    else:
        potential = {"kind": "harmonic", "dim": 2, "box": [[-6, 6], [-6, 6]]}
        K = [[[0.7, 1.3], [0.7, 1.3], [-0.3, 0.3], [-0.3, 0.3]]]
        state = {"kind": "coherent", "q": [1.0, 1.0], "p": [0.0, 0.0]}
        omega, n, length = [[[0.2, 2.0], [0.2, 2.0]]], 64, 8.5
    hbars = [0.1, 0.15]
    sc = scenario.parse({
        "scenario": f"traced_pure{dim}d", "potential": potential,
        "K": {"boxes": K, "spacing": 0.3}, "omega": {"boxes": omega}, "T": 0.1,
        "deltas": [1.0], "hbars": hbars, "state": state,
        "numerics": {"n": n, "length": length, "dt": 1e-2, "dt_flow": 1e-2},
    })
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        reports = scenario.run_scenario(sc)
    finally:
        tracer.unpatch()
    assert len(reports) == len(hbars)
    expected = 0
    for hbar in hbars:
        h = math.sqrt(hbar) / 5.0
        for spacing in (h, h / 2.0):
            expected += math.prod(len(lattice_axis(lo, hi, spacing)) for lo, hi in K[0])
    assert tracer.counters["phasespace.overlap_points"] == expected
