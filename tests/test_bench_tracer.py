import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_finds_every_wrap_point(monkeypatch):
    # The traced benchmark wraps module attributes by name (verlet_step,
    # occupation_batch, propagate_series, ...); a rename would leave its
    # per-layer metrics reading 0 instead of failing.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # read bench/ only
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tracer.unwrapped == []
    finally:
        tracer.unpatch()
