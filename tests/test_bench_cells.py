import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("config", ["double_well_toeplitz", "free_toeplitz"])
def test_soundness_cells_match_the_benchmark_reference(config, tmp_path, monkeypatch):
    # The benchmark fails a cell whose `measured` or `lower_bound` moves by
    # more than the reference cell's own eps_num.  These two configs hold
    # cells where eps_num is round-off (1e-14): summing the measured side in
    # another order already moves them that far.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)     # read bench/ only
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    reference = json.loads(bench_run.REFERENCE.read_text(encoding="utf-8"))
    ref_cells = reference[f"soundness/{config}"]
    out = tmp_path / config
    code = bench_run.run_certify(BENCH / "configs" / "soundness" / f"{config}.json", out)
    assert len(ref_cells) == 4
    assert bench_run.cell_failures(ref_cells, code, out) == []
