import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obscert
from obscert import classical, quantum, scenario
from obscert.scenario import ConfigError, load_config, run_scenario, sweep_rows, validate


def base_config(**overrides):
    cfg = {
        "scenario": "mini",
        "potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0]},
        "K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 0.2},
        "omega": {"boxes": [[-2.7, 8.0]]},
        "T": 1.0,
        "deltas": [3.0],
        "hbars": [0.1],
        "state": {"kind": "coherent", "q": -2.5, "p": 1.25},
        "numerics": {"n": 512, "length": 20.0, "dt": 5e-3, "dt_flow": 5e-3},
    }
    cfg.update(overrides)
    return cfg


def run_python(args, cwd):
    # The child runs from a foreign cwd, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) no longer resolves: hand it the directory this process
    # imported obscert from, as an absolute path.
    env = dict(os.environ)
    pkg_root = str(Path(obscert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def run_cli(args, cwd):
    return run_python(["-m", "obscert.cli", *args], cwd)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_minimal():
    validate(base_config())


def test_missing_field_path_in_error():
    cfg = base_config()
    del cfg["T"]
    with pytest.raises(ConfigError, match=r"\$\.T"):
        validate(cfg)


def test_unknown_state_kind():
    with pytest.raises(ConfigError, match="unknown"):
        cfg = base_config(state={"kind": "squeezed", "q": 0, "p": 0})
        grid = quantum.Grid(dim=1, n=512, length=20.0)
        scenario.build_state(cfg["state"], grid, 0.1)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "x",\n  "T": }\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2"):
        load_config(path)


def test_bad_numerics_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        validate(base_config(numerics={"n": 500}))
    with pytest.raises(ConfigError, match=r"\$\.deltas"):
        validate(base_config(deltas=[-1.0]))
    # integer fields: a config error, neither a traceback nor a truncation
    for numerics, where in [({"n": "abc"}, "numerics.n"), ({"n": 512.5}, "numerics.n"),
                            ({"slices": 2.9}, "numerics.slices")]:
        with pytest.raises(ConfigError, match=where):
            validate(base_config(numerics=numerics))
    for per_axis in ("abc", 1.5, 0):
        with pytest.raises(ConfigError, match=r"\$\.state\.per_axis"):
            validate(base_config(state={"kind": "toeplitz_uniform", "per_axis": per_axis}))
    # values that would share a report file name {scenario}_h{hbar:g}_d{delta:g}.json
    with pytest.raises(ConfigError, match=r"\$\.hbars: values must differ"):
        validate(base_config(hbars=[0.2, 0.2]))
    with pytest.raises(ConfigError, match=r"\$\.deltas: values must differ"):
        validate(base_config(deltas=[0.1234567, 3.0, 0.1234568]))


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

def test_run_minimal_scenario():
    reports = run_scenario(base_config())
    assert len(reports) == 1
    assert reports[0].verdict in {"certified", "vacuous"}


def test_matrix_gives_cartesian_product():
    cfg = base_config(deltas=[1.0, 2.0, 4.0], hbars=[0.08, 0.1, 0.2])
    reports = run_scenario(cfg)
    assert len(reports) == 9
    keys = [(r.hbar, r.delta) for r in reports]
    assert keys == sorted(keys)


def test_toeplitz_scenario_runs():
    cfg = base_config(state={"kind": "toeplitz",
                             "atoms": [[-2.6, 1.0, 0.5], [-2.4, 1.5, 0.5]]})
    reports = run_scenario(cfg)
    assert reports[0].kind == "toeplitz"


def test_superposition_scenario_runs():
    cfg = base_config(state={"kind": "superposition",
                             "components": [{"q": -2.6, "p": 1.2},
                                            {"q": -2.4, "p": 1.3,
                                             "amplitude": [0.0, 1.0]}]})
    reports = run_scenario(cfg)
    assert reports[0].kind == "pure"


def test_toeplitz_uniform_scenario_runs():
    # atomized uniform density on K: every atom lies in K by construction
    cfg = base_config(state={"kind": "toeplitz_uniform", "per_axis": 2})
    reports = run_scenario(cfg)
    assert reports[0].kind == "toeplitz"


def test_numerics_abort_exit_code(tmp_path):
    # a box too small for the state aborts with the numerical-error exit code
    cfg = base_config(numerics={"n": 512, "length": 6.0, "dt": 5e-3,
                                "dt_flow": 5e-3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)],
                  cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    assert "numerical abort" in res.stderr
    assert not out.exists() or not list(out.glob("*.json"))


def test_mid_run_boundary_leak_exit_code(tmp_path):
    # the state touches the box edge mid-run only (test_quantum has the
    # propagation-level case): still a numerical abort
    cfg = base_config(potential={"kind": "harmonic", "dim": 1, "box": [-8.0, 8.0]},
                      K={"boxes": [[[-0.2, 0.2], [6.3, 6.7]]], "spacing": 0.2},
                      omega={"boxes": [[-1.0, 1.0]]}, T=math.pi, hbars=[0.05],
                      state={"kind": "coherent", "q": 0.0, "p": 6.5},
                      numerics={"n": 1024, "length": 16.0, "dt": 1e-3, "dt_flow": 1e-2})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    assert "boundary amplitude" in res.stderr
    assert not out.exists() or not list(out.glob("*.json"))


def test_sweep_rows_sorted():
    cfg = base_config(deltas=[4.0, 1.0], hbars=[0.2, 0.1])
    rows = sweep_rows(run_scenario(cfg))
    assert [(r["hbar"], r["delta"]) for r in rows] == \
        [(0.1, 1.0), (0.1, 4.0), (0.2, 1.0), (0.2, 4.0)]


def test_classical_pass_runs_once_per_scenario(monkeypatch):
    calls = []
    original = classical.occupation_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classical, "occupation_batch", counting)
    reports = run_scenario(base_config(deltas=[1.0, 3.0], hbars=[0.1, 0.2]))
    assert len(reports) == 4
    assert len(calls) == 1


def test_parallel_jobs_match_serial():
    cfg = base_config(hbars=[0.1, 0.2])
    serial = run_scenario(cfg, jobs=1)
    parallel = run_scenario(cfg, jobs=2)
    for a, b in zip(serial, parallel):
        assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_certify_writes_reports_and_exits_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    reports = list((tmp_path / "out").glob("mini_*.json"))
    assert len(reports) == 1
    data = json.loads(reports[0].read_text())
    assert data["schema_version"] == 1
    assert data["verdict"] in {"certified", "vacuous"}
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert "verdict" in res.stdout


def test_cli_malformed_config_no_partial_reports(tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{ not json")
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr
    assert not out.exists() or not list(out.glob("*.json"))


def test_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(hbars=[0.1, 0.2])))
    for d in ("a", "b"):
        res = run_cli(["certify", "--config", str(cfg_path), "--seed", "7",
                       "--out", str(tmp_path / d)], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_cli_gcc_and_flow_tables(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["gcc", "--config", str(cfg_path), "--out", str(tmp_path / "g")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    gcc_csv = (tmp_path / "g" / "gcc.csv").read_bytes()
    assert gcc_csv.splitlines()[0] == b"x1,xi1,occupation_time,first_hit_time"
    assert b"\r\n" in gcc_csv         # RFC-4180 line endings
    res = run_cli(["flow", "--config", str(cfg_path), "--out", str(tmp_path / "f")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "f" / "flow.csv").read_text().splitlines()
    n_samples = json.loads((tmp_path / "g" / "gcc.json").read_text())["samples"]
    assert len(lines) == n_samples + 1


def test_cli_propagate_and_snapshot(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["propagate", "--config", str(cfg_path), "--out", str(tmp_path / "p")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    dens = (tmp_path / "p" / "density.csv").read_text().splitlines()
    assert dens[0] == "t,x1,density"
    psi, t = quantum.load_state(tmp_path / "p" / "final_state.qst")
    assert t == 1.0
    assert abs(psi.norm - 1.0) < 1e-10


def test_cli_husimi_field(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["husimi", "--config", str(cfg_path), "--out", str(tmp_path / "h")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "h" / "husimi.csv").read_text().splitlines()
    assert lines[0] == "x,xi,value"
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])


def test_cli_constants(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["constants", "--config", str(cfg_path), "--out", str(tmp_path / "c")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "c" / "constants.json").read_text())
    assert data["spread_coefficient"] == pytest.approx(math.expm1(0.5))
    assert data["balanced_growth_root"] == pytest.approx(1.593624, abs=1e-6)


def test_cli_sweep_from_reports(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(deltas=[1.0, 4.0])))
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "r")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["sweep", "--reports", str(tmp_path / "r"),
                   "--out", str(tmp_path / "s")], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_import_skips_scipy_optimize(tmp_path):
    # transport is the only user of scipy.optimize and certify never needs it
    res = run_python(["-c", "import sys, obscert.cli; "
                            "print('scipy.optimize' in sys.modules)"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_demo_config_parses():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "free_coherent.json")
    assert cfg["scenario"] == "free_coherent"
