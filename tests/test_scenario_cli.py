import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obscert
from obscert import classical, cli, phasespace, potentials, quantum, scenario
from obscert.scenario import ConfigError, load_config, parse, run_scenario, sweep_rows


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
    parse(base_config())


def test_missing_field_path_in_error():
    cfg = base_config()
    del cfg["T"]
    with pytest.raises(ConfigError, match=r"\$\.T"):
        parse(cfg)


def test_unknown_state_kind():
    with pytest.raises(ConfigError, match="unknown"):
        parse(base_config(state={"kind": "squeezed", "q": 0, "p": 0}))


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "x",\n  "T": }\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2"):
        load_config(path)


def test_bad_numerics_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        parse(base_config(numerics={"n": 500}))
    with pytest.raises(ConfigError, match=r"\$\.deltas"):
        parse(base_config(deltas=[-1.0]))
    # integer fields: a config error, neither a traceback nor a truncation
    for numerics, where in [({"n": "abc"}, "numerics.n"), ({"n": 512.5}, "numerics.n"),
                            ({"slices": 2.9}, "numerics.slices")]:
        with pytest.raises(ConfigError, match=where):
            parse(base_config(numerics=numerics))
    for per_axis in ("abc", 1.5, 0):
        with pytest.raises(ConfigError, match=r"\$\.state\.per_axis"):
            parse(base_config(state={"kind": "toeplitz_uniform", "per_axis": per_axis}))
    # values that would share a report file name {scenario}_h{hbar:g}_d{delta:g}.json
    with pytest.raises(ConfigError, match=r"\$\.hbars: values must differ"):
        parse(base_config(hbars=[0.2, 0.2]))
    with pytest.raises(ConfigError, match=r"\$\.deltas: values must differ"):
        parse(base_config(deltas=[0.1234567, 3.0, 0.1234568]))


# each is rejected by load_config with its path, before any flow pass
MALFORMED = [
    ({"state": {"kind": "toeplitz", "atoms": [[0.0, 0.0, 1.0]]}},
     r"\$\.state\.atoms\[0\]: lies outside K"),
    ({"state": {"kind": "coherent", "q": [-2.5, 0.0], "p": 1.25}}, r"\$\.state\.q"),
    ({"state": {"kind": "superposition",
                "components": [{"q": -2.6, "p": 1.2, "amplitude": 0.0},
                               {"q": -2.4, "p": 1.3, "amplitude": [0.0, 0.0]}]}},
     r"\$\.state\.components: amplitudes"),
    ({"state": {"kind": "superposition",
                "components": [{"q": -2.5, "p": 1.25, "amplitude": 1.0},
                               {"q": -2.5, "p": 1.25, "amplitude": -1.0}]}},
     r"\$\.state\.components: amplitudes sum to zero"),
    ({"state": {"kind": "toeplitz", "atoms": [[-2.5, 1.25, "x"]]}},
     r"\$\.state\.atoms\[0\]\.weight"),
    ({"numerics": {"n": 512, "length": 20.0, "phase_grid": {"q": [0, 1]}}},
     r"numerics\.phase_grid\.q"),
]


@pytest.mark.parametrize("override, where", MALFORMED, ids=[
    "atom_outside_K", "q_wrong_size", "zero_amplitudes", "cancelling_components",
    "weight_not_a_number",
    "phase_grid_two_entries"])
def test_malformed_config_rejected_at_load(override, where, tmp_path, monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("flow pass on an unchecked config")

    monkeypatch.setattr(classical, "occupation_batch", no_flow)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**override)))
    with pytest.raises(ConfigError, match=where):
        run_scenario(load_config(path))


def test_cli_malformed_phase_grid_exits_2(tmp_path):
    override, where = MALFORMED[-1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**override)))
    res = run_cli(["husimi", "--config", str(cfg_path), "--out", str(tmp_path / "h")],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert "config error: numerics.phase_grid.q" in res.stderr


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_one_quantum_step_exits_2(dt, tmp_path, capsys):
    # T = 1 at dt >= T is one step at dt and one at 2 dt: the propagation and
    # time terms would read 0 whatever the error; dt = T/2 takes 2 steps
    cfg = base_config(numerics={"n": 512, "length": 20.0, "dt": dt, "dt_flow": 5e-3})
    with pytest.raises(ConfigError, match=r"^numerics\.dt: T = 1 at dt = .* takes 1 "):
        parse(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: numerics.dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    parse(base_config(numerics={"n": 512, "length": 20.0, "dt": 0.5, "dt_flow": 5e-3}))


@pytest.mark.parametrize("command", ["certify", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_jobs_below_one_exits_2(command, jobs, tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run with an invalid --jobs")

    monkeypatch.setattr(scenario, "run_scenario", no_run)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                  "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


STATES = {
    "coherent": {"kind": "coherent", "q": -2.5, "p": 1.25},
    "gaussian": {"kind": "gaussian", "q": -2.5, "p": 1.25, "sigma": 0.35},
    "superposition": {"kind": "superposition",
                      "components": [{"q": -2.6, "p": 1.2},
                                     {"q": -2.4, "p": 1.3, "amplitude": [0.0, 1.0]}]},
    "toeplitz": {"kind": "toeplitz", "atoms": [[-2.6, 1.0, 0.5], [-2.4, 1.5, 0.5]]},
    "toeplitz_uniform": {"kind": "toeplitz_uniform", "per_axis": 2},
}


@pytest.mark.parametrize("kind", sorted(STATES))
def test_scenario_pickle_round_trip(kind):
    sc = parse(base_config(state=STATES[kind]))
    back = pickle.loads(pickle.dumps(sc))
    assert (back.name, back.T, back.deltas, back.hbars, back.numerics) == \
        (sc.name, sc.T, sc.deltas, sc.hbars, sc.numerics)
    pts = sc.K.sample_grid()[:, :1]
    np.testing.assert_array_equal(back.V.gradient(pts), sc.V.gradient(pts))
    np.testing.assert_array_equal(back.K.boxes, sc.K.boxes)
    np.testing.assert_array_equal(back.omega.boxes, sc.omega.boxes)
    a = scenario.build_state(sc.state, sc.grid, 0.1)
    b = scenario.build_state(back.state, back.grid, 0.1)
    if isinstance(a, phasespace.ToeplitzState):
        np.testing.assert_array_equal(b.atoms, a.atoms)
        np.testing.assert_array_equal(b.weights, a.weights)
    else:
        np.testing.assert_array_equal(b.values, a.values)


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------

def test_run_minimal_scenario():
    reports = run_scenario(parse(base_config()))
    assert len(reports) == 1
    assert reports[0].verdict in {"certified", "vacuous"}


def test_matrix_gives_cartesian_product():
    cfg = base_config(deltas=[1.0, 2.0, 4.0], hbars=[0.08, 0.1, 0.2])
    reports = run_scenario(parse(cfg))
    assert len(reports) == 9
    keys = [(r.hbar, r.delta) for r in reports]
    assert keys == sorted(keys)


def test_toeplitz_scenario_runs():
    cfg = base_config(state={"kind": "toeplitz",
                             "atoms": [[-2.6, 1.0, 0.5], [-2.4, 1.5, 0.5]]})
    reports = run_scenario(parse(cfg))
    assert reports[0].kind == "toeplitz"


def test_superposition_scenario_runs():
    cfg = base_config(state={"kind": "superposition",
                             "components": [{"q": -2.6, "p": 1.2},
                                            {"q": -2.4, "p": 1.3,
                                             "amplitude": [0.0, 1.0]}]})
    reports = run_scenario(parse(cfg))
    assert reports[0].kind == "pure"


def test_toeplitz_uniform_scenario_runs():
    # atomized uniform density on K: every atom lies in K by construction
    cfg = base_config(state={"kind": "toeplitz_uniform", "per_axis": 2})
    reports = run_scenario(parse(cfg))
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


def test_cli_flow_blowup_exits_3(tmp_path):
    # a stiff oscillator under a coarse dt_flow: the classical pass blows up,
    # a numerical abort (exit 3), not the exit code of a violated verdict; the
    # message names the scenario, and the overflow it stops at stays silent
    cfg = base_config(potential={"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0],
                                 "stiffness": 1e6},
                      T=2.0, numerics={"n": 512, "length": 20.0, "dt": 5e-3, "dt_flow": 0.01})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("certify", "gcc", "flow", "constants"):
        out = tmp_path / command
        res = run_cli([command, "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("numerical abort: scenario 'mini', flow blew up"), res.stderr
        assert "Traceback" not in res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert not out.exists() or not list(out.iterdir())


# configs whose Lipschitz bound is out of the ordinary: an inverted
# oscillator (stiffness < 0, bound |k|) and a double-well box so large that
# lip ** 2 overflows; both give a vacuous certificate, not a traceback
LIP_EDGE_CASES = [
    {"potential": {"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0], "stiffness": -1}},
    {"potential": {"kind": "double_well", "dim": 1, "box": [-1e80, 1e80]},
     "K": {"boxes": [[[0.8, 1.2], [-0.2, 0.2]]], "spacing": 0.1},
     "omega": {"boxes": [[0.5, 1.5]]}, "deltas": [2.0],
     "state": {"kind": "coherent", "q": 1.0, "p": 0.0},
     "numerics": {"n": 512, "length": 8.0, "dt": 5e-3, "dt_flow": 5e-3}},
]


@pytest.mark.parametrize("override", LIP_EDGE_CASES, ids=["negative_stiffness", "huge_box"])
def test_cli_lip_edge_cases_are_vacuous(override, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**override)))
    out = tmp_path / "out"
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    reports = [json.loads(f.read_text()) for f in out.glob("mini_*.json")]
    assert len(reports) == 1
    assert reports[0]["verdict"] == "vacuous"
    assert reports[0]["lip_grad"] == (1.0 if override["potential"]["kind"] == "harmonic"
                                      else pytest.approx(1.2e161))
    if override["potential"]["kind"] == "double_well":
        # the Toeplitz coefficient is +inf for every lambda: no lambda is reported
        cfg_path.write_text(json.dumps(base_config(**{
            **override, "state": {"kind": "toeplitz", "atoms": [[1.0, 0.0, 1.0]]}})))
        res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(next(out.glob("mini_*.json")).read_text())
        assert (report["kind"], report["c_tl"], report["lam"]) == ("toeplitz", "Infinity", None)
        res = run_cli(["constants", "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        constants = json.loads((out / "constants.json").read_text())
        assert constants["toeplitz_coefficient"] == "Infinity"
        assert constants["lambda_equals_lip_bound"] == "Infinity"
        assert constants["toeplitz_coefficient_lambda"] is None


def test_sweep_rows_sorted():
    cfg = base_config(deltas=[4.0, 1.0], hbars=[0.2, 0.1])
    rows = sweep_rows(run_scenario(parse(cfg)))
    assert [(r["hbar"], r["delta"]) for r in rows] == \
        [(0.1, 1.0), (0.1, 4.0), (0.2, 1.0), (0.2, 4.0)]


def test_classical_pass_runs_once_per_scenario(monkeypatch):
    calls = []
    original = classical.occupation_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classical, "occupation_batch", counting)
    reports = run_scenario(parse(base_config(deltas=[1.0, 3.0], hbars=[0.1, 0.2])))
    assert len(reports) == 4
    assert len(calls) == 1


def test_config_parsed_once_per_certify_run(tmp_path, monkeypatch):
    calls = []
    original = potentials.from_config

    def counting(raw):
        calls.append(raw)
        return original(raw)

    monkeypatch.setattr(potentials, "from_config", counting)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(deltas=[1.0, 3.0], hbars=[0.1, 0.2])))
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_parallel_jobs_match_serial():
    sc = parse(base_config(hbars=[0.1, 0.2]))
    serial = run_scenario(sc, jobs=1)
    parallel = run_scenario(sc, jobs=2)
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


def test_cli_missing_config_exits_2(tmp_path):
    missing = tmp_path / "nonexistent.json"
    res = run_cli(["certify", "--config", str(missing), "--out", str(tmp_path / "out")],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "nonexistent.json" in res.stderr
    assert "Traceback" not in res.stderr
    with pytest.raises(ConfigError, match="nonexistent"):
        load_config(missing)


def test_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(hbars=[0.1, 0.2])))
    for d in ("a", "b"):
        res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / d)],
                      cwd=tmp_path)
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
    # the indicator column of the certificate's flow pass is the lone pass's, bit for bit
    assert (tmp_path / "f" / "flow.csv").read_bytes() == gcc_csv


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


def test_cli_propagate_needs_a_step_per_slice(tmp_path):
    # T = 1 at dt = 0.25 takes 4 steps: 5 slices fit, 6 do not
    cfg = base_config(numerics={"n": 512, "length": 20.0, "dt": 0.25, "slices": 6})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run_cli(["propagate", "--config", str(cfg_path), "--out", str(tmp_path / "p")],
                  cwd=tmp_path)
    assert res.returncode == 2
    assert "numerics.slices" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "p").exists()
    cfg["numerics"]["slices"] = 5
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["propagate", "--config", str(cfg_path), "--out", str(tmp_path / "p")]) == 0
    times = {line.split(",")[0]
             for line in (tmp_path / "p" / "density.csv").read_text().splitlines()[1:]}
    assert len(times) == 5


def test_cli_husimi_field(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["husimi", "--config", str(cfg_path), "--out", str(tmp_path / "h")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "h" / "husimi.csv").read_text().splitlines()
    assert lines[0] == "x,xi,value"
    assert all(float(line.split(",")[2]) >= 0 for line in lines[1:])


CONSTANTS_KEYS = {"T", "lip_grad", "d_K", "spread_coefficient", "toeplitz_coefficient",
                  "toeplitz_coefficient_lambda", "balanced_growth_root", "growth_factors"}


def test_cli_constants(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["constants", "--config", str(cfg_path), "--out", str(tmp_path / "c")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    data = json.loads((tmp_path / "c" / "constants.json").read_text())
    # a free particle: lip = 0, so the explicit candidate is the lip = 0 one
    assert set(data) == CONSTANTS_KEYS | {"zero_lip_lambda", "zero_lip_bound"}
    assert data["spread_coefficient"] == pytest.approx(math.expm1(0.5))
    assert data["balanced_growth_root"] == pytest.approx(1.593624, abs=1e-6)


def test_cli_constants_use_lip_along_the_flow(tmp_path):
    # the double-well K of test_sweeps_recertify_lip_on_the_trajectory_hull:
    # with xi in [3.5, 5] trajectories leave the working box [-2, 2]
    cfg = base_config(potential={"kind": "double_well", "dim": 1, "box": [-2.0, 2.0]},
                      K={"boxes": [[[0.8, 1.2], [3.5, 5.0]]], "spacing": 0.25},
                      omega={"boxes": [[0.5, 1.5]]}, deltas=[2.0],
                      numerics={"n": 1024, "length": 16.0, "dt_flow": 1e-3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["constants", "--config", str(cfg_path), "--out", str(tmp_path / "c")]) == 0
    data = json.loads((tmp_path / "c" / "constants.json").read_text())
    assert set(data) == CONSTANTS_KEYS | {"lambda_equals_lip_bound"}
    assert data["lip_grad"] == pytest.approx(50.7538, abs=1e-4)


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


@pytest.mark.parametrize("text, message", [
    ('{"lower_bound": 0.5, "hbar"', "unreadable report"),
    ('{"lower_bound": 0.5, "hbar": 0.1}', "report lacks scenario, delta"),
], ids=["truncated", "missing_field"])
def test_cli_sweep_rejects_a_bad_report(text, message, tmp_path):
    reports = tmp_path / "r"
    reports.mkdir()
    (reports / "gcc.json").write_text('{"c_geo": 0.5}')        # not a report: skipped
    (reports / "mini_h0.1_d3.json").write_text(text)
    res = run_cli(["sweep", "--reports", str(reports), "--out", str(tmp_path / "s")],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "mini_h0.1_d3.json" in res.stderr and message in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "s" / "sweep.csv").exists()


def test_cli_import_skips_scipy_optimize(tmp_path):
    # transport is the only user of scipy.optimize and certify never needs it;
    # every name the package exports is there after a plain import
    res = run_python(["-c", "import sys, obscert; "
                            "exported = all(hasattr(obscert, n) for n in obscert.__all__); "
                            "import obscert.cli; "
                            "print(exported, 'scipy.optimize' in sys.modules)"],
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True False"


def test_demo_config_parses():
    sc = load_config(Path(__file__).resolve().parents[1] / "configs"
                     / "free_coherent.json")
    assert sc.name == "free_coherent"
