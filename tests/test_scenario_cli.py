import copy
import csv
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obscert
from obscert import certify, classical, cli, phasespace, potentials, quantum, scenario
from obscert.scenario import ConfigError, load_config, parse, run_scenario

ROOT = Path(__file__).resolve().parents[1]


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
    # omega and the potential box may reach to +-inf
    parse(base_config(omega={"boxes": [[-2.7, math.inf]]},
                      potential={"kind": "free", "dim": 1, "box": [-math.inf, math.inf]}))


# every required field, by its path, in base_config or with the state of a
# STATES kind
MISSING_FIELDS = [
    *[(None, (key,)) for key in ("potential", "K", "omega", "T", "deltas", "hbars", "state")],
    (None, ("potential", "kind")), (None, ("K", "boxes")), (None, ("K", "spacing")),
    (None, ("omega", "boxes")), (None, ("state", "kind")),
    (None, ("state", "q")), (None, ("state", "p")),
    *[("gaussian", ("state", key)) for key in ("q", "p", "sigma")],
    ("superposition", ("state", "components")), ("toeplitz", ("state", "atoms")),
    ("superposition", ("state", "components", 0, "q")),
    ("superposition", ("state", "components", 0, "p")),
]


def config_path(path) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.mark.parametrize("kind, path", MISSING_FIELDS,
                         ids=[".".join(map(str, ((kind,) if kind else ()) + path))
                              for kind, path in MISSING_FIELDS])
def test_missing_field_path_in_error(kind, path):
    cfg = base_config(**({"state": copy.deepcopy(STATES[kind])} if kind else {}))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ConfigError) as err:
        parse(cfg)
    assert str(err.value) == f"{config_path(path)}: missing required field"


@pytest.mark.parametrize("numerics", ["omitted", None, {}], ids=["omitted", "null", "empty"])
def test_numerics_defaults(numerics):
    cfg = base_config(numerics=numerics)
    if numerics == "omitted":
        del cfg["numerics"]
    assert parse(cfg).numerics == scenario.Numerics()


def test_unknown_state_kind():
    with pytest.raises(ConfigError, match="unknown"):
        parse(base_config(state={"kind": "squeezed", "q": 0, "p": 0}))


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "x",\n  "T": }\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2"):
        load_config(path)


def config_2d(n):
    """Overrides of base_config for a 2-D free scenario on an n x n grid."""
    return {"potential": {"kind": "free", "dim": 2, "box": [-10.0, 10.0]},
            "K": {"boxes": [[[-3.1, -1.9], [-0.6, 0.6], [0.65, 1.85], [-0.6, 0.6]]],
                  "spacing": 0.3},
            "omega": {"boxes": [[[-2.7, 8.0], [-8.0, 8.0]]]},
            "state": {"kind": "coherent", "q": [-2.5, 0.0], "p": [1.25, 0.0]},
            "numerics": {"n": n, "length": 20.0, "dt": 5e-3, "dt_flow": 5e-3}}


def test_potential_fields_reach_the_factory():
    # a field the config leaves out takes the factory's default
    V = parse(base_config(potential={"kind": "harmonic", "stiffness": 2.5})).V
    assert (V.name, V.dim, V.lip_grad) == ("harmonic", 1, 2.5)
    np.testing.assert_array_equal(V.working_box, potentials.harmonic().working_box)
    V = parse(base_config(**{**config_2d(64), "potential": {"kind": "double_well",
                                                             "dim": 2}})).V
    np.testing.assert_array_equal(V.working_box, [[-2.0, 2.0], [-2.0, 2.0]])
    assert V.lip_grad == potentials.double_well(dim=2).lip_grad


GRID_TOO_LARGE = [{"numerics": {"n": 2 ** 40, "length": 20.0}},
                  {"numerics": {"n": 8192, "length": 20.0}},
                  config_2d(4096)]


def test_bad_numerics_rejected():
    with pytest.raises(ConfigError, match="power of two"):
        parse(base_config(numerics={"n": 500}))
    with pytest.raises(ConfigError, match=r"\$\.deltas"):
        parse(base_config(deltas=[-1.0]))
    # integer fields: a config error, neither a traceback nor a truncation
    for numerics, where in [({"n": "abc"}, r"\$\.numerics\.n"),
                            ({"n": 512.5}, r"\$\.numerics\.n")]:
        with pytest.raises(ConfigError, match=where):
            parse(base_config(numerics=numerics))
    # a T/dt that overflows the step count of either step rule
    for override, where in [({"T": 1e308}, r"\$\.numerics\.dt"),
                            ({"numerics": {"dt": 1e-320}}, r"\$\.numerics\.dt"),
                            ({"numerics": {"dt_flow": 1e-320}}, r"\$\.numerics\.dt_flow")]:
        with pytest.raises(ConfigError, match=rf"^{where}: .* not a finite step count"):
            parse(base_config(**override))
    for per_axis in ("abc", 1.5, 0):
        with pytest.raises(ConfigError, match=r"\$\.state\.per_axis"):
            parse(base_config(state={"kind": "toeplitz_uniform", "per_axis": per_axis}))
    # values that would share a report file name {scenario}_h{hbar:g}_d{delta:g}.json
    with pytest.raises(ConfigError, match=r"\$\.hbars: values must differ"):
        parse(base_config(hbars=[0.2, 0.2]))
    with pytest.raises(ConfigError, match=r"\$\.deltas: values must differ"):
        parse(base_config(deltas=[0.1234567, 3.0, 0.1234568]))
    # grids above the per-axis limit of their dimension
    for override in GRID_TOO_LARGE:
        with pytest.raises(ConfigError, match=r"^\$\.numerics\.n: n = \d+ exceeds"):
            parse(base_config(**override))
    parse(base_config(numerics={"n": quantum.MAX_GRID_N[1], "length": 20.0,
                                "dt": 5e-3, "dt_flow": 5e-3}))
    parse(base_config(**config_2d(quantum.MAX_GRID_N[2])))


def test_cli_grid_too_large_exits_2(tmp_path):
    # n = 2^40 ran out of memory in certify (exit 1) and passed gcc (exit 0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**GRID_TOO_LARGE[0])))
    for command in ("certify", "gcc"):
        res = run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                      cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("config error: $.numerics.n: n = 1099511627776 exceeds")
        assert not (tmp_path / "o").exists()


# configs over an advertised limit, each parsed and run before it had one:
# K's lattice (spacing 1e-320 and 5e-324 overflowed lattice_axis's node count,
# a box 2e284 wide asked numpy for an impossible array), and the steps of one
# run (T = 2^70 at dt = 0.001 parsed, then ran without end)
OVER_THE_CAPS = {
    "K_spacing_1e-320": ({"K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 1e-320}},
                         r"\$\.K\.spacing: .* \$\.K\.boxes .* nodes"),
    "K_spacing_5e-324": ({"K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 5e-324}},
                         r"\$\.K\.spacing: .* \$\.K\.boxes .* nodes"),
    "K_box_2e284_wide": ({"K": {"boxes": [[[-1e284, 1e284], [0.65, 1.85]]], "spacing": 0.1}},
                         r"\$\.K\.spacing: .* \$\.K\.boxes .* nodes"),
    "T_2^70": ({"T": 2.0 ** 70, "numerics": {"dt": 1e-3}}, r"\$\.numerics\.dt: .* steps"),
    "dt_flow_steps": ({"numerics": {"dt_flow": 1e-7}}, r"\$\.numerics\.dt_flow: .* steps"),
    # the Husimi lattice: a pure state's quadrature on K at hbar = 1e-5
    # (1.8e7 nodes)
    "hbar_1e-5": ({"hbars": [0.1, 1e-5]},
                  r"\$\.hbars\[1\]: hbar = 1e-05 gives \$\.K\.boxes a Husimi lattice of "
                  r"1\.8e\+07 nodes"),
    # in 2-D the four axes' node counts multiply past the float range: K at
    # spacing 1e-100 exited 1 with an OverflowError from the count's format
    "2d_K_spacing_1e-100": ({**config_2d(64),
                             "K": {**config_2d(64)["K"], "spacing": 1e-100}},
                            r"\$\.K\.spacing: 1e-100 .* lattice of inf nodes"),
    "2d_hbar_1e-300": ({**config_2d(64), "hbars": [1e-300]},
                       r"\$\.hbars\[0\]: hbar = 1e-300 .* Husimi lattice of inf nodes"),
    # Husimi lattices under the node cap whose overlap tables are not: a K
    # box 9000 wide and 0.001 tall at hbar = 0.01 (2.7e6 nodes, a Gaussian
    # table of 900001 x 512 on the fine lattice), and a 2-D K box thin in
    # (q0, p0) whose first contraction holds 719 x 128 x 719 values
    "K_9000_by_0.001": ({"K": {"boxes": [[[-3.1, 8996.9], [1.25, 1.251]]], "spacing": 0.2},
                         "hbars": [0.01]},
                        r"\$\.hbars\[0\]: hbar = 0\.01 gives \$\.K\.boxes Husimi overlap "
                        r"tables of 1\.11e\+10 bytes at n = 512, more than 1610612736"),
    "2d_K_thin_in_q0_p0": ({**config_2d(128), "hbars": [0.007],
                            "K": {"boxes": [[[-2.5, -2.4999], [-3, 3], [1.25, 1.2501], [-3, 3]]],
                                  "spacing": 0.3}},
                           r"\$\.hbars\[0\]: hbar = 0\.007 gives \$\.K\.boxes Husimi overlap "
                           r"tables of 3\.23e\+09 bytes at n = 128"),
}


@pytest.mark.parametrize("name", sorted(OVER_THE_CAPS))
def test_cli_inputs_over_a_cap_exit_2(name, tmp_path):
    override, message = OVER_THE_CAPS[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**override)))
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert re.match(rf"config error: {message}", res.stderr), res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not (tmp_path / "o").exists()


class Counted(Exception):
    """Raised by a stand-in pass with the number of nodes it was given."""


def test_caps_admit_their_limits(monkeypatch):
    # K.sample_size counts sample_grid's rows without building them, and
    # split_steps takes exactly MAX_STEPS steps and refuses one more
    K = classical.CompactSet(np.array([[[-3.1, -1.9], [0.65, 1.85]], [[0.0, 0.2], [0.0, 0.0]]]),
                             0.1)
    for spacing in (0.1, 0.05, 0.3):
        assert K.sample_size(spacing) == len(K.sample_grid(spacing))
    assert quantum.split_steps(quantum.MAX_STEPS * 1e-3, 1e-3)[0] == quantum.MAX_STEPS
    with pytest.raises(ValueError, match=rf"more than {quantum.MAX_STEPS}"):
        quantum.split_steps((quantum.MAX_STEPS + 1) * 1e-3, 1e-3)
    # a square K at spacing 2e-3 takes 301^2 + 601^2 nodes, at 1e-3 601^2 + 1201^2
    cfg = base_config(K={"boxes": [[[0.0, 0.6], [0.0, 0.6]]], "spacing": 2e-3})
    sc = parse(cfg)
    assert classical.flow_nodes(sc.K) == 451802 <= classical.MAX_LATTICE_NODES

    def occupation_batch(V, points, *args):
        raise Counted(len(points))

    monkeypatch.setattr(classical, "occupation_batch", occupation_batch)
    with pytest.raises(Counted) as counted:     # flow_nodes counts the pass's nodes
        sc.geometric_summary()
    assert counted.value.args == (451802,)
    cfg["K"]["spacing"] = 1e-3
    with pytest.raises(ConfigError, match=r"^\$\.K\.spacing: 0\.001 .* 1\.8e\+06 nodes"):
        parse(cfg)


# Toeplitz inputs that exited 1 with a traceback after the whole run: the
# admissible test's delta ** 2 overflowed (delta = 1e308) or divided by zero
# (1e-320), and a subnormal stiffness made lam = lip subnormal, so the
# growth objective's 1 / lam ** 2 divided by zero
TOEPLITZ_EXTREMES = {"delta_1e308": {"deltas": [1e308]}, "delta_1e-320": {"deltas": [1e-320]},
                     "stiffness_1e-320": {"potential": {"kind": "harmonic", "stiffness": 1e-320,
                                                        "dim": 1, "box": [-8.0, 8.0]}}}


@pytest.mark.parametrize("name", sorted(TOEPLITZ_EXTREMES))
def test_cli_toeplitz_extremes_exit_0(name, tmp_path):
    cfg = json.loads((ROOT / "configs" / "harmonic_toeplitz.json").read_text())
    cfg.update(TOEPLITZ_EXTREMES[name])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(out)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    reports = [json.loads(f.read_text()) for f in sorted(out.glob("*.json"))]
    assert len(reports) == len(cfg["hbars"]) * len(cfg["deltas"])
    for r in reports:
        lower, measured = float(r["lower_bound"]), r["measured"]
        assert r["verdict"] == ("vacuous" if not lower > 0 else
                                "violated" if measured < lower - r["eps_num"] else "certified")
    verdicts = {r["verdict"] for r in reports}
    assert verdicts == ({"vacuous"} if name == "delta_1e-320" else {"certified"})


# number fields: K spans a lattice, so its boxes are finite; omega and the
# potential box may reach to +-inf, never NaN
MALFORMED_NUMBERS = [
    ({"K": {"boxes": [[[-3.1, math.inf], [0.65, 1.85]]], "spacing": 0.2}},
     r"\$\.K\.boxes\[0\]: must be finite"),
    ({"K": {"boxes": [[[-3.1, math.nan], [0.65, 1.85]]], "spacing": 0.2}},
     r"\$\.K\.boxes\[0\]: must be finite"),
    ({"K": {"boxes": [[[-3.1, "a"], [0.65, 1.85]]], "spacing": 0.2}},
     r"\$\.K\.boxes\[0\]: expected numbers"),
    ({"omega": {"boxes": [[-2.7, math.nan]]}}, r"\$\.omega\.boxes\[0\]: must be numbers, not NaN"),
    ({"potential": {"kind": "free", "dim": 1, "box": [-10.0, math.nan]}},
     r"\$\.potential\.box: must be numbers, not NaN"),
    ({"potential": {"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0], "stiffness": None}},
     r"\$\.potential\.stiffness: must be finite"),
    ({"potential": {"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0], "stiffness": math.nan}},
     r"\$\.potential\.stiffness: must be finite"),
    ({"potential": {"kind": "free", "dim": 1.7, "box": [-10.0, 10.0]}},
     r"\$\.potential\.dim: expected an integer"),
    ({"potential": {"kind": "free", "dim": True, "box": [-10.0, 10.0]}},
     r"\$\.potential\.dim: expected a number"),
    # T/dt_flow overflowed split_steps in the classical pass of gcc
    ({"numerics": {"n": 512, "length": 20.0, "dt": 5e-3, "dt_flow": 1e-320}},
     r"\$\.numerics\.dt_flow: .* not a finite step count"),
]

# a field that no reader reads, each in the object that does not read it; the
# first two parsed silently and ran with the default lip_grad and dt_flow
UNKNOWN_FIELDS = [
    ({"potential": {"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0], "stifness": 4.0}},
     r"\$\.potential\.stifness: unknown field"),
    ({"numerics": {"n": 512, "length": 20.0, "dt": 5e-3, "dt_flw": 0.5}},
     r"\$\.numerics\.dt_flw: unknown field"),
    ({"potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0], "stiffness": 4.0}},
     r"\$\.potential\.stiffness: unknown field"),
    ({"state": {"kind": "coherent", "q": -2.5, "p": 1.25, "sigma": 0.3}},
     r"\$\.state\.sigma: unknown field"),
    ({"state": {"kind": "toeplitz_uniform", "per_axis": 2, "atoms": []}},
     r"\$\.state\.atoms: unknown field"),
    ({"state": {"kind": "superposition", "components": [{"q": -2.5, "p": 1.25, "amp": 1.0}]}},
     r"\$\.state\.components\[0\]\.amp: unknown field"),
    ({"K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 0.2, "spacng": 0.1}},
     r"\$\.K\.spacng: unknown field"),
    ({"omega": {"boxes": [[-2.7, 8.0]], "inflate": 1.0}}, r"\$\.omega\.inflate: unknown field"),
    ({"hbar": [0.1]}, r"\$\.hbar: unknown field"),
    # fields that were read once: the Husimi quadrature spacing is
    # sqrt(hbar)/5, and no subcommand dumps density slices or a Husimi window
    ({"numerics": {"n": 512, "length": 20.0, "phase_grid": {"x": [0, 1, 5]}}},
     r"\$\.numerics\.phase_grid: unknown field"),
    ({"numerics": {"n": 512, "length": 20.0, "husimi_spacing": 0.05}},
     r"\$\.numerics\.husimi_spacing: unknown field"),
    ({"numerics": {"n": 512, "length": 20.0, "slices": 9}},
     r"\$\.numerics\.slices: unknown field"),
]
UNKNOWN_FIELD_IDS = ["potential_stifness", "numerics_dt_flw", "free_stiffness",
                     "coherent_sigma", "uniform_atoms", "component_amp", "K_spacng",
                     "omega_inflate", "top_level_hbar", "phase_grid_x",
                     "numerics_husimi_spacing", "numerics_slices"]

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
    *MALFORMED_NUMBERS,
    ({"potential": {"kind": ["free"], "dim": 1, "box": [-10.0, 10.0]}},
     r"\$\.potential\.kind: unknown \['free'\]"),
    ({"potential": {"kind": {"a": 1}, "dim": 1, "box": [-10.0, 10.0]}},
     r"\$\.potential\.kind: unknown \{'a': 1\}"),
    ({"potential": {"kind": "morse"}}, r"\$\.potential\.kind: unknown 'morse'"),
    ({"potential": {"kind": "free", "dim": 3, "box": [-10.0, 10.0]}},
     r"\$\.potential\.dim: only dimensions 1 and 2"),
    ({"state": {"kind": "toeplitz", "atoms": [[-2.5, 1.25, 1e308], [-2.4, 1.3, 1e308]]}},
     r"\$\.state\.atoms: weights must have a finite positive total"),
    ({"K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]], [[-2.5, -1.5], [1.0, 2.0]]],
            "spacing": 0.2}},
     r"\$\.K: CompactSet boxes must have disjoint interiors"),
    *UNKNOWN_FIELDS,
]


@pytest.mark.parametrize("override, where", MALFORMED, ids=[
    "atom_outside_K", "q_wrong_size", "zero_amplitudes", "cancelling_components",
    "weight_not_a_number", "K_infinite", "K_nan", "K_string", "omega_nan",
    "potential_box_nan", "stiffness_null", "stiffness_nan", "dim_fraction", "dim_bool",
    "dt_flow_underflows", "kind_list", "kind_dict", "kind_morse", "dim_3",
    "weights_overflow", "K_overlapping", *UNKNOWN_FIELD_IDS])
def test_malformed_config_rejected_at_load(override, where, tmp_path, monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("flow pass on an unchecked config")

    monkeypatch.setattr(classical, "occupation_batch", no_flow)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config(**override)))
    with pytest.raises(ConfigError, match=where):
        run_scenario(load_config(path))


# configs that parse but whose state the grid cannot hold: each exited 1 with
# a traceback, or with p = 1e308 wrote NaN reports.  A packet or atom off the
# box, a packet wider than any box, a phase that overflows and an atom at
# hbar = 1e-320 are numerical aborts (exit 3) naming the scenario and the row;
# a length whose cell volume is not a normal float is a config error.  (A pure
# state at hbar = 1e-320 is a config error too: the Husimi cap refuses it.)
UNBUILDABLE_STATES = [
    ({"state": {"kind": "coherent", "q": 1e308, "p": 1.25}}, "certify", 3,
     r"numerical abort: scenario 'mini', hbar=0\.1: the packet at q = \[1e\+308\], "
     r"p = \[1\.25\] of width 0\.316228 has norm 0\.0 on the grid"),
    ({"K": {"boxes": [[[1e6, 1e6 + 1.2], [0.65, 1.85]]], "spacing": 0.2},
      "state": {"kind": "toeplitz_uniform"}}, "certify", 3,
     r"numerical abort: scenario 'mini', hbar=0\.1: the packet at q = \[1000000\.2\]"),
    ({"state": {"kind": "gaussian", "q": -2.5, "p": 1.25, "sigma": 1e308}}, "certify", 3,
     r"numerical abort: scenario 'mini', hbar=0\.1: boundary amplitude"),
    ({"state": {"kind": "coherent", "q": -2.5, "p": 1e308}}, "certify", 3,
     r"numerical abort: scenario 'mini', hbar=0\.1: .* has norm nan on the grid"),
    ({"hbars": [1e-320], "state": {"kind": "toeplitz", "atoms": [[-2.5, 1.25, 1.0]]}},
     "certify", 3,
     r"numerical abort: scenario 'mini', hbar=9\.99989e-321: .* has norm nan on the grid"),
    # superpositions whose amplitudes overflow the grid's sum: the first exited
    # 1 ("initial state must be normalized"), the second, on the shipped
    # config, exited 0 with a report of NaN bounds and RuntimeWarnings
    ({"state": {"kind": "superposition", "components": [
        {"q": -2.6, "p": 1.2}, {"q": -2.4, "p": 1.3, "amplitude": 1e308}]}}, "certify", 3,
     r"numerical abort: scenario 'mini', hbar=0\.1: the superposition of 2 packets has "
     r"norm inf on the grid \(off the box, or overflow\)\n$"),
    ({**json.loads((ROOT / "configs" / "free_coherent.json").read_text()), "hbars": [0.01],
      "deltas": [2.0], "state": {"kind": "superposition", "components": [
          {"q": -2.5, "p": 1.25, "amplitude": 1e308},
          {"q": -2.4, "p": 1.25, "amplitude": 1e308}]}}, "certify", 3,
     r"numerical abort: scenario 'free_coherent', hbar=0\.01: the superposition of 2 "
     r"packets has norm inf on the grid \(off the box, or overflow\)\n$"),
    ({"numerics": {"n": 512, "length": 1e-320}}, "certify", 2,
     r"config error: \$\.numerics\.length: length = 1e-320 gives a cell volume"),
    ({**config_2d(64), "numerics": {"n": 64, "length": 1e308}}, "certify", 2,
     r"config error: \$\.numerics\.length: length = 1e\+308 gives a cell volume"),
]


@pytest.mark.parametrize("override, command, code, message", UNBUILDABLE_STATES,
                         ids=["packet_off_the_box", "atoms_off_the_box", "sigma_1e308",
                              "p_1e308", "hbar_1e-320", "superposition_1e308",
                              "free_coherent_superposition_1e308", "length_1e-320",
                              "2d_length_1e308"])
def test_cli_unbuildable_state_exits_2_or_3(override, command, code, message, tmp_path,
                                            capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**override)))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == code
    assert re.match(message, capsys.readouterr().err)
    assert not out.exists() or not list(out.iterdir())


def test_cli_malformed_numbers_exit_2(tmp_path):
    # before these checks: tracebacks with exit 1, or a flow blow-up with exit 3
    for override, where in MALFORMED_NUMBERS:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(**override)))
        res = run_cli(["gcc", "--config", str(cfg_path), "--out", str(tmp_path / "g")],
                      cwd=tmp_path)
        assert res.returncode == 2, (where, res.stderr)
        assert "Traceback" not in res.stderr
        assert re.match("config error: " + where, res.stderr), res.stderr


def test_cli_unknown_field_exits_2(tmp_path, capsys):
    for override, where in UNKNOWN_FIELDS:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(**override)))
        assert cli.main(["certify", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2, where
        assert re.match("config error: " + where, capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


def test_cli_husimi_lattice_over_the_cap_exits_2(tmp_path):
    # the 2-D benchmark config at hbar = 0.005 on a 512^2 grid ran the whole
    # propagation, then exited 1 asking numpy for 1.63 GiB for the 86^4-node
    # refined Husimi lattice
    cfg = json.loads((ROOT / "bench" / "configs" / "grid2d" /
                      "harmonic2d_coherent.json").read_text())
    cfg.update(hbars=[0.005], T=0.2)
    cfg["numerics"]["n"] = 512
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("config error: $.hbars[0]: hbar = 0.005 gives $.K.boxes a "
                                 "Husimi lattice of 5.84e+07 nodes"), res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_husimi_caps_admit_their_limits(monkeypatch):
    # quadrature_nodes counts the rows of the two lattices husimi_mass_refined
    # builds, without building them
    cfg = json.loads((ROOT / "bench" / "configs" / "grid2d" /
                      "harmonic2d_coherent.json").read_text())
    K = parse(cfg).K
    for hbar in (0.2, 0.05):
        h = phasespace.quadrature_spacing(hbar)
        assert phasespace.quadrature_nodes(K, hbar) == (len(K.sample_grid(h))
                                                        + len(K.sample_grid(h / 2)))
    # an hbar whose lattices hold as many nodes as the cap parses, and is
    # refused one node below it
    cfg["hbars"] = [0.2, 0.026]
    nodes = phasespace.quadrature_nodes(K, 0.026)
    monkeypatch.setattr(phasespace, "MAX_HUSIMI_NODES", nodes)
    parse(cfg)
    monkeypatch.setattr(phasespace, "MAX_HUSIMI_NODES", nodes - 1)
    with pytest.raises(ConfigError, match=r"^\$\.hbars\[1\]: hbar = 0\.026 gives"):
        parse(cfg)
    monkeypatch.undo()
    # the same for the overlap tables: quadrature_bytes counts the most of the
    # lattices husimi_mass_refined builds, box by box and spacing by spacing
    h, n = phasespace.quadrature_spacing(0.026), cfg["numerics"]["n"]
    held = phasespace.quadrature_bytes(K, 0.026, n)
    assert held == max(phasespace.overlap_bytes(
        [(len(classical.lattice_axis(*box[a], s)), len(classical.lattice_axis(*box[2 + a], s)))
         for a in range(2)], n) for box in K.boxes for s in (h, h / 2))
    monkeypatch.setattr(phasespace, "MAX_OVERLAP_BYTES", held)
    parse(cfg)
    monkeypatch.setattr(phasespace, "MAX_OVERLAP_BYTES", held - 1)
    with pytest.raises(ConfigError, match=r"^\$\.hbars\[1\]: hbar = 0\.026 gives \$\.K\.boxes "
                                          r"Husimi overlap tables"):
        parse(cfg)
    monkeypatch.undo()
    # a Toeplitz state takes no Husimi mass: no hbar cap
    parse(base_config(hbars=[1e-5], state={"kind": "toeplitz", "atoms": [[-2.5, 1.25, 1.0]]}))


@pytest.mark.parametrize("dt", [1.0, 2.0])
def test_one_quantum_step_exits_2(dt, tmp_path, capsys):
    # T = 1 at dt >= T is one step at dt and one at 2 dt: the propagation and
    # time terms would read 0 whatever the error; dt = T/2 takes 2 steps
    cfg = base_config(numerics={"n": 512, "length": 20.0, "dt": dt, "dt_flow": 5e-3})
    with pytest.raises(ConfigError, match=r"^\$\.numerics\.dt: T = 1 at dt = .* takes 1 "):
        parse(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: $.numerics.dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    parse(base_config(numerics={"n": 512, "length": 20.0, "dt": 0.5, "dt_flow": 5e-3}))


@pytest.mark.parametrize("command", ["certify"])
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


@pytest.mark.parametrize("argv, message", [
    (["flow", "--config", "cfg.json"], "invalid choice: 'flow'"),
    (["propagate", "--config", "cfg.json"], "invalid choice: 'propagate'"),
    (["husimi", "--config", "cfg.json"], "invalid choice: 'husimi'"),
    (["sweep", "--config", "cfg.json"], "required: --reports"),
    (["sweep", "--reports", "r", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
], ids=["flow", "propagate", "husimi", "sweep_config", "sweep_jobs"])
def test_removed_command_paths_exit_2(argv, message, tmp_path, capsys, monkeypatch):
    # gcc writes the per-sample table and certify writes sweep.csv's rows;
    # sweep only tabulates the reports certify wrote; no subcommand dumps
    # density slices or a Husimi field
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", "o"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
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
    np.testing.assert_array_equal(back.V.grad_fn(pts), sc.V.grad_fn(pts))
    np.testing.assert_array_equal(back.K.boxes, sc.K.boxes)
    np.testing.assert_array_equal(back.omega.boxes, sc.omega.boxes)
    a = scenario.build_state(sc.state, sc.grid, 0.1)
    b = scenario.build_state(back.state, back.grid, 0.1)
    if isinstance(a, phasespace.ToeplitzState):
        np.testing.assert_array_equal(b.symbol.points, a.symbol.points)
        np.testing.assert_array_equal(b.symbol.weights, a.symbol.weights)
    else:
        np.testing.assert_array_equal(b.values, a.values)


def test_toeplitz_weights_normalized_once():
    # the config's raw weights are divided by their fsum once, at load; a
    # second normalization would move these in the last bit
    raw = np.array([0.11, 0.83, 0.92])
    once = raw / math.fsum(raw)
    assert not np.array_equal(once / math.fsum(once), once)
    atoms = [[q, p, w] for (q, p), w in zip([(-2.6, 1.0), (-2.4, 1.5), (-2.5, 1.25)], raw)]
    sc = parse(base_config(state={"kind": "toeplitz", "atoms": atoms}))
    for back in (sc, pickle.loads(pickle.dumps(sc))):     # --jobs workers unpickle it
        R = scenario.build_state(back.state, back.grid, 0.1)
        np.testing.assert_array_equal(R.symbol.weights, once)


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


def test_cli_propagate_abort_names_the_scenario(tmp_path):
    # the box of test_numerics_abort_exit_code is too small for the state
    cfg = base_config(numerics={"n": 512, "length": 6.0, "dt": 5e-3, "dt_flow": 5e-3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run_cli(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "p")],
                  cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("numerical abort: scenario 'mini', hbar=0.1: boundary "
                                 "amplitude"), res.stderr
    assert "Traceback" not in res.stderr


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


@pytest.mark.parametrize("command", ["certify", "gcc", "constants"])
def test_cli_omega_far_from_K_exits_0(command, tmp_path, capsys):
    # omega near 1e200: the squared distance to it overflows.  The flow pass
    # read t = 0 outside its np.errstate, the measured side took its
    # distances outside any, and the overflow warning, an error here, exited 1
    cfg = json.loads((ROOT / "configs" / "free_coherent.json").read_text())
    cfg.update(omega={"boxes": [[1e200, 1e201]]}, T=0.2, hbars=[0.2])
    cfg["numerics"]["n"] = 256
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    if command == "certify":
        reports = sorted((tmp_path / "o").glob("free_coherent_*.json"))
        assert len(reports) == len(cfg["deltas"])
        for path in reports:
            r = json.loads(path.read_text())
            assert (r["measured"], r["c_geo"], r["chi_geo"]) == (0.0, 0.0, 0.0)


def test_cli_flow_blowup_exits_3(tmp_path):
    # a stiff oscillator under a coarse dt_flow: the classical pass blows up,
    # a numerical abort (exit 3), not the exit code of a violated verdict; the
    # message names the scenario, and the overflow it stops at stays silent
    cfg = base_config(potential={"kind": "harmonic", "dim": 1, "box": [-10.0, 10.0],
                                 "stiffness": 1e6},
                      T=2.0, numerics={"n": 512, "length": 20.0, "dt": 5e-3, "dt_flow": 0.01})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("certify", "gcc", "constants"):
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


def test_sweep_rows_sorted(tmp_path):
    # the sweep.csv that certify writes, from a config that lists both in
    # descending order
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(deltas=[4.0, 1.0], hbars=[0.2, 0.1])))
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["hbar"]), float(r["delta"])) for r in rows] == \
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
    original = scenario.build_potential

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(scenario, "build_potential", counting)
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
    assert data["schema_version"] == 2
    retired = {"implied_c_obs", "c_obs_times_T", "ct_above_one", "ct_marginal", "admissible",
               "delta_min_baseline"}
    assert not retired & set(data)
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


def test_cli_gcc_table(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    res = run_cli(["gcc", "--config", str(cfg_path), "--out", str(tmp_path / "g")],
                  cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    gcc_csv = (tmp_path / "g" / "gcc.csv").read_bytes()
    assert gcc_csv.splitlines()[0] == b"x1,xi1,occupation_time,first_hit_time"
    assert b"\r\n" in gcc_csv         # RFC-4180 line endings


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


# a double well (L = 44) whose spread coefficient D = (e^{sT/2} - 1)/s
# overflows: its lower bounds are -inf, "-Infinity" in the reports and -inf
# in sweep.csv
DOUBLE_WELL = {"potential": {"kind": "double_well", "dim": 1, "box": [-2.0, 2.0]},
               "K": {"boxes": [[[0.8, 1.2], [-0.2, 0.2]]], "spacing": 0.1},
               "omega": {"boxes": [[0.5, 1.5]]}, "deltas": [2.0, 10.0],
               "state": {"kind": "coherent", "q": 1.0, "p": 0.0},
               "numerics": {"n": 512, "length": 8.0, "dt": 5e-3, "dt_flow": 5e-3}}


def test_cli_sweep_from_reports(tmp_path):
    # sweep --reports writes certify's sweep.csv byte for byte, -inf included
    for name, override in [("free", {"deltas": [1.0, 4.0]}), ("double_well", DOUBLE_WELL)]:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(base_config(**override)))
        reports = tmp_path / name
        assert cli.main(["certify", "--config", str(cfg_path), "--out", str(reports)]) == 0
        res = run_cli(["sweep", "--reports", str(reports), "--out", str(tmp_path / "s")],
                      cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        written = (reports / "sweep.csv").read_bytes()
        assert (tmp_path / "s" / "sweep.csv").read_bytes() == written
        assert len(written.splitlines()) == 3
    assert b",-inf," in written


# $.scenario values that are no report file name, on harmonic_toeplitz.json
# at one cell: "a/b" exited 1 with a FileNotFoundError after the whole run,
# "../escaped" exited 0 with its report in the parent of --out, a NUL exited 1
# (embedded null byte), 300 dots exited 1 (File name too long), and a lone
# surrogate cannot be written as UTF-8
NO_FILE_NAMES = {"slash": "a/b", "parent": "../escaped", "nul": "x\u0000y",
                 "300_dots": "." * 300, "lone_surrogate": "x\ud800"}


@pytest.mark.parametrize("name", sorted(NO_FILE_NAMES))
def test_cli_scenario_that_is_no_file_name_exits_2(name, tmp_path, capsys):
    cfg = json.loads((ROOT / "configs" / "harmonic_toeplitz.json").read_text())
    cfg.update(scenario=NO_FILE_NAMES[name], hbars=[0.2], deltas=[8.0], T=0.1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    work = tmp_path / "work"
    work.mkdir()
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(work / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: $.scenario: ")
    assert list(work.iterdir()) == []


def test_scenario_name_bound_is_the_longest_report_file_name_in_bytes():
    # the longest file name of these cells ends "_h0.25_d10.json" (15 bytes),
    # and "\u00e9" takes 2 bytes in UTF-8
    cfg = base_config(hbars=[0.1, 0.25], deltas=[3.0, 10.0])
    for fits, over in [("a" * 240, "a" * 241), ("\u00e9" * 120, "\u00e9" * 120 + "a")]:
        assert parse({**cfg, "scenario": fits}).name == fits
        with pytest.raises(ConfigError, match=r"^\$\.scenario: .* up to 256 bytes"):
            parse({**cfg, "scenario": over})


@pytest.mark.parametrize("command", ["certify", "gcc", "constants", "sweep"])
def test_cli_out_that_is_a_file_exits_2(command, tmp_path, capsys, monkeypatch):
    # each exited 1 with a FileExistsError traceback, certify after the whole
    # run; now each exits before it computes anything
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    if command == "sweep":
        assert cli.main(["certify", "--config", str(cfg_path),
                         "--out", str(tmp_path / "r")]) == 0
        args = ["sweep", "--reports", str(tmp_path / "r")]
    else:
        args = [command, "--config", str(cfg_path)]

    def computes(*args, **kwargs):
        raise AssertionError("computed before --out was created")

    monkeypatch.setattr(classical, "occupation_batch", computes)
    monkeypatch.setattr(scenario, "build_state", computes)
    out = tmp_path / "o"
    out.write_text("kept")
    capsys.readouterr()
    assert cli.main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out: cannot create {out} ")
    assert out.read_text() == "kept"


def test_cli_sweep_without_reports_exits_2(tmp_path, capsys):
    reports = tmp_path / "r"
    reports.mkdir()
    (reports / "gcc.json").write_text('{"c_geo": 0.5}')        # not a report
    out = tmp_path / "s"
    assert cli.main(["sweep", "--reports", str(reports), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "no reports found\n"
    assert not (out / "sweep.csv").exists()


SWEEP_ROW = {"scenario": "mini", "hbar": 0.1, "delta": 3.0, "lower_bound": 0.5,
             "measured": 1.0, "margin": 0.5, "verdict": "certified"}


@pytest.mark.parametrize("text, message", [
    ('{"lower_bound": 0.5, "hbar"', "unreadable report"),
    ('{"lower_bound": 0.5, "hbar": 0.1}', "report lacks scenario, delta"),
    (json.dumps({**SWEEP_ROW, "hbar": None}), "hbar: expected a number, got None"),
    (json.dumps({**SWEEP_ROW, "delta": "3"}), "delta: expected a number, got '3'"),
    (json.dumps({**SWEEP_ROW, "lower_bound": [0.5]}),
     "lower_bound: expected a number, got [0.5]"),
], ids=["truncated", "missing_field", "hbar_null", "delta_string", "lower_bound_list"])
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


# ---------------------------------------------------------------------------
# mutation fuzzer (Miller, Fredriksen and So, Commun. ACM 33(12) (1990) 32-44)
# ---------------------------------------------------------------------------

FUZZ_CONFIGS = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("bench/configs/*/*.json")])
FUZZ_VALUES = [None, True, False, 0, -1, 1e308, -1e308, 1e-320, math.nan, math.inf,
               -math.inf, "", "abc", [], [1.0, 2.0], {}, {"a": 1}, 2 ** 70, 0.5, 3]
DELETE = object()


def json_nodes(doc, path=()):
    """The path of every node below the root of a JSON document."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc)
             if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_nodes(value, path + (key,))


def mutations(docs, size=None, seed=0):
    """A fixed-seed sample of ``size`` (name, mutated doc, path, value) cases,
    or every case in order when ``size`` is None: one node of one document
    replaced by a FUZZ_VALUES entry, or deleted."""
    cases = [(name, path, value) for name, doc in docs.items()
             for path in json_nodes(doc) for value in [*FUZZ_VALUES, DELETE]]
    if size is not None:
        cases = random.Random(seed).sample(cases, min(size, len(cases)))
    for name, path, value in cases:
        doc = parent = copy.copy(docs[name])       # copies the path; shares the rest
        for key in path[:-1]:
            parent[key] = copy.copy(parent[key])
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield name, doc, path, value


def test_fuzz_mutated_configs_parse_or_raise_config_error():
    # every mutation (about 12,400) parses or raises ConfigError, and a parsed
    # one builds its states (the pure state at every hbar, the Toeplitz atoms at
    # the first) or aborts with NumericsError.  The classes it found, now named
    # cases: T/dt overflowing split_steps (test_bad_numerics_rejected), an
    # unhashable potential.kind (kind_list, kind_dict), and states the grid
    # cannot hold (test_cli_unbuildable_state_exits_2_or_3).  A built pure
    # state is normalized: a superposition whose amplitudes overflowed was
    # built with norm 0 (superposition_1e308 there).  A parsed one's lip_grad
    # and the two coefficients at its T neither raise nor give NaN: a box
    # bound of 1e308 overflowed |x|^2 with a warning, an error here
    # (test_potentials.py's test_unbounded_boxes_give_no_nan)
    assert len(FUZZ_CONFIGS) >= 13
    docs = {str(p.relative_to(ROOT)): json.loads(p.read_text()) for p in FUZZ_CONFIGS}
    docs["superposition"] = base_config(state=STATES["superposition"])
    problems = set()
    for name, doc, path, value in mutations(docs):
        try:
            sc = parse(doc)
            lip = sc.V.lip_grad
            values = (lip, certify.spread_coefficient(sc.T, lip),
                      *certify.toeplitz_coefficient_details(sc.T, lip))
            if any(v is not None and math.isnan(v) for v in values):
                pytest.fail(f"{name} {list(path)} = {value!r}: NaN in {values}")
            problem = pickle.dumps((sc.V, sc.K, sc.omega, sc.T, sc.deltas))
            if problem not in problems:
                problems.add(problem)
                classical.geometric_summary(sc.V, sc.K, sc.omega, sc.T, sc.deltas, sc.T / 16)
            for hbar in sc.hbars:
                state = scenario.build_state(sc.state, sc.grid, hbar)
                if isinstance(state, phasespace.ToeplitzState):
                    for j in range(len(state.symbol.weights)):
                        state.atom_state(j, sc.grid)
                    break
                if not abs(state.norm - 1.0) <= 1e-8:
                    pytest.fail(f"{name} {list(path)} = {value!r}: norm {state.norm}")
        except (ConfigError, quantum.NumericsError):
            pass
        except Exception as exc:
            pytest.fail(f"{name} {list(path)} = {value!r}: {type(exc).__name__}: {exc}")


def test_fuzz_mutated_reports_exit_0_or_2(tmp_path):
    # one of certify's reports, with -inf bounds, mutated next to an intact one:
    # the class found (a null, string or list hbar or delta broke the sort) is
    # now hbar_null and delta_string, and lower_bound_list pins a bound column
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**DOUBLE_WELL)))
    reports = tmp_path / "r"
    assert cli.main(["certify", "--config", str(cfg_path), "--out", str(reports)]) == 0
    path = sorted(reports.glob("*.json"))[0]
    docs = {path.name: json.loads(path.read_text())}
    for name, doc, where, value in mutations(docs, 400, seed=21):
        path.write_text(json.dumps(doc))
        code = cli.main(["sweep", "--reports", str(reports), "--out", str(tmp_path / "s")])
        assert code in (0, 2), (list(where), value, code)


def test_cli_import_skips_scipy_optimize(tmp_path):
    # transport is the only user of scipy.optimize and neither certify nor
    # the constants subcommand needs it; only run_scenario with more than one
    # job needs multiprocessing; every name the package exports is there
    # after a plain import
    config = str(ROOT / "configs" / "free_coherent.json")
    res = run_python(["-c", "import sys, obscert; "
                            "exported = all(hasattr(obscert, n) for n in obscert.__all__); "
                            "import obscert.cli; "
                            "loaded = lambda: [m in sys.modules "
                            "for m in ('scipy.optimize', 'multiprocessing')]; "
                            "imported = loaded(); "
                            f"code = obscert.cli.main(['constants', '--config', {config!r}]); "
                            "print(exported, *imported, code, *loaded())"],
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "True False False 0 False False"


def test_demo_config_parses():
    sc = load_config(ROOT / "configs" / "free_coherent.json")
    assert sc.name == "free_coherent"
