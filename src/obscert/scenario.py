"""Scenario configs: parsing, validation, and orchestration of certification runs.

A scenario is one JSON document naming a potential, a compact phase-space set
K, an observation region, a horizon T, lists of hbar and delta values, an
initial state, and the numerical parameters.  Running it produces one
certification report per (hbar, delta) cell, deterministically ordered.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import certify, classical, phasespace, potentials, quantum
from .certify import CertificationReport
from .classical import CompactSet, GeometricSummary, Region
from .phasespace import ToeplitzState
from .quantum import Grid


class ConfigError(ValueError):
    """Scenario config failed validation; message carries the config path."""


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}.{key}: missing required field")
    return cfg[key]


def _positive(value, where: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not (v > 0) or not math.isfinite(v):
        raise ConfigError(f"{where}: must be positive and finite, got {v}")
    return v


def _positive_int(value, where: str) -> int:
    v = _positive(value, where)
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def _positive_list(values, where: str) -> list[float]:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = [_positive(v, f"{where}[{i}]") for i, v in enumerate(values)]
    if len({f"{v:g}" for v in out}) < len(out):
        raise ConfigError(f"{where}: values must differ in report file names (format :g)")
    return out


def _norm_boxes(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{where}: expected a nonempty list of boxes")
    out = []
    for i, entry in enumerate(raw):
        b = np.asarray(entry, dtype=float)
        if dim == 1 and b.shape == (2,):
            b = b[None, :]
        if b.shape != (dim, 2):
            raise ConfigError(f"{where}[{i}]: expected shape ({dim}, 2), got {b.shape}")
        if np.any(b[:, 0] >= b[:, 1]):
            raise ConfigError(f"{where}[{i}]: needs lo < hi on every axis")
        out.append(b)
    return np.stack(out)


@dataclass(frozen=True)
class Numerics:
    n: int = 1024
    length: float = 16.0
    dt: float = 1e-3
    dt_flow: float = 1e-3
    husimi_spacing: Optional[float] = None
    slices: int = 9
    phase_grid: Optional[dict] = None


def parse_numerics(cfg: dict) -> Numerics:
    cfg = cfg or {}
    n = _positive_int(cfg.get("n", 1024), "numerics.n")
    if n < 4 or (n & (n - 1)) != 0:
        raise ConfigError("numerics.n: must be a power of two, at least 4")
    num = Numerics(
        n=n,
        length=_positive(cfg.get("length", 16.0), "numerics.length"),
        dt=_positive(cfg.get("dt", 1e-3), "numerics.dt"),
        dt_flow=_positive(cfg.get("dt_flow", 1e-3), "numerics.dt_flow"),
        husimi_spacing=(None if cfg.get("husimi_spacing") is None
                        else _positive(cfg["husimi_spacing"], "numerics.husimi_spacing")),
        slices=_positive_int(cfg.get("slices", 9), "numerics.slices"),
        phase_grid=cfg.get("phase_grid"),
    )
    if num.slices < 2:
        raise ConfigError("numerics.slices: need at least 2")
    return num


def build_potential(cfg: dict):
    try:
        return potentials.from_config(_require(cfg, "potential", "$"))
    except ValueError as exc:
        raise ConfigError(f"$.potential: {exc}") from None


def build_compact_set(cfg: dict, dim: int) -> CompactSet:
    raw = _require(cfg, "K", "$")
    boxes = _norm_boxes(_require(raw, "boxes", "$.K"), 2 * dim, "$.K.boxes")
    spacing = _positive(_require(raw, "spacing", "$.K"), "$.K.spacing")
    try:
        return CompactSet(boxes=boxes, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"$.K: {exc}") from None


def build_region(cfg: dict, dim: int) -> Region:
    raw = _require(cfg, "omega", "$")
    boxes = _norm_boxes(_require(raw, "boxes", "$.omega"), dim, "$.omega.boxes")
    return Region(boxes=boxes)


def build_objects(cfg: dict):
    """(V, K, omega, numerics) of a validated config."""
    V = build_potential(cfg)
    return (V, build_compact_set(cfg, V.dim), build_region(cfg, V.dim),
            parse_numerics(cfg.get("numerics", {})))


def build_grid(num: Numerics, dim: int) -> Grid:
    return Grid(dim=dim, n=num.n, length=num.length)


def _vec(value, dim: int, where: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.size != dim:
        raise ConfigError(f"{where}: expected {dim} component(s), got {v.size}")
    return v


def build_state(state_cfg: dict, grid: Grid, hbar: float,
                K: Optional[CompactSet] = None):
    """Returns a WaveFunction (pure kinds) or a ToeplitzState."""
    kind = _require(state_cfg, "kind", "$.state")
    d = grid.dim
    if kind == "coherent":
        q = _vec(_require(state_cfg, "q", "$.state"), d, "$.state.q")
        p = _vec(_require(state_cfg, "p", "$.state"), d, "$.state.p")
        return quantum.coherent_state(grid, hbar, q, p)
    if kind == "gaussian":
        q = _vec(_require(state_cfg, "q", "$.state"), d, "$.state.q")
        p = _vec(_require(state_cfg, "p", "$.state"), d, "$.state.p")
        sigma = _positive(_require(state_cfg, "sigma", "$.state"), "$.state.sigma")
        return quantum.gaussian_state(grid, hbar, q, p, sigma)
    if kind == "superposition":
        comps = _require(state_cfg, "components", "$.state")
        states, amps = [], []
        for i, comp in enumerate(comps):
            q = _vec(_require(comp, "q", f"$.state.components[{i}]"), d, "q")
            p = _vec(_require(comp, "p", f"$.state.components[{i}]"), d, "p")
            a = comp.get("amplitude", 1.0)
            amp = complex(a[0], a[1]) if isinstance(a, (list, tuple)) else complex(a)
            states.append(quantum.coherent_state(grid, hbar, q, p))
            amps.append(amp)
        return quantum.superposition(states, amps)
    if kind == "toeplitz":
        atoms = _require(state_cfg, "atoms", "$.state")
        entries = []
        for i, entry in enumerate(atoms):
            if len(entry) != 3:
                raise ConfigError(f"$.state.atoms[{i}]: expected [q, p, weight]")
            q, p, w = entry
            entries.append((_vec(q, d, f"$.state.atoms[{i}].q"),
                            _vec(p, d, f"$.state.atoms[{i}].p"), float(w)))
        try:
            return phasespace.toeplitz_from_density(entries, hbar)
        except ValueError as exc:
            raise ConfigError(f"$.state.atoms: {exc}") from None
    if kind == "toeplitz_uniform":
        if K is None:
            raise ConfigError("$.state: toeplitz_uniform needs the scenario's K")
        points, weights = phasespace.uniform_atomization(
            K, _positive_int(state_cfg.get("per_axis", 3), "$.state.per_axis"))
        return phasespace.ToeplitzState(points, weights, hbar)
    raise ConfigError(f"$.state.kind: unknown '{kind}'")


_STATE_KINDS = {
    "coherent": ("q", "p"),
    "gaussian": ("q", "p", "sigma"),
    "superposition": ("components",),
    "toeplitz": ("atoms",),
    "toeplitz_uniform": (),
}


def _validate_state_shallow(state_cfg) -> None:
    if not isinstance(state_cfg, dict):
        raise ConfigError("$.state: must be an object")
    kind = _require(state_cfg, "kind", "$.state")
    if kind not in _STATE_KINDS:
        raise ConfigError(f"$.state.kind: unknown '{kind}' "
                          f"(expected one of {sorted(_STATE_KINDS)})")
    for key in _STATE_KINDS[kind]:
        _require(state_cfg, key, "$.state")
    if kind == "toeplitz_uniform":
        _positive_int(state_cfg.get("per_axis", 3), "$.state.per_axis")


def validate(cfg: dict) -> dict:
    """Validate a scenario config dict; returns it unchanged on success."""
    if not isinstance(cfg, dict):
        raise ConfigError("$: scenario config must be a JSON object")
    name = cfg.get("scenario", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError("$.scenario: must be a nonempty string")
    build_objects(cfg)
    _positive(_require(cfg, "T", "$"), "$.T")
    _positive_list(_require(cfg, "deltas", "$"), "$.deltas")
    _positive_list(_require(cfg, "hbars", "$"), "$.hbars")
    _validate_state_shallow(_require(cfg, "state", "$"))
    return cfg


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return validate(cfg)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _run_group(cfg: dict, geo: GeometricSummary, hbar: float) -> list[CertificationReport]:
    """All (delta) cells of one hbar column; safe to run in a worker process
    (a Potential holds lambdas and does not pickle, so it is rebuilt from cfg)."""
    V, K, omega, num = build_objects(cfg)
    grid = build_grid(num, V.dim)
    T = float(cfg["T"])
    name = cfg.get("scenario", "scenario")
    try:
        state = build_state(cfg["state"], grid, hbar, K)
        if isinstance(state, ToeplitzState):
            return certify.certify_toeplitz_sweep(
                V, K, omega, T, geo.deltas, state, grid,
                dt=num.dt, geo=geo, scenario=name)
        return certify.certify_pure_sweep(
            V, K, omega, T, geo.deltas, state,
            dt=num.dt, geo=geo, husimi_spacing=num.husimi_spacing,
            scenario=name)
    except quantum.NumericsError as exc:
        raise type(exc)(f"scenario '{name}', hbar={hbar:g}: {exc}") from exc


def run_scenario(cfg: dict, jobs: int = 1, seed: int = 0) -> list[CertificationReport]:
    """Run every (hbar, delta) cell; reports come back sorted by (hbar, delta).

    The classical side does not depend on hbar and is computed once for all
    columns.  The seed is accepted for interface stability; the pipeline itself is
    deterministic (analytic Lipschitz bounds, fixed lattices, ordered sums).
    """
    validate(cfg)
    V, K, omega, num = build_objects(cfg)
    geo = classical.geometric_summary(V, K, omega, float(cfg["T"]),
                                      sorted(float(d) for d in cfg["deltas"]), num.dt_flow)
    hbars = sorted(float(h) for h in cfg["hbars"])
    if jobs > 1 and len(hbars) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            groups = list(pool.map(_run_group, [cfg] * len(hbars), [geo] * len(hbars),
                                   hbars))
    else:
        groups = [_run_group(cfg, geo, h) for h in hbars]
    reports = [r for group in groups for r in group]
    reports.sort(key=lambda r: (r.hbar, r.delta))
    return reports


def sweep_rows(reports: Sequence[CertificationReport]) -> list[dict]:
    """Sweep table rows sorted by (hbar, delta): the hbar/delta tradeoff view."""
    if not reports:
        raise ValueError("need at least one report")
    rows = [{
        "scenario": r.scenario,
        "hbar": r.hbar,
        "delta": r.delta,
        "lower_bound": r.lower_bound,
        "measured": r.measured,
        "margin": r.margin,
        "verdict": r.verdict,
    } for r in sorted(reports, key=lambda r: (r.hbar, r.delta))]
    return rows
