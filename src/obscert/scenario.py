"""Scenario configs: parsing, validation, and orchestration of certification runs.

A scenario is one JSON document naming a potential, a compact phase-space set
K, an observation region, a horizon T, lists of hbar and delta values, an
initial state, and the numerical parameters.  ``parse`` checks every field and
returns a frozen, picklable ``Scenario``; running it produces one
certification report per (hbar, delta) cell, deterministically ordered.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import certify, classical, phasespace, potentials, quantum
from .certify import CertificationReport
from .classical import CompactSet, GeometricSummary, Region
from .config import ConfigError, known_fields, numbers, positive, positive_int, vec
from .phasespace import AtomicMeasure, ToeplitzState
from .potentials import Potential
from .quantum import Grid

SWEEP_FIELDS = ("scenario", "hbar", "delta", "lower_bound", "measured", "margin", "verdict")
# the fields of a scenario config, and of its state besides "kind", by kind
_FIELDS = ("scenario", "potential", "K", "omega", "T", "deltas", "hbars", "state", "numerics")
_STATE_FIELDS = {"coherent": ("q", "p"), "gaussian": ("q", "p", "sigma"),
                "superposition": ("components",), "toeplitz": ("atoms",),
                "toeplitz_uniform": ("per_axis",)}
# the factory of each potential kind, and the fields it reads besides dim and box
_POTENTIALS = {"free": (potentials.free_particle, ()),
               "harmonic": (potentials.harmonic, ("stiffness",)),
               "double_well": (potentials.double_well, ())}


def _require(cfg, key: str, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: must be an object")
    if key not in cfg:
        raise ConfigError(f"{where}.{key}: missing required field")
    return cfg[key]


def _positive_list(values, where: str) -> tuple[float, ...]:
    """Distinct positive values, sorted."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = [positive(v, f"{where}[{i}]") for i, v in enumerate(values)]
    if len({f"{v:g}" for v in out}) < len(out):
        raise ConfigError(f"{where}: values must differ in report file names (format :g)")
    return tuple(sorted(out))


def _norm_boxes(raw, dim: int, where: str, finite: bool) -> np.ndarray:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{where}: expected a nonempty list of boxes")
    out = []
    for i, entry in enumerate(raw):
        b = numbers(entry, f"{where}[{i}]", finite)
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
    phase_grid: Optional[dict] = None     # {"q"|"p": [lo, hi, count]}


def _parse_phase_grid(raw) -> Optional[dict]:
    if raw is None:
        return None
    known_fields(raw, ("q", "p"), "$.numerics.phase_grid")
    out = {}
    for axis in ("q", "p"):
        if raw.get(axis) is not None:
            where = f"numerics.phase_grid.{axis}"
            lo, hi, count = vec(raw[axis], 3, where)
            out[axis] = [float(lo), float(hi), positive_int(count, f"{where}[2]")]
    return out


def parse_numerics(cfg) -> Numerics:
    cfg = known_fields({} if cfg is None else cfg, Numerics.__dataclass_fields__, "$.numerics")
    num = Numerics(
        n=positive_int(cfg.get("n", 1024), "numerics.n"),
        length=positive(cfg.get("length", 16.0), "numerics.length"),
        dt=positive(cfg.get("dt", 1e-3), "numerics.dt"),
        dt_flow=positive(cfg.get("dt_flow", 1e-3), "numerics.dt_flow"),
        husimi_spacing=(None if cfg.get("husimi_spacing") is None
                        else positive(cfg["husimi_spacing"], "numerics.husimi_spacing")),
        slices=positive_int(cfg.get("slices", 9), "numerics.slices"),
        phase_grid=_parse_phase_grid(cfg.get("phase_grid")),
    )
    if num.slices < 2:
        raise ConfigError("numerics.slices: need at least 2")
    return num


def build_potential(cfg: dict) -> Potential:
    """The potential's factory called on its checked fields; a field the
    config leaves out takes the factory's default."""
    raw = _require(cfg, "potential", "$")
    kind = _require(raw, "kind", "$.potential")
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(f"$.potential.kind: unknown {kind!r} (expected one of "
                          f"{sorted(_POTENTIALS)})")
    factory, fields = _POTENTIALS[kind]
    known_fields(raw, ("kind", "dim", "box", *fields), "$.potential")
    args = {}
    if "dim" in raw:
        args["dim"] = positive_int(raw["dim"], "$.potential.dim")
        if args["dim"] > 2:
            raise ConfigError("$.potential.dim: only dimensions 1 and 2 are supported")
    if "stiffness" in raw:
        args["stiffness"] = vec(raw["stiffness"], 1, "$.potential.stiffness")[0]
    if "box" in raw:                           # +-inf bounds run, NaN does not
        args["box"] = numbers(raw["box"], "$.potential.box", finite=False)
    try:
        return factory(**args)
    except ValueError as exc:                  # only the box's shape or order
        raise ConfigError(f"$.potential.box: {exc}") from None


def build_compact_set(cfg: dict, dim: int) -> CompactSet:
    raw = known_fields(_require(cfg, "K", "$"), ("boxes", "spacing"), "$.K")
    # finite: K's sample lattice spans every box
    boxes = _norm_boxes(_require(raw, "boxes", "$.K"), 2 * dim, "$.K.boxes", finite=True)
    spacing = positive(_require(raw, "spacing", "$.K"), "$.K.spacing")
    try:
        return CompactSet(boxes=boxes, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"$.K: {exc}") from None


def build_region(cfg: dict, dim: int) -> Region:
    raw = known_fields(_require(cfg, "omega", "$"), ("boxes",), "$.omega")
    return Region(_norm_boxes(_require(raw, "boxes", "$.omega"), dim, "$.omega.boxes",
                              finite=False))


@dataclass(frozen=True)
class State:
    """The hbar-independent data of an initial state.

    ``kind`` is "coherent", "gaussian", "superposition" or "toeplitz" (both
    Toeplitz config kinds).  A pure kind holds one phase point (q, p) per
    coherent component in ``points`` and the superposition amplitudes in
    ``weights``; a Toeplitz kind holds its ``symbol``.
    """

    kind: str
    points: Optional[np.ndarray] = None  # (m, 2*dim)
    weights: Optional[np.ndarray] = None
    sigma: Optional[float] = None
    symbol: Optional[AtomicMeasure] = None


def _phase_point(q, p, dim: int, where: str) -> np.ndarray:
    return np.concatenate([vec(q, dim, f"{where}.q"), vec(p, dim, f"{where}.p")])


def parse_state(state_cfg, dim: int, K: CompactSet) -> State:
    """Check every field of the state config against the scenario's dim and K."""
    kind = _require(state_cfg, "kind", "$.state")
    if not isinstance(kind, str) or kind not in _STATE_FIELDS:
        raise ConfigError(f"$.state.kind: unknown {kind!r} (expected one of "
                          f"{sorted(_STATE_FIELDS)})")
    known_fields(state_cfg, ("kind", *_STATE_FIELDS[kind]), "$.state")
    if kind in ("coherent", "gaussian"):
        pt = _phase_point(_require(state_cfg, "q", "$.state"),
                          _require(state_cfg, "p", "$.state"), dim, "$.state")
        if kind == "coherent":
            return State(kind, pt[None, :])
        return State(kind, pt[None, :], sigma=positive(
            _require(state_cfg, "sigma", "$.state"), "$.state.sigma"))
    if kind == "superposition":
        comps = _require(state_cfg, "components", "$.state")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("$.state.components: expected a nonempty list")
        pts, amps = [], []
        for i, comp in enumerate(comps):
            where = f"$.state.components[{i}]"
            known_fields(comp, ("q", "p", "amplitude"), where)
            pts.append(_phase_point(_require(comp, "q", where), _require(comp, "p", where),
                                    dim, where))
            a = comp.get("amplitude", 1.0)
            amps.append(complex(*vec(a, 2 if isinstance(a, (list, tuple)) else 1,
                                      f"{where}.amplitude")))
        # coherent states at distinct points are independent, so the state is
        # zero iff the amplitudes at each phase point sum to zero
        sums = {}
        for pt, amp in zip(pts, amps):
            sums[tuple(pt)] = sums.get(tuple(pt), 0.0) + amp
        if not any(sums.values()):
            raise ConfigError("$.state.components: amplitudes sum to zero at every "
                              "phase point (the zero state)")
        return State(kind, np.array(pts), np.array(amps))
    if kind == "toeplitz":
        atoms = _require(state_cfg, "atoms", "$.state")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError("$.state.atoms: expected a nonempty list")
        pts, ws = [], []
        for i, entry in enumerate(atoms):
            where = f"$.state.atoms[{i}]"
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise ConfigError(f"{where}: expected [q, p, weight]")
            pts.append(_phase_point(entry[0], entry[1], dim, where))
            ws.append(vec(entry[2], 1, f"{where}.weight")[0])
        try:
            symbol = AtomicMeasure(np.array(pts), np.array(ws))
        except ValueError as exc:
            raise ConfigError(f"$.state.atoms: {exc}") from None
        outside = np.flatnonzero(~K.contains(symbol.points))
        if outside.size:
            raise ConfigError(f"$.state.atoms[{outside[0]}]: lies outside K")
        return State(kind, symbol=symbol)
    per_axis = positive_int(state_cfg.get("per_axis", 3), "$.state.per_axis")
    return State("toeplitz", symbol=AtomicMeasure(*phasespace.uniform_atomization(K, per_axis)))


def build_state(state: State, grid: Grid, hbar: float):
    """Returns a WaveFunction (pure kinds) or a ToeplitzState."""
    if state.kind == "toeplitz":
        return ToeplitzState(state.symbol, hbar)
    d = grid.dim
    q, p = state.points[:, :d], state.points[:, d:]
    if state.kind == "gaussian":
        return quantum.gaussian_state(grid, hbar, q[0], p[0], state.sigma)
    packets = [quantum.coherent_state(grid, hbar, a, b) for a, b in zip(q, p)]
    if state.kind == "superposition":
        return quantum.superposition(packets, state.weights)
    return packets[0]


@dataclass(frozen=True)
class Scenario:
    """A checked scenario config; frozen and picklable, so ``--jobs`` workers
    receive it whole.  ``deltas`` and ``hbars`` are sorted."""

    name: str
    V: Potential
    K: CompactSet
    omega: Region
    T: float
    deltas: tuple
    hbars: tuple
    state: State
    numerics: Numerics

    @property
    def grid(self) -> Grid:
        return Grid(dim=self.V.dim, n=self.numerics.n, length=self.numerics.length)

    def geometric_summary(self) -> GeometricSummary:
        with named_aborts(self.name):
            return classical.geometric_summary(self.V, self.K, self.omega, self.T,
                                               self.deltas, self.numerics.dt_flow)


@contextmanager
def named_aborts(name: str):
    """Prefix the message of a numerical abort with "scenario '<name>', "."""
    try:
        yield
    except quantum.NumericsError as exc:
        raise type(exc)(f"scenario '{name}', {exc}") from exc


def _step_count(T: float, dt: float, where: str) -> int:
    """The step count of quantum.split_steps(T, dt), which the Strang and
    Verlet passes share; a T/dt that overflows is a config error."""
    try:
        return quantum.split_steps(T, dt)[0]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse(cfg) -> Scenario:
    """Check every field of a scenario config dict; the one config parser."""
    known_fields(cfg, _FIELDS, "$")
    name = cfg.get("scenario", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError("$.scenario: must be a nonempty string")
    V = build_potential(cfg)
    K = build_compact_set(cfg, V.dim)
    sc = Scenario(
        name=name, V=V, K=K, omega=build_region(cfg, V.dim),
        numerics=parse_numerics(cfg.get("numerics")),
        T=positive(_require(cfg, "T", "$"), "$.T"),
        deltas=_positive_list(_require(cfg, "deltas", "$"), "$.deltas"),
        hbars=_positive_list(_require(cfg, "hbars", "$"), "$.hbars"),
        state=parse_state(_require(cfg, "state", "$"), V.dim, K),
    )
    try:
        sc.grid                 # dim and length are checked: Grid can reject only n
    except ValueError as exc:
        raise ConfigError(f"numerics.n: {exc}") from None
    if _step_count(sc.T, sc.numerics.dt, "numerics.dt") < 2:   # else dt and 2 dt runs coincide
        raise ConfigError(f"numerics.dt: T = {sc.T:g} at dt = {sc.numerics.dt:g} takes 1 "
                          "quantum step; the propagation error needs at least 2")
    _step_count(sc.T, sc.numerics.dt_flow, "numerics.dt_flow")
    return sc


def load_config(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return parse(cfg)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _run_columns(sc: Scenario, geo: GeometricSummary,
                 hbars: Sequence[float]) -> list[CertificationReport]:
    """All (hbar, delta) cells of the given hbar columns, propagated as one
    batch; safe to run in a worker process."""
    num, grid = sc.numerics, sc.grid
    with named_aborts(sc.name):
        states = [build_state(sc.state, grid, hbar) for hbar in hbars]
        if sc.state.kind == "toeplitz":
            return certify.certify_toeplitz_sweep(geo, states, grid, dt=num.dt,
                                                  scenario=sc.name)
        return certify.certify_pure_sweep(geo, states, dt=num.dt,
                                          husimi_spacing=num.husimi_spacing, scenario=sc.name)


def run_scenario(sc: Scenario, jobs: int = 1) -> list[CertificationReport]:
    """Run every (hbar, delta) cell; reports come back sorted by (hbar, delta).

    The classical side does not depend on hbar and is computed once for all
    columns.  The sorted hbar list is split into min(jobs, #hbar) contiguous
    chunks; each chunk propagates as one batch, in a worker process when there
    is more than one chunk.  Every row of a batch is computed as it would be
    alone, so the reports do not depend on ``jobs``.  The pipeline is
    deterministic (analytic Lipschitz bounds, fixed lattices, ordered sums).
    """
    geo = sc.geometric_summary()
    k = max(1, min(jobs, len(sc.hbars)))
    bounds = [len(sc.hbars) * i // k for i in range(k + 1)]
    chunks = [sc.hbars[a:b] for a, b in zip(bounds, bounds[1:])]
    if k == 1:
        groups = [_run_columns(sc, geo, chunks[0])]
    else:
        # imported here: it loads multiprocessing, which no other run needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=k) as pool:
            groups = list(pool.map(_run_columns, [sc] * k, [geo] * k, chunks))
    return [r for group in groups for r in group]


def sweep_rows(reports: Sequence[CertificationReport]) -> list[dict]:
    """Sweep table rows sorted by (hbar, delta): the hbar/delta tradeoff view."""
    if not reports:
        raise ValueError("need at least one report")
    return [{k: getattr(r, k) for k in SWEEP_FIELDS}
            for r in sorted(reports, key=lambda r: (r.hbar, r.delta))]
