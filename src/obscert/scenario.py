"""Scenario configs: parsing, validation, and orchestration of certification runs.

A scenario is one JSON document naming a potential, a compact phase-space set
K, an observation region, a horizon T, lists of hbar and delta values, an
initial state, and the numerical parameters.  ``parse`` checks every field and
returns a frozen, picklable ``Scenario``; running it produces one
certification report per (hbar, delta) cell, deterministically ordered.
Every reader names the field it checks, by its config path, in its ConfigError.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import certify, classical, phasespace, potentials, quantum
from .certify import CertificationReport
from .classical import CompactSet, GeometricSummary, Region
from .phasespace import AtomicMeasure, ToeplitzState
from .potentials import Potential
from .quantum import Grid

# the factory of each potential kind, and the fields it reads besides dim and box
_POTENTIALS = {"free": (potentials.free_particle, ()),
               "harmonic": (potentials.harmonic, ("stiffness",)),
               "double_well": (potentials.double_well, ())}
# the (required, optional) fields of each state kind, besides "kind"
_STATES = {"coherent": (("q", "p"), ()), "gaussian": (("q", "p", "sigma"), ()),
           "superposition": (("components",), ()), "toeplitz": (("atoms",), ()),
           "toeplitz_uniform": ((), ("per_axis",))}


class ConfigError(ValueError):
    """Scenario config failed validation; message carries the config path."""


def positive(value, where: str) -> float:
    try:
        if isinstance(value, bool):            # float(True) is 1.0
            raise TypeError
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not (v > 0) or not math.isfinite(v):
        raise ConfigError(f"{where}: must be positive and finite, got {v}")
    return v


def positive_int(value, where: str) -> int:
    v = positive(value, where)
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def numbers(value, where: str, finite: bool = True) -> np.ndarray:
    """value as a float array: never NaN, and without +-inf when ``finite``."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected numbers, got {value!r}") from None
    if np.isnan(v).any() or (finite and not np.isfinite(v).all()):
        raise ConfigError(f"{where}: must be {'finite' if finite else 'numbers, not NaN'}, "
                          f"got {value!r}")
    return v


def vec(value, dim: int, where: str) -> np.ndarray:
    v = numbers(value, where).reshape(-1)
    if v.size != dim:
        raise ConfigError(f"{where}: expected {dim} component(s), got {v.size}")
    return v


def _object(raw, where: str, required=(), optional=(), kinds=None) -> dict:
    """raw, checked once: an object that holds every required field and no
    field besides the optional ones.  ``kinds`` maps each value of a required
    "kind" field to the (required, optional) fields that kind adds."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be an object")
    if kinds is not None:
        if "kind" not in raw:
            raise ConfigError(f"{where}.kind: missing required field")
        kind = raw["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{where}.kind: unknown {kind!r} (expected one of "
                              f"{sorted(kinds)})")
        required = ("kind", *required, *kinds[kind][0])
        optional = (*optional, *kinds[kind][1])
    for key in raw:
        if key not in required and key not in optional:
            raise ConfigError(f"{where}.{key}: unknown field (expected one of "
                              f"{sorted((*required, *optional))})")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where}.{key}: missing required field")
    return raw


def report_filename(name: str, hbar: float, delta: float) -> str:
    """The file name of the (hbar, delta) report of scenario ``name``."""
    return f"{name}_h{hbar:g}_d{delta:g}.json"


# the longest file name, in bytes, that common file systems take
MAX_FILENAME_BYTES = 255


def _positive_list(values, where: str) -> tuple[float, ...]:
    """Distinct positive values, sorted, each its own report file name."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{where}: expected a nonempty list")
    out = [positive(v, f"{where}[{i}]") for i, v in enumerate(values)]
    if len({f"{v:g}" for v in out}) < len(out):
        raise ConfigError(f"{where}: values must differ in report file names (format :g)")
    return tuple(sorted(out))


def _check_report_names(sc: Scenario) -> None:
    """Every report file name of sc is one file in --out: the name holds no
    path separator or NUL, and the longest file name is UTF-8 of at most
    MAX_FILENAME_BYTES bytes."""
    if any(c in sc.name for c in {"/", os.sep, "\0"}):
        raise ConfigError(f"$.scenario: {sc.name!r} holds a path separator or NUL, which "
                          "a report file name cannot")
    longest = report_filename(sc.name, *(max(values, key=lambda v: len(f"{v:g}"))
                                         for values in (sc.hbars, sc.deltas)))
    try:
        size = len(longest.encode("utf-8"))
    except UnicodeEncodeError:
        raise ConfigError(f"$.scenario: {sc.name!r} is not valid UTF-8") from None
    if size > MAX_FILENAME_BYTES:
        raise ConfigError(f"$.scenario: gives report file names of up to {size} bytes, "
                          f"more than {MAX_FILENAME_BYTES}, the longest a file name takes")


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


# the reader of each numerics field; a field the config leaves out keeps the
# Numerics default
_NUMERICS = {"n": positive_int, "length": positive, "dt": positive, "dt_flow": positive}


def parse_numerics(cfg) -> Numerics:
    cfg = _object({} if cfg is None else cfg, "$.numerics", optional=_NUMERICS)
    return Numerics(**{key: read(cfg[key], f"$.numerics.{key}")
                       for key, read in _NUMERICS.items() if key in cfg})


def build_potential(cfg: dict) -> Potential:
    """The potential's factory called on its checked fields; a field the
    config leaves out takes the factory's default."""
    raw = _object(cfg["potential"], "$.potential", optional=("dim", "box"),
                  kinds={kind: ((), fields) for kind, (_, fields) in _POTENTIALS.items()})
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
        return _POTENTIALS[raw["kind"]][0](**args)
    except ValueError as exc:                  # only the box's shape or order
        raise ConfigError(f"$.potential.box: {exc}") from None


def build_compact_set(cfg: dict, dim: int) -> CompactSet:
    raw = _object(cfg["K"], "$.K", ("boxes", "spacing"))
    # finite: K's sample lattice spans every box
    boxes = _norm_boxes(raw["boxes"], 2 * dim, "$.K.boxes", finite=True)
    spacing = positive(raw["spacing"], "$.K.spacing")
    try:
        K = CompactSet(boxes=boxes, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"$.K: {exc}") from None
    nodes = classical.flow_nodes(K)
    if nodes > classical.MAX_LATTICE_NODES:
        raise ConfigError(f"$.K.spacing: {spacing:g} gives $.K.boxes a sample lattice of "
                          f"{nodes:.3g} nodes with its half-spacing refinement, more than "
                          f"{classical.MAX_LATTICE_NODES}, the most one flow pass takes")
    return K


def build_region(cfg: dict, dim: int) -> Region:
    raw = _object(cfg["omega"], "$.omega", ("boxes",))
    return Region(_norm_boxes(raw["boxes"], dim, "$.omega.boxes", finite=False))


@dataclass(frozen=True)
class PureState:
    """The hbar-independent data of a pure initial state: one phase point
    (q, p) per Gaussian packet in ``points`` (m, 2*dim), the superposition
    ``amplitudes`` (None for one packet alone), and the packets' width
    ``sigma`` (None for sqrt(hbar), the coherent state's)."""

    points: np.ndarray
    amplitudes: Optional[np.ndarray] = None
    sigma: Optional[float] = None


def _phase_point(q, p, dim: int, where: str) -> np.ndarray:
    return np.concatenate([vec(q, dim, f"{where}.q"), vec(p, dim, f"{where}.p")])


def parse_state(state_cfg, dim: int, K: CompactSet) -> PureState | AtomicMeasure:
    """Check the state config against dim and K; a Toeplitz kind gives its symbol."""
    raw = _object(state_cfg, "$.state", kinds=_STATES)
    kind = raw["kind"]
    if kind in ("coherent", "gaussian"):
        pt = _phase_point(raw["q"], raw["p"], dim, "$.state")
        return PureState(pt[None, :], sigma=(positive(raw["sigma"], "$.state.sigma")
                                             if kind == "gaussian" else None))
    if kind == "superposition":
        comps = raw["components"]
        if not isinstance(comps, list) or not comps:
            raise ConfigError("$.state.components: expected a nonempty list")
        pts, amps = [], []
        for i, comp in enumerate(comps):
            where = f"$.state.components[{i}]"
            _object(comp, where, ("q", "p"), ("amplitude",))
            pts.append(_phase_point(comp["q"], comp["p"], dim, where))
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
        return PureState(np.array(pts), np.array(amps))
    if kind == "toeplitz":
        atoms = raw["atoms"]
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
        return symbol
    per_axis = positive_int(raw.get("per_axis", 3), "$.state.per_axis")
    return AtomicMeasure(*phasespace.uniform_atomization(K, per_axis))


def build_state(state: PureState | AtomicMeasure, grid: Grid, hbar: float):
    """A WaveFunction for a PureState, a ToeplitzState for a symbol."""
    if isinstance(state, AtomicMeasure):
        return ToeplitzState(state, hbar)
    d, sigma = grid.dim, state.sigma or math.sqrt(hbar)
    packets = [quantum.gaussian_state(grid, hbar, pt[:d], pt[d:], sigma)
               for pt in state.points]
    if state.amplitudes is None:
        return packets[0]
    return quantum.superposition(packets, state.amplitudes)


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
    state: PureState | AtomicMeasure
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
    _object(cfg, "$", ("potential", "K", "omega", "T", "deltas", "hbars", "state"),
            ("scenario", "numerics"))
    name = cfg.get("scenario", "scenario")
    if not isinstance(name, str) or not name:
        raise ConfigError("$.scenario: must be a nonempty string")
    V = build_potential(cfg)
    K = build_compact_set(cfg, V.dim)
    sc = Scenario(
        name=name, V=V, K=K, omega=build_region(cfg, V.dim),
        numerics=parse_numerics(cfg.get("numerics")),
        T=positive(cfg["T"], "$.T"),
        deltas=_positive_list(cfg["deltas"], "$.deltas"),
        hbars=_positive_list(cfg["hbars"], "$.hbars"),
        state=parse_state(cfg["state"], V.dim, K),
    )
    _check_report_names(sc)
    try:
        sc.grid                 # the dim is checked: Grid can refuse only n or length
    except quantum.GridError as exc:
        raise ConfigError(f"$.numerics.{exc.field}: {exc}") from None
    if _step_count(sc.T, sc.numerics.dt, "$.numerics.dt") < 2:   # else dt and 2 dt runs coincide
        raise ConfigError(f"$.numerics.dt: T = {sc.T:g} at dt = {sc.numerics.dt:g} takes 1 "
                          "quantum step; the propagation error needs at least 2")
    _step_count(sc.T, sc.numerics.dt_flow, "$.numerics.dt_flow")
    n, most = sc.numerics.n, phasespace.MAX_OVERLAP_BYTES
    if isinstance(sc.state, PureState):         # certify takes its Husimi mass on K
        for i, value in enumerate(cfg["hbars"]):
            hbar = positive(value, f"$.hbars[{i}]")
            nodes = phasespace.quadrature_nodes(K, hbar)
            if nodes > phasespace.MAX_HUSIMI_NODES:
                raise ConfigError(f"$.hbars[{i}]: hbar = {hbar:g} gives $.K.boxes a Husimi "
                                  f"lattice of {nodes:.3g} nodes with its half-spacing "
                                  f"refinement, more than {phasespace.MAX_HUSIMI_NODES}, "
                                  "the most one Husimi quadrature takes")
            held = phasespace.quadrature_bytes(K, hbar, n)
            if held > most:
                raise ConfigError(f"$.hbars[{i}]: hbar = {hbar:g} gives $.K.boxes Husimi "
                                  f"overlap tables of {held:.3g} bytes at n = {n}, more than "
                                  f"{most}, the most one Husimi quadrature takes")
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
        if isinstance(sc.state, AtomicMeasure):
            return certify.certify_toeplitz_sweep(geo, states, grid, dt=num.dt,
                                                  scenario=sc.name)
        return certify.certify_pure_sweep(geo, states, dt=num.dt, scenario=sc.name)


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

