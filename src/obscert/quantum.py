"""Wave functions on a periodic grid and their split-step spectral evolution.

States live on a uniform periodic lattice over [-L/2, L/2)^d with a power-of-two
number of points per axis.  The box must be large enough that every state keeps
boundary amplitude below 1e-12 for the whole run; one edge monitor, the grid's,
aborts otherwise, at each step and in the one normalize-and-check of a built state.
Time stepping is Strang splitting: half potential phase, exact kinetic factor
in Fourier space, half potential phase (unitary, global error O(dt^2)).  One
propagator steps a batch of states on one grid, each with its own hbar.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .potentials import Potential

Array = np.ndarray

BOUNDARY_TOL = 1e-12
ALIAS_TOL = 1e-10


class NumericsError(RuntimeError):
    """A numerical monitor tripped; the discretization is inadequate."""


class BoundaryLeakError(NumericsError):
    """State amplitude at the box boundary exceeded tolerance (box too small)."""


class SpectralAliasError(NumericsError):
    """Spectral tail mass exceeded tolerance (grid too coarse for the momenta)."""


class GridError(ValueError):
    """A Grid parameter out of range; ``field`` names it: dim, n or length."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# the largest n per axis, by dim: in 2-D at n = 2048, certify's propagation
# of one state peaks at about 1.5 GB, and memory grows fourfold per doubling
MAX_GRID_N = {1: 4096, 2: 2048}
# the most steps of one Strang or Verlet run: on a 2-core box, 10^6 steps at
# dt (and 5 * 10^5 at 2 dt) of one row take about 95 s at n = 1024 in 1-D and
# 9 min at 128^2 in 2-D, and a flow pass of 10^6 steps about 95 ns per node
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid over [-length/2, length/2)^dim, n points per axis."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in MAX_GRID_N:
            raise GridError("dim", "only dim 1 and 2 are supported")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise GridError("n", "n must be a power of two, at least 4 (spectral transforms)")
        if self.n > MAX_GRID_N[self.dim]:
            raise GridError("n", f"n = {self.n} exceeds {MAX_GRID_N[self.dim]}, the largest "
                                 f"grid per axis in {self.dim}-D")
        if not 0 < self.length < math.inf:
            raise GridError("length", f"length must be finite and positive, got {self.length!r}")
        volume = math.prod([self.dx] * self.dim)      # every mass is a sum times it
        if not sys.float_info.min <= volume < math.inf:
            raise GridError("length", f"length = {self.length!r} gives a cell volume "
                                      f"(length/n)^dim = {volume!r}, not a normal float")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @property
    def axis(self) -> Array:
        return -0.5 * self.length + self.dx * np.arange(self.n)

    @property
    def k_axis(self) -> Array:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def meshes(self) -> list[Array]:
        return list(np.meshgrid(*(self.axis,) * self.dim, indexing="ij"))

    def k_meshes(self) -> list[Array]:
        return list(np.meshgrid(*(self.k_axis,) * self.dim, indexing="ij"))

    def points(self) -> Array:
        """All grid nodes as an (n^dim, dim) array."""
        return np.stack([m.ravel() for m in self.meshes()], axis=-1)

    @functools.cached_property
    def boundary_cells(self) -> Array:
        """Flat (row-major) indices of the cells on the faces of the box,
        built once per grid, read-only."""
        interior = np.zeros(self.shape, dtype=bool)
        interior[(slice(1, -1),) * self.dim] = True
        cells = np.flatnonzero(~interior)
        cells.flags.writeable = False
        return cells

    def edge_amplitude(self, values: Array) -> Array:
        """The largest |value| on the face cells of each state of a stack
        (..., *shape): an array of shape (...)."""
        flat = values.reshape(values.shape[:values.ndim - self.dim] + (-1,))
        return np.abs(np.take(flat, self.boundary_cells, axis=-1)).max(axis=-1)


@dataclass(frozen=True)
class WaveFunction:
    grid: Grid
    values: Array
    hbar: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and positive, got {self.hbar!r}")
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def density(self) -> Array:
        return np.abs(self.values) ** 2

    def boundary_amplitude(self) -> float:
        return float(self.grid.edge_amplitude(self.values))

    def spectral_tail_mass(self) -> float:
        """Mass carried by modes with |k| beyond 0.9 of the Nyquist band."""
        ft = np.fft.fftn(self.values)
        power = np.abs(ft) ** 2
        total = power.sum()
        if total == 0:
            return 0.0
        kmax = np.pi / self.grid.dx
        outer = np.maximum.reduce([np.abs(k) for k in self.grid.k_meshes()]) > 0.9 * kmax
        return float(power[outer].sum() / total)


@dataclass(frozen=True)
class WaveBatch:
    """Wave functions on one grid, stacked as the rows of ``values``
    (B, *grid.shape), each with its own hbar.  ``labels`` name the rows in
    monitor messages ("hbar=<hbar>" by default)."""

    grid: Grid
    values: Array
    hbars: Array
    labels: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        hbars = np.asarray(self.hbars, dtype=float).reshape(-1)
        if hbars.size == 0 or v.shape != (hbars.size,) + self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not hold {hbars.size} "
                             f"row(s) of grid {self.grid.shape}")
        if not np.all((hbars > 0) & (hbars < math.inf)):
            raise ValueError("hbar must be finite and positive")
        labels = tuple(self.labels) or tuple(f"hbar={h:g}" for h in hbars)
        if len(labels) != hbars.size:
            raise ValueError("need one label per row")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "hbars", hbars)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of(cls, states: Sequence[WaveFunction], labels: Sequence[str] = ()) -> "WaveBatch":
        if not states or any(s.grid != states[0].grid for s in states):
            raise ValueError("need a nonempty list of states on one grid")
        return cls(states[0].grid, np.stack([s.values for s in states]),
                   np.array([s.hbar for s in states]), tuple(labels))

    def row(self, r: int) -> WaveFunction:
        return WaveFunction(self.grid, self.values[r], float(self.hbars[r]))

    def take(self, rows: slice) -> "WaveBatch":
        """These rows, as a view of ``values``."""
        return WaveBatch(self.grid, self.values[rows], self.hbars[rows], self.labels[rows])


def inner(a: WaveFunction, b: WaveFunction) -> complex:
    if a.grid != b.grid:
        raise ValueError("states live on different grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_volume)


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def _centers(grid: Grid, q, p):
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.size != grid.dim or p.size != grid.dim:
        raise ValueError(f"q and p must have {grid.dim} components")
    return q, p


def gaussian_state(grid: Grid, hbar: float, q, p, sigma: float) -> WaveFunction:
    """Gaussian packet exp(-|x-q|^2/(2 sigma^2) + i p.(x-q)/hbar), normalized.

    sigma = sqrt(hbar) reproduces the coherent state.  A packet with no mass
    on the grid, or with NaN values there, is a numerical abort.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    q, p = _centers(grid, q, p)
    meshes = grid.meshes()
    try:
        width = 2.0 * sigma ** 2
    except OverflowError:               # flat on any box: the boundary check refuses it
        width = math.inf
    with np.errstate(all="ignore"):     # r2 = inf is amplitude 0; a NaN is refused below
        r2 = sum((m - qi) ** 2 for m, qi in zip(meshes, q))
        phase = sum(pi * (m - qi) for m, pi, qi in zip(meshes, p, q))
        values = np.exp(-r2 / width + 1j * phase / hbar)
    return _normalized(WaveFunction(grid, values, hbar),
                       f"the packet at q = {q.tolist()}, p = {p.tolist()} of width {sigma:g}")


def coherent_state(grid: Grid, hbar: float, q, p) -> WaveFunction:
    """Minimal-uncertainty packet of width sqrt(hbar) centered at (q, p)."""
    return gaussian_state(grid, hbar, q, p, math.sqrt(hbar))


def superposition(states: Sequence[WaveFunction], amplitudes: Sequence[complex]) -> WaveFunction:
    if len(states) != len(amplitudes) or not states:
        raise ValueError("need matching, nonempty states and amplitudes")
    with np.errstate(all="ignore"):     # an overflow is refused below
        values = sum(a * s.values for a, s in zip(amplitudes, states))
    return _normalized(WaveFunction(states[0].grid, values, states[0].hbar),
                       f"the superposition of {len(states)} packets")


def _normalized(psi: WaveFunction, what: str) -> WaveFunction:
    """psi divided by its norm; a norm not finite and positive (``what``
    names psi) or a boundary amplitude above BOUNDARY_TOL is a numerical abort."""
    with np.errstate(all="ignore"):     # |values|^2 may overflow: norm inf
        norm = psi.norm
    if not 0 < norm < math.inf:
        raise NumericsError(f"hbar={psi.hbar:g}: {what} has norm {norm} on the grid "
                            "(off the box, or overflow)")
    psi = WaveFunction(psi.grid, psi.values / norm, psi.hbar)
    amp = psi.boundary_amplitude()
    if amp > BOUNDARY_TOL:
        raise BoundaryLeakError(f"hbar={psi.hbar:g}: boundary amplitude {amp:.3e} "
                                f"exceeds {BOUNDARY_TOL:.0e}; enlarge the box")
    return psi


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def propagate(V: Potential, psi: WaveFunction, t: float, dt: float) -> WaveFunction:
    """Evolve psi for time t under -hbar^2/2 Laplacian + V by Strang splitting."""
    if t == 0:
        return WaveFunction(psi.grid, psi.values.copy(), psi.hbar)
    return propagate_series(V, WaveBatch.of([psi]), t, dt, lambda _t, _state: None).row(0)


def split_steps(t: float, dt: float) -> tuple[int, float]:
    """The step rule of the Strang and Verlet passes: n = max(1, ceil(t/dt -
    1e-12)) equal steps of size h = t/n.  So h <= dt, except that a ratio
    t/dt at most 1e-12 above an integer keeps that integer; t = 0 takes one
    step of size 0.  More than MAX_STEPS steps is a ValueError."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not math.isfinite(t / dt):
        raise ValueError(f"t/dt = {t:g}/{dt:g} is not a finite step count")
    n = max(1, int(math.ceil(t / dt - 1e-12)))
    if n > MAX_STEPS:
        raise ValueError(f"t/dt = {t:g}/{dt:g} takes {n} steps, more than {MAX_STEPS}, "
                         "the most of one run")
    return n, t / n


def grid_fields(V: Potential, grid: Grid) -> tuple[Array, Array]:
    """V and |k|^2 on the grid, read-only, for the runs that share them."""
    vgrid = V.value_fn(grid.points()).reshape(grid.shape)
    k2 = sum(km ** 2 for km in grid.k_meshes())
    vgrid.flags.writeable = k2.flags.writeable = False
    return vgrid, k2


# Bytes of the block of steps each time loop holds: the synchronized states of
# a propagation, the densities of observed_mass_series's observer, and the
# positions and momenta of classical.occupation_batch.  The checks and sums
# over the steps run once per block.
_BLOCK_BYTES = 256 * 1024


def _block_steps(step_bytes: int, n_steps: int) -> int:
    """Steps per block: as many as _BLOCK_BYTES holds, at least one and at
    most n_steps."""
    return max(1, min(n_steps, _BLOCK_BYTES // step_bytes))


class _Stepper:
    """Precomputed Strang factors, one row per hbar, from the grid fields of
    :func:`grid_fields`; consecutive half potential phases are fused.  A lone
    row's operations, in its order, build the factors in place, broadcast over
    the hbar column: a batch steps every row bit for bit as it would alone."""

    def __init__(self, grid: Grid, fields: tuple[Array, Array], hbars: Sequence[float],
                 h: float):
        vgrid, k2 = fields
        hbar = np.asarray(hbars, dtype=float).reshape((-1,) + (1,) * grid.dim)
        half = self.half = np.empty(hbar.shape[:1] + grid.shape, dtype=complex)
        kinetic = self.kinetic = np.empty_like(half)
        # half = exp(-0.5j * vgrid * h / hbar), kinetic = exp(-0.5j * hbar * k2 * h)
        np.exp(np.divide(np.multiply(np.multiply(-0.5j, vgrid, out=half), h, out=half),
                         hbar, out=half), out=half)
        np.exp(np.multiply(np.multiply(-0.5j * hbar, k2, out=kinetic), h, out=kinetic),
               out=kinetic)
        self.full = self.half * self.half
        self.axes = range(-1, -grid.dim - 1, -1)       # np.fft.fftn's order: last axis first

    def kinetic_step(self, v: Array) -> None:
        """Apply the exact kinetic factor in Fourier space to every row of v,
        in place, with one transform over the stack per grid axis: each line
        is transformed on its own, so every row gets a lone row's ``fftn``.
        The product takes one operand order, kinetic factor first, in every
        dimension: a complex product rounds differently with its operands
        swapped.
        """
        for ax in self.axes:
            np.fft.fft(v, axis=ax, out=v)
        np.multiply(self.kinetic, v, out=v)
        for ax in self.axes:
            np.fft.ifft(v, axis=ax, out=v)


def propagate_series(V: Potential, psi: WaveBatch, T: float, dt: float,
                     observer: Callable[[float, Array], None], *,
                     fields: tuple[Array, Array] | None = None) -> WaveBatch:
    """Propagate every row of a batch while calling observer(t, values) at
    t = 0, dt, ..., T, once per step; the rows share the grid and the step
    size.  ``values`` is the array (rows, *grid.shape) of the batch's rows at
    t.  ``fields`` are :func:`grid_fields` of (V, psi.grid), computed here
    when not given.

    The run steps a state buffer of its own and never writes ``psi.values``.
    It writes each synchronized state (the half phase applied) into a block
    of its own of up to ``_BLOCK_BYTES``, and calls the observer for the
    block's steps once the block is full.  The array passed to the observer
    is valid only during the call, and an observer copies whatever it keeps:
    at t = 0 it is the caller's own ``psi.values``, which nothing may write,
    and at t > 0 a slot of the block, overwritten by a later step.  The batch
    returned holds the last observed slot, the run's own.

    The boundary amplitude of every row's synchronized state is checked once
    per block, before the observer sees any of the block's states, and the
    spectral tail of every final row.  A trip is raised for the first leaking
    step, then the first leaking row, after the observer has seen the steps
    before it: as a check of every state as it is produced would raise.  A
    row that fails both checks reports the tail: a grid too coarse for the
    momenta also spreads mass to the boundary, and a larger box would not
    help.  A trip names the row by its label.
    """
    n_steps, h = split_steps(T, dt)
    stepper = _Stepper(psi.grid, fields or grid_fields(V, psi.grid), psi.hbars, h)
    observer(0.0, psi.values)
    current = psi.values * stepper.half
    block = np.empty((_block_steps(current.nbytes, n_steps),) + current.shape, dtype=complex)
    for start in range(0, n_steps, len(block)):
        synced = block[:n_steps - start]
        for step, out in enumerate(synced, start):
            stepper.kinetic_step(current)
            np.multiply(current, stepper.half, out=out)
            if step < n_steps - 1:
                np.multiply(current, stepper.full, out=current)
        amp = psi.grid.edge_amplitude(synced)
        leaks = np.flatnonzero(amp > BOUNDARY_TOL)      # step-major, then row order
        clean = len(synced) if leaks.size == 0 else leaks[0] // amp.shape[1]
        for step, out in enumerate(synced[:clean], start):
            observer((step + 1) * h, out)
        if leaks.size:
            i, r = divmod(int(leaks[0]), amp.shape[1])
            _check_spectral_tail(WaveFunction(psi.grid, synced[i, r], psi.hbars[r]),
                                 psi.labels[r])
            raise BoundaryLeakError(f"{psi.labels[r]}: boundary amplitude {amp[i, r]:.3e} "
                                    f"at t = {(start + i + 1) * h:.4g} exceeds "
                                    f"{BOUNDARY_TOL:.0e}; enlarge the box")
    final = WaveBatch(psi.grid, out, psi.hbars, psi.labels)
    for r, label in enumerate(final.labels):
        _check_spectral_tail(final.row(r), label)
    return final


def _check_spectral_tail(state: WaveFunction, label: str) -> None:
    tail = state.spectral_tail_mass()
    if tail > ALIAS_TOL:
        raise SpectralAliasError(
            f"{label}: spectral tail mass {tail:.3e} exceeds {ALIAS_TOL:.0e}; refine the grid"
        )


# ---------------------------------------------------------------------------
# moments and expectations
# ---------------------------------------------------------------------------

def _moments(w: Array, coordinates: Sequence[Array]) -> tuple[Array, Array]:
    """Per-axis mean and variance of each coordinate array under the weights w."""
    total = w.sum()
    means, variances = [], []
    for c in coordinates:
        mu = float((c * w).sum() / total)
        means.append(mu)
        variances.append(float((((c - mu) ** 2) * w).sum() / total))
    return np.array(means), np.array(variances)


def position_moments(psi: WaveFunction):
    """Per-axis mean and variance of position."""
    return _moments(psi.density() * psi.grid.cell_volume, psi.grid.meshes())


def momentum_moments(psi: WaveFunction):
    """Per-axis mean and variance of the momentum operator -i hbar d/dx."""
    w = np.abs(np.fft.fftn(psi.values)) ** 2
    return _moments(w, [psi.hbar * km for km in psi.grid.k_meshes()])


def spread(psi: WaveFunction) -> float:
    """Total phase-space standard deviation sqrt(sum_j Var(x_j) + Var(p_j));
    bounded below by sqrt(dim * hbar) and attained by coherent states."""
    _, var_x = position_moments(psi)
    _, var_p = momentum_moments(psi)
    return float(np.sqrt(var_x.sum() + var_p.sum()))


def cost_expectation(psi: WaveFunction, x0, xi0, lam: float) -> float:
    """Expectation of lam^2 |x0 - y|^2 + |xi0 + i hbar grad|^2 in the state psi:
    sum_j lam^2 (Var x_j + (<x_j> - x0_j)^2) + Var p_j + (<p_j> - xi0_j)^2,
    from the moments of position (grid quadrature) and momentum (spectral).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    mean_x, var_x = position_moments(psi)
    mean_p, var_p = momentum_moments(psi)
    return float(lam ** 2 * np.sum(var_x + (mean_x - x0) ** 2)
                 + np.sum(var_p + (mean_p - xi0) ** 2))


def second_moment(psi: WaveFunction, lam: float) -> float:
    """<psi, (-hbar^2 Laplacian + lam^2 |y|^2) psi> for a normalized state."""
    zeros = np.zeros(psi.grid.dim)
    return cost_expectation(psi, zeros, zeros, lam)


# ---------------------------------------------------------------------------
# observed mass
# ---------------------------------------------------------------------------

def observed_mass_series(V: Potential, psi: WaveBatch, T: float, weights: Array,
                         cells: Sequence[Array], dts: Sequence[float]) -> list[tuple]:
    """Sample the density |psi_r(t)|^2 dV of every row r of a batch at
    t = 0, h, ..., T, for each step size of ``dts`` one (series, cell_mass):
    series[r, k] = weights @ density of row r at step k, and cell_mass[r, k, j]
    its mass on the flat cell indices ``cells[j]``.  Every row's sums are
    taken as for a lone row.

    Each (step size, row group) pair is one ``propagate_series`` run whose
    observer writes the group's own rows of the outputs.  1-D rows form one
    group per step size, and the groups run in turn on the calling thread: a
    1-D step is short and holds the interpreter lock for most of its time.
    Each 2-D row is a group of its own, a view of its row of ``psi``, and the
    groups run concurrently on the cores, where the n x n transforms release
    the lock (``_run_tasks``).  V and |k|^2 on the grid are evaluated once
    and shared by the runs.  A run holds its step factors, a state buffer, a
    block of states and a block of densities of up to ``_BLOCK_BYTES`` each,
    and allocates no grid-sized array per step, so memory grows with the
    number of cores, not with the number of rows or steps.  A failing run
    raises what the loop over step sizes, then rows, would raise first.

    The observer stores each state's |psi|, and once per block of steps
    takes |psi|^2 dV, the weighted sums by one stacked matmul and the cell
    masses by one gather and sum over the last axis per cell set: each
    equal bit for bit to a lone row's ``weights @ dens`` and
    ``dens[idx].sum()``.  (A sum over a gathered middle axis,
    ``dens[:, idx].sum(axis=1)``, adds in another order.)
    """
    grid = psi.grid
    rows = psi.hbars.size
    n_t = [split_steps(T, dt)[0] + 1 for dt in dts]
    series = [np.empty((rows, n, len(weights))) for n in n_t]
    cell_mass = [np.empty((rows, n, len(cells))) for n in n_t]
    fields = grid_fields(V, grid)
    weights_t = np.asarray(weights).T

    def run(i, group):
        batch = psi.take(group)
        shape = (len(batch.hbars), grid.n ** grid.dim)        # one step's densities
        dens = np.empty((_block_steps(8 * math.prod(shape), n_t[i]),) + shape)

        def observer(t, values, steps=itertools.count()):
            k = next(steps)
            b = k % len(dens)
            np.abs(values.reshape(dens.shape[1:]), out=dens[b])
            if b == len(dens) - 1 or k == n_t[i] - 1:
                reduce(slice(k - b, k + 1), dens[:b + 1])

        def reduce(ks, d):
            np.square(d, out=d)
            np.multiply(d, grid.cell_volume, out=d)
            series[i][group, ks] = np.matmul(d[:, :, None, :], weights_t)[:, :, 0].swapaxes(0, 1)
            for j, idx in enumerate(cells):
                cell_mass[i][group, ks, j] = np.take(d, idx, axis=-1).sum(axis=-1).T

        propagate_series(V, batch, T, dts[i], observer, fields=fields)

    groups = [slice(0, rows)] if grid.dim == 1 else [slice(r, r + 1) for r in range(rows)]
    tasks = [(i, group) for i in range(len(dts)) for group in groups]
    _run_tasks(run, tasks, 1 if grid.dim == 1 else cores())
    return list(zip(series, cell_mass))


def cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # no affinity call on this platform
        return os.cpu_count() or 1


def _run_tasks(run: Callable, tasks: Sequence[tuple], workers: int) -> None:
    """Call run(*task) for every task, taken in list order, on the calling
    thread and up to ``workers - 1`` helper threads; each task must write
    outputs of its own.

    Once a task fails, no task after it in list order starts.  When every
    helper has returned, the exception of the failing task first in list
    order is raised: a run fails as the loop over the tasks in list order
    would.  An interrupt of the calling thread starts no further task, and
    propagates once the helpers have finished the tasks they hold.
    """
    queue = iter(range(len(tasks)))
    lock = threading.Lock()
    failed = {}                                 # task index -> exception

    def work():
        while True:
            with lock:
                last = min(failed, default=len(tasks))
                i = next((i for i in queue if i < last), None)
            if i is None:
                return
            try:
                run(*tasks[i])
            except BaseException as exc:        # raised below, by the calling thread
                with lock:
                    failed[i] = exc
                if not isinstance(exc, Exception):
                    raise                       # an interrupt: take no further task

    helpers = []
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            thread = threading.Thread(target=work, name="obscert-task")
            thread.start()
            helpers.append(thread)
        work()
    finally:
        with lock:
            for _ in queue:                     # drained: no helper takes another task
                pass
        for thread in helpers:
            thread.join()
    if failed:
        raise failed[min(failed)]

