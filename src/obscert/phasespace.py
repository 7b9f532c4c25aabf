"""Phase-space representations: Husimi masses, atomic measures and their
Toeplitz states.

The Husimi density is computed directly from coherent-state overlaps on the
spatial grid (unconditionally nonnegative); its mass on a compact set K is a
trapezoid quadrature on a lattice of spacing sqrt(hbar)/5, refined once at
half the spacing for the error budget, and both lattices together hold at
most ``MAX_HUSIMI_NODES`` nodes.  A Toeplitz state is the Toeplitz
quantization of an atomic measure, a finite nonnegative mixture of coherent
atoms, so its evolution reduces to independent pure-state propagations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical import CompactSet, lattice_axis, lattice_points, lattice_size
from . import quantum
from .quantum import Grid, WaveFunction

Array = np.ndarray


# ---------------------------------------------------------------------------
# Husimi transform
# ---------------------------------------------------------------------------

def coherent_overlaps(psi: WaveFunction, q_nodes: Array, p_nodes: Array) -> Array:
    """|<q,p|psi>|^2 on the lattice q_nodes x p_nodes (dim 1), shape (len(q), len(p))."""
    pts = lattice_points([np.asarray(q_nodes, float), np.asarray(p_nodes, float)])
    return _overlap_sq_points(psi, pts).reshape(len(q_nodes), len(p_nodes))


def _overlap_sq_points(psi: WaveFunction, phase_points: Array) -> Array:
    """|<q,p|psi>|^2 at phase points (m, 2*dim); any dimension.

    The conjugated coherent bra, sans the q.p phase (which cancels in |.|^2),
    separates across axes: on axis a it is a real Gaussian in q_a times a
    plane wave in p_a.  So the grid axes are contracted one at a time, each
    by (gauss * values) @ kernel with one Gaussian row per distinct q_a and
    one plane-wave column per distinct p_a, over the lattice spanned by the
    points' distinct coordinates, and the points then gather their values
    from that lattice: the cost is at most the lattice size times the grid
    size.  Gaussian rows go in blocks whose product holds no more values than
    ``gauss`` itself: all at once in dim 1, one q at a time while a grid axis
    remains.
    """
    grid, hbar = psi.grid, psi.hbar
    d, x = grid.dim, grid.axis
    pts = np.atleast_2d(np.asarray(phase_points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2 * d:
        raise ValueError(f"phase points must have 2*dim = {2 * d} columns, "
                         f"got shape {pts.shape}")
    amp = psi.values            # lattice axes (q_a, p_a, ...), then grid axes left
    index = []
    for a in reversed(range(d)):                # the contracted axis is the last one
        qs, iq = np.unique(pts[:, a], return_inverse=True)
        ps, ip = np.unique(pts[:, d + a], return_inverse=True)
        index = [iq.reshape(-1), ip.reshape(-1)] + index
        gauss = np.exp(-((qs[:, None] - x[None, :]) ** 2) / (2.0 * hbar))
        kernel = np.exp(-1j * np.outer(x, ps) / hbar)
        rows = amp.reshape(-1, grid.n)
        out = np.empty((len(qs), len(rows), len(ps)), dtype=complex)
        step = max(1, len(qs) // len(rows))
        for i in range(0, len(qs), step):           # one block alive at a time
            out[i:i + step] = ((gauss[i:i + step, None, :] * rows).reshape(-1, grid.n)
                               @ kernel).reshape(-1, len(rows), len(ps))
        amp = np.moveaxis(out.reshape(len(qs), *amp.shape[:-1], len(ps)), -1, 1)
    amp = np.abs(amp * grid.cell_volume * (np.pi * hbar) ** (-d / 4)) ** 2
    return amp[tuple(index)]


def _trapezoid_weights(axis: Array) -> Array:
    axis = np.asarray(axis, dtype=float)
    if axis.size == 1:
        return np.ones(1)
    w = np.empty(axis.size)
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


def _trapezoid(values: Array, axes: Sequence[Array]) -> float:
    """Trapezoid rule on the lattice of ``axes`` (``values`` shaped by them):
    each axis's weights contract the leading axis in turn, so in dim 1 this
    is w_q @ values @ w_p."""
    total = values
    for ax in axes:
        total = _trapezoid_weights(ax) @ total.reshape(len(ax), -1)
    return float(total[0])


# The most nodes of the Husimi quadrature's lattice on K and its half-spacing
# refinement together: at 3 * 10^6 nodes the 2-D quadrature peaks at about
# 390 MB and takes about 1.7 s on a 512^2 grid on a 2-core box (about 105 B
# per node of the finer lattice)
MAX_HUSIMI_NODES = 3 * 10 ** 6


# The most bytes of the tables of one _overlap_sq_points call (overlap_bytes),
# which the count predicts to within 10% of the measured peak: at 1.5 GiB, a
# 1-D lattice of 32000 x 2 nodes on 2048 points peaks at about 1.6 GB and takes
# 1.5 s on a 2-core box, and a 2-D one of (2, 560) x (2, 360) nodes on 128^2
# points (1.2 GiB counted) at 1.36 GB in 2.5 s
MAX_OVERLAP_BYTES = 3 * 2 ** 29


def overlap_bytes(counts: Sequence[tuple[float, float]], n: int) -> float:
    """The most bytes ``_overlap_sq_points`` holds at once in its tables on
    a lattice of ``counts`` = (distinct q, distinct p) nodes per axis and a
    grid of n nodes per axis, without building them: while an axis is
    contracted, its input (twice: the last output and its rows, copied when
    not contiguous), Gaussian table, plane-wave kernel, product block and
    output."""
    most, rows = 0.0, float(n) ** (len(counts) - 1)
    for q, p in reversed([(float(q), float(p)) for q, p in counts]):
        block = max(q, rows)            # Gaussian rows times input rows, per block
        held = 32 * rows * n + 8 * q * n + 16 * n * p + 16 * block * (n + p) + 16 * q * rows * p
        most, rows = max(most, held), q * rows * p / n
    return most


def quadrature_spacing(hbar: float) -> float:
    """The spacing of the Husimi quadrature's lattice on K at hbar: sqrt(hbar)/5."""
    return math.sqrt(hbar) / 5.0


def quadrature_nodes(K: CompactSet, hbar: float) -> float:
    """The node count of ``husimi_mass_refined``'s two lattices on K at
    hbar, without building them."""
    h = quadrature_spacing(hbar)
    return K.sample_size(h) + K.sample_size(h / 2.0)


def quadrature_bytes(K: CompactSet, hbar: float, n: int) -> float:
    """The ``overlap_bytes`` of ``husimi_mass_refined`` on K at hbar, on a
    grid of n nodes per axis: the most of any box at either spacing."""
    h, d = quadrature_spacing(hbar), K.dim
    return max(overlap_bytes([(lattice_size(*box[a], s), lattice_size(*box[d + a], s))
                              for a in range(d)], n)
               for box in K.boxes for s in (h, h / 2.0))


def husimi_mass(psi: WaveFunction, K: CompactSet, spacing: float) -> float:
    """Quadrature of the Husimi density over the compact phase-space set K,
    on a lattice of the given spacing."""
    if K.dim != psi.grid.dim:
        raise ValueError("K and psi have different dimensions")
    total = 0.0
    for box in K.boxes:
        if np.any(box[:, 1] <= box[:, 0]):
            continue                  # zero phase-space volume, contributes nothing
        axes = [lattice_axis(lo, hi, spacing) for lo, hi in box]
        vals = _overlap_sq_points(psi, lattice_points(axes))
        total += _trapezoid(vals.reshape([len(ax) for ax in axes]), axes)
    return total / (2.0 * np.pi * psi.hbar) ** psi.grid.dim


def husimi_mass_refined(psi: WaveFunction, K: CompactSet) -> tuple[float, float]:
    """(value, |value - value at half spacing|) at the quadrature spacing,
    for the error budget."""
    h = quadrature_spacing(psi.hbar)
    coarse = husimi_mass(psi, K, h)
    fine = husimi_mass(psi, K, h / 2.0)
    return coarse, abs(coarse - fine)


# ---------------------------------------------------------------------------
# Toeplitz states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure on phase space: (m, 2*dim)
    points, and weights normalized to sum 1 (w / fsum(w))."""

    points: Array
    weights: Array

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(pts) != len(w) or len(pts) == 0:
            raise ValueError("points and weights must be nonempty and match")
        if pts.shape[1] % 2 != 0:
            raise ValueError("points must have 2*dim phase coordinates")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(w < 0):
            raise ValueError("negative weight")
        try:
            s = math.fsum(w.tolist())
        except OverflowError:               # a partial sum above the float range
            s = math.inf
        if not 0 < s < math.inf:
            raise ValueError("weights must have a finite positive total")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w / s)

    @property
    def dim(self) -> int:
        return self.points.shape[1] // 2

    def second_moment(self, lam: float) -> float:
        """sum_i w_i (lam^2 |x_i|^2 + |xi_i|^2)."""
        d = self.dim
        x2 = np.sum(self.points[:, :d] ** 2, axis=1)
        xi2 = np.sum(self.points[:, d:] ** 2, axis=1)
        return float(np.sum(self.weights * (lam ** 2 * x2 + xi2)))


@dataclass(frozen=True)
class ToeplitzState:
    """Toeplitz quantization of an atomic symbol at hbar: the mixture of the
    coherent states at the symbol's points, with its weights."""

    symbol: AtomicMeasure
    hbar: float

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be finite and positive, got {self.hbar!r}")

    def atom_state(self, j: int, grid: Grid) -> WaveFunction:
        d, atom = self.symbol.dim, self.symbol.points[j]
        return quantum.coherent_state(grid, self.hbar, atom[:d], atom[d:])


def uniform_atomization(K: CompactSet, per_axis: int) -> tuple[Array, Array]:
    """Cell-center lattice atomizing the uniform density on K.

    Returns (points, weights): per_axis^(2 dim) atoms per box at cell centers
    (strictly inside K), weighted by the phase-space volume each cell carries.
    """
    if per_axis < 1:
        raise ValueError("per_axis must be at least 1")
    pts, ws = [], []
    for box in K.boxes:
        axes = []
        vol = 1.0
        for lo, hi in box:
            step = (hi - lo) / per_axis
            axes.append(lo + step * (np.arange(per_axis) + 0.5))
            vol *= max(hi - lo, 0.0)
        block = lattice_points(axes)
        pts.append(block)
        ws.append(np.full(len(block), vol / len(block)))
    points = np.concatenate(pts)
    weights = np.concatenate(ws)
    total = weights.sum()
    if total <= 0:
        raise ValueError("K has zero phase-space volume; nothing to atomize")
    return points, weights / total


def toeplitz_from_density(f_atoms: Sequence, hbar: float) -> ToeplitzState:
    """Atomized phase-space density [(q, p, weight), ...] -> Toeplitz state."""
    pts, ws = [], []
    for entry in f_atoms:
        q, p, w = entry
        pts.append(np.concatenate([np.atleast_1d(np.asarray(q, float)),
                                   np.atleast_1d(np.asarray(p, float))]))
        ws.append(float(w))
    return ToeplitzState(AtomicMeasure(np.array(pts), np.array(ws)), hbar)

