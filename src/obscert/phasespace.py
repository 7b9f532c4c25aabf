"""Phase-space representations: Wigner and Husimi transforms, Toeplitz states.

The Husimi density is computed directly from coherent-state overlaps on the
spatial grid (unconditionally nonnegative); the smoothing identity relating it
to the Wigner transform is kept as a cross-check in the test suite.  Toeplitz
states are finite nonnegative mixtures of coherent atoms, so their evolution
reduces to independent pure-state propagations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classical import CompactSet, lattice_axis, lattice_points
from . import quantum
from .quantum import Grid, WaveFunction

Array = np.ndarray


class SpectralBandError(ValueError):
    """Requested momenta exceed the band representable on the spatial grid."""


# ---------------------------------------------------------------------------
# Wigner transform (dim 1)
# ---------------------------------------------------------------------------

def wigner(psi: WaveFunction, x_axis: Array, xi_axis: Array) -> Array:
    """Wigner field W(x, xi) on x_axis x xi_axis; real, possibly negative.

    x_axis entries must coincide with grid nodes.  xi values must stay within
    half the spectral band, |xi| <= pi hbar / (2 dx).  The correlation offset
    is truncated at a quarter box, which suppresses the periodic mirror ghost
    at x +- L/2 for states localized well inside the box.  Only dim 1 is
    supported; the 2-d transform is a 4-d field whose cost is out of desk scale.
    """
    grid = psi.grid
    if grid.dim != 1:
        raise NotImplementedError("wigner fields are implemented for dim 1 only")
    hbar = psi.hbar
    dx = grid.dx
    xi = np.asarray(xi_axis, dtype=float)
    band = np.pi * hbar / (2.0 * dx)
    if np.any(np.abs(xi) > band + 1e-12):
        raise SpectralBandError(f"|xi| must stay below pi*hbar/(2 dx) = {band:.6g}")
    idx = np.rint((np.asarray(x_axis, dtype=float) - grid.axis[0]) / dx).astype(int)
    if np.any(np.abs(grid.axis[idx % grid.n] - np.asarray(x_axis)) > 1e-9):
        raise ValueError("x_axis entries must lie on grid nodes")

    n = grid.n
    m = np.arange(n)
    u = (m - np.where(m >= n // 2, n, 0)) * dx        # signed periodic offsets
    keep = np.abs(u) <= 0.25 * grid.length
    m, u = m[keep], u[keep]
    plus = (idx[:, None] + m[None, :]) % n
    minus = (idx[:, None] - m[None, :]) % n
    corr = psi.values[plus] * np.conj(psi.values[minus])
    kernel = np.exp(-2j * np.outer(u, xi) / hbar)
    return np.real(corr @ kernel) * dx / (np.pi * hbar)


# ---------------------------------------------------------------------------
# Husimi transform
# ---------------------------------------------------------------------------

def coherent_overlaps(psi: WaveFunction, q_nodes: Array, p_nodes: Array) -> Array:
    """|<q,p|psi>|^2 for all pairs from q_nodes x p_nodes (dim 1 fast path).

    q_nodes, p_nodes are 1-d arrays; the result has shape (len(q), len(p)).
    """
    grid = psi.grid
    if grid.dim != 1:
        raise NotImplementedError("use husimi_mass for dim 2 sets")
    hbar = psi.hbar
    x = grid.axis
    gauss = np.exp(-((q_nodes[:, None] - x[None, :]) ** 2) / (2.0 * hbar))
    weighted = gauss * psi.values[None, :]
    kernel = np.exp(-1j * np.outer(x, p_nodes) / hbar)
    amp = (weighted @ kernel) * grid.dx * (np.pi * hbar) ** (-0.25)
    return np.abs(amp) ** 2


def _bra_factor(axis: Array, q: Array, p: Array, hbar: float) -> Array:
    """Per-axis factor of the conjugated coherent bra, sans the q.p phase
    (which cancels in |.|^2): rows are points, columns grid nodes."""
    diff = axis[None, :] - q[:, None]
    return np.exp(-(diff ** 2) / (2.0 * hbar) - 1j * p[:, None] * axis[None, :] / hbar)


def _overlap_sq_points(psi: WaveFunction, phase_points: Array) -> Array:
    """|<q,p|psi>|^2 at arbitrary phase points (m, 2*dim); any dimension.

    The coherent bra factorizes across axes, and each axis factor depends on
    that axis's (q, p) pair alone.  So each factor is built once per distinct
    pair, the first axis is contracted with the values once per distinct
    pair, and each point then sums the product of its two rows: the same
    sums, in the same order, as a matrix sandwich g1 @ values @ g2 per point.
    """
    grid = psi.grid
    d = grid.dim
    pts = np.atleast_2d(np.asarray(phase_points, dtype=float))
    pref = (np.pi * psi.hbar) ** (-d / 4) * grid.cell_volume
    factors, rows = [], []
    for a in range(d):
        pairs, inverse = np.unique(pts[:, [a, d + a]], axis=0, return_inverse=True)
        factors.append(_bra_factor(grid.axis, pairs[:, 0], pairs[:, 1], psi.hbar))
        rows.append(inverse.reshape(-1))
    first = factors[0] @ psi.values
    if d == 1:
        return np.abs(first[rows[0]] * pref) ** 2
    out = np.empty(len(pts))
    chunk = 4096
    for start in range(0, len(pts), chunk):
        i1, i2 = (r[start:start + chunk] for r in rows)
        amp = np.einsum("mn,mn->m", first[i1], factors[1][i2])
        out[start:start + chunk] = np.abs(amp * pref) ** 2
    return out


def coherent_overlap_sq(hbar: float, q1, p1, q2, p2) -> float:
    """Closed-form |<q1,p1|q2,p2>|^2 = exp(-(|q1-q2|^2+|p1-p2|^2)/(2 hbar))."""
    dq = np.atleast_1d(np.asarray(q1, float)) - np.atleast_1d(np.asarray(q2, float))
    dp = np.atleast_1d(np.asarray(p1, float)) - np.atleast_1d(np.asarray(p2, float))
    return float(np.exp(-(np.sum(dq ** 2) + np.sum(dp ** 2)) / (2.0 * hbar)))


@dataclass(frozen=True)
class HusimiField:
    """Nonnegative phase-space density on a rectangular (q, p) lattice (dim 1)."""

    q_axis: Array
    p_axis: Array
    values: Array
    hbar: float

    def integral(self) -> float:
        wq = _trapezoid_weights(self.q_axis)
        wp = _trapezoid_weights(self.p_axis)
        return float(wq @ self.values @ wp)


def _trapezoid_weights(axis: Array) -> Array:
    axis = np.asarray(axis, dtype=float)
    if axis.size == 1:
        return np.ones(1)
    w = np.empty(axis.size)
    w[1:-1] = 0.5 * (axis[2:] - axis[:-2])
    w[0] = 0.5 * (axis[1] - axis[0])
    w[-1] = 0.5 * (axis[-1] - axis[-2])
    return w


def husimi(psi: WaveFunction, q_axis: Array, p_axis: Array) -> HusimiField:
    """Husimi density |<q,p|psi>|^2/(2 pi hbar)^d sampled on a phase lattice."""
    vals = coherent_overlaps(psi, np.asarray(q_axis, float), np.asarray(p_axis, float))
    return HusimiField(np.asarray(q_axis, float), np.asarray(p_axis, float),
                       vals / (2.0 * np.pi * psi.hbar), psi.hbar)


def _husimi_spacing(psi: WaveFunction, spacing: Optional[float]) -> float:
    """The quadrature lattice spacing: ``spacing``, or sqrt(hbar)/5 by default."""
    return math.sqrt(psi.hbar) / 5.0 if spacing is None else spacing


def husimi_mass(psi: WaveFunction, K: CompactSet, spacing: Optional[float] = None) -> float:
    """Quadrature of the Husimi density over the compact phase-space set K."""
    if K.dim != psi.grid.dim:
        raise ValueError("K and psi have different dimensions")
    h = _husimi_spacing(psi, spacing)
    total = 0.0
    d = psi.grid.dim
    for box in K.boxes:
        if np.any(box[:, 1] <= box[:, 0]):
            continue                  # zero phase-space volume, contributes nothing
        axes = [lattice_axis(lo, hi, h) for lo, hi in box]
        weights = [_trapezoid_weights(ax) for ax in axes]
        if d == 1:
            vals = coherent_overlaps(psi, axes[0], axes[1])
            total += float(weights[0] @ vals @ weights[1])
        else:
            # the node weight multiplies its axes' weights left to right
            vals = _overlap_sq_points(psi, lattice_points(axes))
            total += float(np.sum(vals * math.prod(lattice_points(weights).T)))
    return total / (2.0 * np.pi * psi.hbar) ** d


def husimi_mass_refined(psi: WaveFunction, K: CompactSet,
                        spacing: Optional[float] = None) -> tuple[float, float]:
    """(value, |value - value at half spacing|) for the error budget."""
    h = _husimi_spacing(psi, spacing)
    coarse = husimi_mass(psi, K, h)
    fine = husimi_mass(psi, K, h / 2.0)
    return coarse, abs(coarse - fine)


def coherent_tail_check(K: CompactSet, hbar: float, center_q, center_p) -> dict:
    """Compare the Husimi mass of a coherent state on K against the tail
    bound 1 - exp(-d_K^2/(4 hbar))/(4 pi)^d.

    That bound rests on an overlap convention which does not match the
    Gaussian overlap of the coherent states used here, so it can fail; this
    reports both sides and whether the inequality holds rather than silently
    adopting either convention.
    """
    d = K.dim
    q = np.atleast_1d(np.asarray(center_q, float))
    p = np.atleast_1d(np.asarray(center_p, float))
    # exact Gaussian mass of the Husimi density (variance hbar per coordinate)
    from math import erf, sqrt
    mass = 0.0
    for box in K.boxes:
        prod = 1.0
        center = np.concatenate([q, p])
        for (lo, hi), c in zip(box, center):
            a = (lo - c) / sqrt(2.0 * hbar)
            b = (hi - c) / sqrt(2.0 * hbar)
            prod *= 0.5 * (erf(b) - erf(a))
        mass += prod
    claimed = 1.0 - math.exp(-K.diameter ** 2 / (4.0 * hbar)) / (4.0 * math.pi) ** d
    return {"husimi_mass": mass, "claimed_lower_bound": claimed,
            "holds": bool(mass >= claimed)}


# ---------------------------------------------------------------------------
# Toeplitz states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToeplitzState:
    """Nonnegative mixture of coherent atoms: points (m, 2*dim), weights sum 1."""

    atoms: Array
    weights: Array
    hbar: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(pts) != len(w) or len(pts) == 0:
            raise ValueError("atoms and weights must be nonempty and match")
        if pts.shape[1] % 2 != 0:
            raise ValueError("atoms must have 2*dim phase coordinates")
        if np.any(w < 0):
            raise ValueError("negative atom weight")
        s = math.fsum(w.tolist())
        if s <= 0:
            raise ValueError("weights must have positive total")
        object.__setattr__(self, "atoms", pts)
        object.__setattr__(self, "weights", w / s)
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1] // 2

    def atom_state(self, j: int, grid: Grid) -> WaveFunction:
        d = self.dim
        return quantum.coherent_state(grid, self.hbar, self.atoms[j, :d], self.atoms[j, d:])


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
    return ToeplitzState(np.array(pts), np.array(ws), hbar)

