"""Closed forms and reference transforms that the tests check the package
against: the Wigner transform (the Husimi density is its heat-kernel
smoothing), the Husimi density on a (q, p) lattice, the coherent-state
overlap and the Husimi mass of a coherent state on a union of boxes, and the
classical energy (the Verlet flow's drift test).  No command runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from obscert.classical import CompactSet
from obscert.phasespace import coherent_overlaps
from obscert.potentials import Potential
from obscert.quantum import WaveFunction

Array = np.ndarray


@dataclass(frozen=True)
class HusimiField:
    """Nonnegative phase-space density on a rectangular (q, p) lattice (dim 1)."""

    q_axis: Array
    p_axis: Array
    values: Array
    hbar: float

    def integral(self) -> float:
        """Trapezoid rule over the lattice, the p axis first."""
        return float(np.trapezoid(np.trapezoid(self.values, self.p_axis, axis=1), self.q_axis))


def husimi(psi: WaveFunction, q_axis: Array, p_axis: Array) -> HusimiField:
    """Husimi density |<q,p|psi>|^2/(2 pi hbar) sampled on a phase lattice (dim 1)."""
    q_axis, p_axis = np.asarray(q_axis, float), np.asarray(p_axis, float)
    return HusimiField(q_axis, p_axis,
                       coherent_overlaps(psi, q_axis, p_axis) / (2.0 * np.pi * psi.hbar),
                       psi.hbar)


class SpectralBandError(ValueError):
    """Requested momenta exceed the band representable on the spatial grid."""


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


def coherent_overlap_sq(hbar: float, q1, p1, q2, p2) -> float:
    """Closed-form |<q1,p1|q2,p2>|^2 = exp(-(|q1-q2|^2+|p1-p2|^2)/(2 hbar))."""
    dq = np.atleast_1d(np.asarray(q1, float)) - np.atleast_1d(np.asarray(q2, float))
    dp = np.atleast_1d(np.asarray(p1, float)) - np.atleast_1d(np.asarray(p2, float))
    return float(np.exp(-(np.sum(dq ** 2) + np.sum(dp ** 2)) / (2.0 * hbar)))


def coherent_husimi_mass(K: CompactSet, hbar: float, center_q, center_p) -> float:
    """Exact mass on K of the Husimi density of the coherent state at
    (center_q, center_p): a Gaussian of variance hbar per phase coordinate,
    so an erf product per box (the oracle for ``husimi_mass``)."""
    center = np.concatenate([np.atleast_1d(np.asarray(center_q, float)),
                             np.atleast_1d(np.asarray(center_p, float))])
    s = math.sqrt(2.0 * hbar)
    return sum(math.prod(0.5 * (math.erf((hi - c) / s) - math.erf((lo - c) / s))
                         for (lo, hi), c in zip(box, center)) for box in K.boxes)


def hamiltonian(V: Potential, x: Array, xi: Array) -> Array:
    x2 = np.atleast_2d(x)
    return 0.5 * np.sum(np.atleast_2d(xi) ** 2, axis=-1) + V.value_fn(x2)
