"""Potentials V with gradients and certified Lipschitz bounds for the gradient.

A potential carries an explicit working box and a closed-form bound
``lip_on_box`` for the Lipschitz constant of its force field on any box; its
``lip_grad`` is that bound on the working box.  The bound is always
analytic, so it never depends on sampling luck: sampled difference quotients
serve only as a test oracle for it.

The built-ins (``free_particle``, ``harmonic``, ``double_well``) are all
radial, V(x) = f(|x|^2) with f of degree at most 2 in t = |x|^2 - c: f = 0,
f = k |x|^2 / 2, and f = t^2 with c = 1.  One private class computes the
value, the gradient 2 f'(|x|^2) x and the range of the Hessian's eigenvalues
on a box from the two coefficients of f', and ``lip_on_box`` is the larger
modulus of that range.  ``value_fn`` and ``grad_fn`` take (m, dim) position
arrays unchecked, and ``scenario.build_potential`` reads a config's
``potential``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

Array = np.ndarray


def _box_array(box, dim: int) -> Array:
    """A box spec as a (dim, 2) array of (lo, hi) rows with lo <= hi; a
    (lo, hi) pair stands for the same interval on every axis."""
    b = np.asarray(box, dtype=float)
    if b.ndim == 1:
        if b.size != 2:
            raise ValueError("1-d box must be a (lo, hi) pair")
        b = np.tile(b, (dim, 1))
    if b.shape != (dim, 2):
        raise ValueError(f"box must have shape ({dim}, 2), got {b.shape}")
    if np.any(b[:, 0] > b[:, 1]):
        raise ValueError("box has lo > hi")
    return b


@dataclass(frozen=True)
class Potential:
    """A C^{1,1} potential with gradient and a certified Lipschitz bound for it.

    value_fn / grad_fn act on (m, dim) position arrays.  ``lip_on_box`` maps
    a (dim, 2) box to an analytic upper bound for the Lipschitz constant of
    the gradient there; it is the only source of the bound.
    """

    name: str
    dim: int
    value_fn: Callable[[Array], Array]
    grad_fn: Callable[[Array], Array]
    working_box: Array
    lip_on_box: Callable[[Array], float]

    @property
    def lip_grad(self) -> float:
        """The Lipschitz bound of the gradient on ``working_box``."""
        return float(self.lip_on_box(self.working_box))

    def with_box(self, box) -> "Potential":
        """Same potential on a different working box (and so its bound)."""
        return replace(self, working_box=_box_array(box, self.dim))

    def inside_box(self, x: Array) -> Array:
        """Whether each row of an (m, dim) position array lies in ``working_box``."""
        lo, hi = self.working_box[:, 0], self.working_box[:, 1]
        return np.all((x >= lo) & (x <= hi), axis=-1)


@dataclass(frozen=True)
class _Radial:
    """V(x) = f(|x|^2) held by the coefficients of g = 2 f', affine in
    t = |x|^2 - c: g = g0 + g1 t, so f = g0 t / 2 + g1 t^2 / 4 and
    grad V(x) = g x.  Holding g rather than f keeps the harmonic force k x
    exact for every k: 2 (k / 2) x loses an odd subnormal k's last bit.

    Its bound methods are a Potential's functions, and pickle with it into
    worker processes.
    """

    g0: float
    g1: float = 0.0
    c: float = 0.0

    def value(self, p: Array) -> Array:
        t = np.sum(p * p, axis=-1) - self.c
        return t * (0.5 * self.g0 + 0.25 * self.g1 * t)

    def grad(self, p: Array) -> Array:
        # Verlet calls this twice per step: no array pass for a zero term
        if not self.g1:
            return self.g0 * p if self.g0 else np.zeros_like(p)
        g = self.g1 * (np.sum(p * p, axis=-1, keepdims=True) - self.c)
        return (g + self.g0 if self.g0 else g) * p

    def hessian_range(self, box: Array) -> tuple[float, float]:
        """The least and the greatest eigenvalue of V's Hessian on a (dim, 2) box.

        The Hessian g I + 2 g1 x x^T has the eigenvalues g across x (dim - 1
        times) and g + 2 g1 |x|^2 along x.  Both are affine in s = |x|^2,
        a + b s with a = g at s = 0, so on the box they range between their
        values at the ends of the range [s_min, s_max] of s.
        """
        lo, hi = box[:, 0], box[:, 1]
        # an axis whose interval holds 0 adds nothing to the least s
        nearest = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        with np.errstate(over="ignore"):        # an s past the largest float is +inf
            s_max = float(np.sum(np.maximum(np.abs(lo), np.abs(hi)) ** 2))
            s_min = float(np.sum(nearest ** 2))
        # a + b s rounds as the double well's closed forms 12 s - 4 and 4 (s - 1)
        a = self.g0 - self.g1 * self.c
        slopes = [3.0 * self.g1] if len(box) == 1 else [3.0 * self.g1, self.g1]
        # a zero slope leaves s out: 0 * inf is NaN on an unbounded box
        ends = [a + b * s if b else a for b in slopes for s in (s_min, s_max)]
        return min(ends), max(ends)

    def lip_on_box(self, box: Array) -> float:
        lo, hi = self.hessian_range(box)
        return max(abs(lo), abs(hi))


def _radial(name: str, f: _Radial, dim: int, box) -> Potential:
    return Potential(name=name, dim=dim, value_fn=f.value, grad_fn=f.grad,
                     working_box=_box_array(box, dim), lip_on_box=f.lip_on_box)


def free_particle(dim: int = 1, box=(-8.0, 8.0)) -> Potential:
    """V = 0: no force, so its Lipschitz constant is 0."""
    return _radial("free", _Radial(0.0), dim, box)


def harmonic(stiffness: float = 1.0, dim: int = 1, box=(-8.0, 8.0)) -> Potential:
    """V(x) = k |x|^2 / 2 with k = stiffness, so the force field k x has
    Lipschitz constant |k| (a negative k is an inverted oscillator)."""
    return _radial("harmonic", _Radial(float(stiffness)), dim, box)


def double_well(dim: int = 1, box=(-2.0, 2.0)) -> Potential:
    """V(x) = (|x|^2 - 1)^2 with wells on the unit sphere and a barrier at the origin."""
    return _radial("double_well", _Radial(0.0, 4.0, 1.0), dim, box)
