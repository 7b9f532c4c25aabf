"""Potentials V with gradients and certified Lipschitz bounds for the gradient.

A potential carries an explicit working box; the Lipschitz constant of the
force field is certified on that box (analytically for built-ins, by dense
sampling otherwise).  Flows and certificates consume ``lip_grad``, so the
bound must never depend on sampling luck: built-ins override the sampled
estimate with a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


def saturating_square(x: float) -> float:
    """x ** 2, or +inf where the square overflows (float ** raises there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def saturating_exp(x: float) -> float:
    """math.exp(x), or +inf where it overflows (math.exp raises there)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _box_array(box, dim: int) -> Array:
    """Normalize a box spec to shape (dim, 2) with lo < hi allowed degenerate."""
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


def _points(x, dim: int) -> Array:
    """Coerce input to an (m, dim) array of positions."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError("scalar position given for a multi-dimensional potential")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if a.size == dim:
            return a.reshape(1, dim)
        if dim == 1:
            return a.reshape(-1, 1)
        raise ValueError(f"cannot interpret shape {a.shape} as points in dim {dim}")
    if a.shape[-1] != dim:
        raise ValueError(f"last axis must have length {dim}")
    return a.reshape(-1, dim)


@dataclass(frozen=True)
class Potential:
    """A C^{1,1} potential with gradient and a certified Lipschitz bound for it.

    value_fn / grad_fn act on (m, dim) position arrays.  ``lip_grad`` is an
    upper bound for the Lipschitz constant of the gradient on ``working_box``;
    ``lip_on_box``, when present, returns the analytic bound for an arbitrary
    box and is what certification should trust.
    """

    name: str
    dim: int
    value_fn: Callable[[Array], Array]
    grad_fn: Callable[[Array], Array]
    lip_grad: float
    working_box: Array
    lip_on_box: Optional[Callable[[Array], float]] = None

    def value(self, x):
        pts = _points(x, self.dim)
        out = np.asarray(self.value_fn(pts), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"potential '{self.name}' is not finite at some of {pts}")
        if np.asarray(x).ndim <= 1 and np.asarray(x).size <= self.dim:
            return float(out[0])
        return out

    def gradient(self, x):
        pts = _points(x, self.dim)
        out = np.asarray(self.grad_fn(pts), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"gradient of '{self.name}' is not finite at some of {pts}")
        a = np.asarray(x)
        if a.ndim == 0:
            return float(out[0, 0])
        if a.ndim == 1 and a.size == self.dim:
            return out[0]
        return out.reshape(np.broadcast_shapes(a.shape, (len(pts), self.dim)))

    def with_box(self, box) -> "Potential":
        """Same potential on a different working box, with the bound recertified."""
        b = _box_array(box, self.dim)
        lip = self.lip_on_box(b) if self.lip_on_box is not None else self.lip_grad
        return replace(self, working_box=b, lip_grad=float(lip))

    def inside_box(self, x) -> Array:
        pts = _points(x, self.dim)
        lo, hi = self.working_box[:, 0], self.working_box[:, 1]
        return np.all((pts >= lo) & (pts <= hi), axis=-1)


# The built-ins use module-level functions (bound with functools.partial) rather
# than lambdas, so that a Potential pickles into worker processes.

def _constant_lip(value: float, _box: Array) -> float:
    return value


def _free_value(p: Array) -> Array:
    return np.zeros(len(p))


def _free_grad(p: Array) -> Array:
    return np.zeros_like(p)


def free_particle(dim: int = 1, box=(-8.0, 8.0)) -> Potential:
    b = _box_array(box, dim)
    return Potential(
        name="free",
        dim=dim,
        value_fn=_free_value,
        grad_fn=_free_grad,
        lip_grad=0.0,
        working_box=b,
        lip_on_box=partial(_constant_lip, 0.0),
    )


def _harmonic_value(k: float, p: Array) -> Array:
    return 0.5 * k * np.sum(p * p, axis=-1)


def _harmonic_grad(k: float, p: Array) -> Array:
    return k * p


def harmonic(stiffness: float = 1.0, dim: int = 1, box=(-8.0, 8.0)) -> Potential:
    """V(x) = k |x|^2 / 2 with k = stiffness, so the force field k x has
    Lipschitz constant |k| (a negative k is an inverted oscillator)."""
    k = float(stiffness)
    b = _box_array(box, dim)
    return Potential(
        name="harmonic",
        dim=dim,
        value_fn=partial(_harmonic_value, k),
        grad_fn=partial(_harmonic_grad, k),
        lip_grad=abs(k),
        working_box=b,
        lip_on_box=partial(_constant_lip, abs(k)),
    )


def _double_well_lip(box: Array) -> float:
    # Hessian of (|x|^2-1)^2 is 4(|x|^2-1)I + 8 x x^T; its spectral norm on a box
    # is max(|12 r^2 - 4|, |4(r^2 - 1)|) over the attained radii r.
    lo, hi = box[:, 0], box[:, 1]
    r2_max = float(np.sum(np.maximum(np.abs(lo), np.abs(hi)) ** 2))
    contains_zero = bool(np.all((lo <= 0.0) & (0.0 <= hi)))
    r2_min = 0.0 if contains_zero else float(np.sum(np.minimum(np.abs(lo), np.abs(hi)) ** 2))
    candidates = [abs(12.0 * r2 - 4.0) for r2 in (r2_min, r2_max)]
    candidates += [abs(4.0 * (r2 - 1.0)) for r2 in (r2_min, r2_max)]
    # |12 r^2 - 4| dips to zero inside (r2_min, r2_max) when 1/3 lies in range
    if r2_min < 1.0 / 3.0 < r2_max:
        candidates.append(abs(4.0 * (1.0 / 3.0 - 1.0)))
    return max(candidates)


def _double_well_value(p: Array) -> Array:
    return (np.sum(p * p, axis=-1) - 1.0) ** 2


def _double_well_grad(p: Array) -> Array:
    return 4.0 * (np.sum(p * p, axis=-1, keepdims=True) - 1.0) * p


def double_well(dim: int = 1, box=(-2.0, 2.0)) -> Potential:
    """V(x) = (|x|^2 - 1)^2 with wells on the unit sphere and a barrier at the origin."""
    b = _box_array(box, dim)
    return Potential(
        name="double_well",
        dim=dim,
        value_fn=_double_well_value,
        grad_fn=_double_well_grad,
        lip_grad=_double_well_lip(b),
        working_box=b,
        lip_on_box=_double_well_lip,
    )


_BUILTINS = {
    "free": lambda cfg, dim, box: free_particle(dim=dim, box=box),
    "harmonic": lambda cfg, dim, box: harmonic(
        stiffness=float(cfg.get("stiffness", 1.0)), dim=dim, box=box
    ),
    "double_well": lambda cfg, dim, box: double_well(dim=dim, box=box),
}


def from_config(cfg: dict) -> Potential:
    """Build a potential from a JSON-style config: {"kind": ..., "dim": ..., "box": ...}."""
    kind = cfg.get("kind")
    if kind not in _BUILTINS:
        raise ValueError(
            f"potential.kind: unknown '{kind}' (expected one of {sorted(_BUILTINS)})"
        )
    dim = int(cfg.get("dim", 1))
    if dim not in (1, 2):
        raise ValueError("potential.dim: only dimensions 1 and 2 are supported")
    box = cfg.get("box", (-8.0, 8.0) if kind != "double_well" else (-2.0, 2.0))
    return _BUILTINS[kind](cfg, dim, _box_array(box, dim))


def estimate_lip_grad(V: Potential, box=None, n_samples: int = 4096, rng=None) -> float:
    """Upper estimate of Lip(grad V) on a box.

    Max of |grad V(a) - grad V(b)| / |a - b| over sampled pairs (a dense lattice
    of consecutive pairs plus random pairs), overridden by the analytic bound
    when the potential carries one.  Monotone in the box by construction.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    b = _box_array(box if box is not None else V.working_box, V.dim)
    extent = b[:, 1] - b[:, 0]
    if np.all(extent == 0):
        sampled = 0.0
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        per_axis = max(2, int(round(n_samples ** (1.0 / V.dim))))
        axes = [np.linspace(b[i, 0], b[i, 1], per_axis) for i in range(V.dim)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, V.dim)
        grads = V.gradient(mesh).reshape(-1, V.dim)
        ratios = []
        for shift in range(1, V.dim + 1):
            da = mesh[shift:] - mesh[:-shift]
            dg = grads[shift:] - grads[:-shift]
            dist = np.linalg.norm(da, axis=-1)
            ok = dist > 0
            ratios.append(np.linalg.norm(dg[ok], axis=-1) / dist[ok])
        pa = b[:, 0] + rng.random((n_samples, V.dim)) * extent
        pb = b[:, 0] + rng.random((n_samples, V.dim)) * extent
        dist = np.linalg.norm(pa - pb, axis=-1)
        ok = dist > 1e-12
        dg = V.gradient(pa[ok]).reshape(-1, V.dim) - V.gradient(pb[ok]).reshape(-1, V.dim)
        ratios.append(np.linalg.norm(dg, axis=-1) / dist[ok])
        sampled = float(max(r.max() if r.size else 0.0 for r in ratios))
    if V.lip_on_box is not None:
        return max(sampled, float(V.lip_on_box(b)))
    return sampled
