"""Hamiltonian flow, observation regions, occupation times and the geometric constant.

The flow X' = Xi, Xi' = -grad V(X) is integrated with the Stoermer-Verlet
scheme (symplectic, second order).  Occupation times under an indicator
cutoff locate entry/exit events by bisection inside a step so the quadrature
error stays O(dt^2) instead of O(dt); continuous cutoffs use the composite
trapezoid rule.  One pass integrates each trajectory once for any number of
cutoffs.  The infimum over a compact phase-space set K is discretized as a
minimum over a sample lattice, with a refinement delta reported so
certificates stay honest about the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .potentials import Potential
from .quantum import NumericsError, _block_steps, split_steps

Array = np.ndarray


class FlowBlowupError(NumericsError, FloatingPointError):
    """The Verlet flow left the finite numbers (dt too large or a pathological
    potential): a numerical abort, and still a FloatingPointError."""


# ---------------------------------------------------------------------------
# phase-space geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) in position-momentum space; components are (dim,) arrays."""

    x: Array
    xi: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if self.x.shape != self.xi.shape:
            raise ValueError("x and xi must have the same dimension")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.xi))):
            raise ValueError("phase point has non-finite components")

    @property
    def dim(self) -> int:
        return self.x.size


# The most nodes of K's sample lattice and its half-spacing refinement
# together, which one flow pass integrates: at 10^6 nodes in 2-D the pass
# (an indicator and two ramps) peaks at about 330 MB and takes about 0.2 s
# per Verlet step on a 2-core box
MAX_LATTICE_NODES = 10 ** 6


def lattice_size(lo: float, hi: float, h: float) -> float:
    """The node count of ``lattice_axis``(lo, hi, h), without building it:
    +inf where (hi - lo)/h overflows."""
    width = float(hi) - float(lo)           # Python floats overflow to inf silently
    if width <= 0:
        return 1
    n = width / h if h > 0 else math.inf
    return math.inf if math.isinf(n) else max(2, math.ceil(n) + 1)


def lattice_axis(lo: float, hi: float, h: float) -> Array:
    """Equally spaced nodes from lo to hi, both included, at spacing at most
    h; [lo] when the interval is degenerate (hi <= lo)."""
    return np.linspace(lo, hi, lattice_size(lo, hi, h))


def lattice_points(axes: Sequence[Array]) -> Array:
    """Row-major product of the per-coordinate axes; shape (prod of sizes, len(axes))."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _boxes_array(boxes) -> Array:
    """(k, width, 2) boxes of [lo, hi] per coordinate, width the array's own."""
    b = np.asarray(boxes, dtype=float)
    if b.ndim == 2:
        b = b[None, :, :]
    if b.ndim != 3 or b.shape[2] != 2:
        raise ValueError(f"boxes must have shape (k, width, 2), got {b.shape}")
    if np.any(b[:, :, 0] > b[:, :, 1]):
        raise ValueError("box has lo > hi")
    return b


def _boxes_disjoint(b: Array) -> bool:
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            if np.all(b[i, :, 0] < b[j, :, 1]) and np.all(b[j, :, 0] < b[i, :, 1]):
                return False
    return True


@dataclass(frozen=True)
class CompactSet:
    """Finite union of closed phase-space boxes, sampled on a lattice of spacing h.

    boxes: (k, 2*dim, 2) array of [lo, hi] per phase coordinate (positions
    first, then momenta).  The sample grid always contains the box corners.
    """

    boxes: Array
    spacing: float

    def __post_init__(self):
        b = _boxes_array(self.boxes)
        if b.shape[1] % 2 != 0:
            raise ValueError("CompactSet boxes must have shape (k, 2*dim, 2)")
        if len(b) == 0:
            raise ValueError("CompactSet needs at least one box")
        if not _boxes_disjoint(b):
            raise ValueError("CompactSet boxes must have disjoint interiors")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "boxes", b)

    @property
    def dim(self) -> int:
        return self.boxes.shape[1] // 2

    def sample_grid(self, spacing: Optional[float] = None) -> Array:
        """Lattice of phase points covering the set, corners included; shape (m, 2*dim)."""
        h = self.spacing if spacing is None else spacing
        return np.concatenate([lattice_points([lattice_axis(lo, hi, h) for lo, hi in box])
                               for box in self.boxes])

    def sample_size(self, spacing: Optional[float] = None) -> float:
        """The row count of ``sample_grid``(spacing), without building it: a
        float, +inf where it overflows."""
        h = self.spacing if spacing is None else spacing
        return sum(math.prod(float(lattice_size(lo, hi, h)) for lo, hi in box)
                   for box in self.boxes)

    def corners(self) -> Array:
        return np.concatenate([lattice_points(box) for box in self.boxes])

    @property
    def diameter(self) -> float:
        c = self.corners()
        d2 = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    def contains(self, points: Array) -> Array:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(len(p), dtype=bool)
        for box in self.boxes:
            inside |= np.all((p >= box[:, 0]) & (p <= box[:, 1]), axis=-1)
        return inside


@dataclass(frozen=True)
class Region:
    """Open observation region in position space: a union of open boxes.

    ``indicator`` is 'strictly inside some box' (a boundary counts as
    outside) and ``distance`` the Euclidean distance to the closed union.
    The delta-enlargement {x : dist(x, region) < delta} is ``distance <
    delta``, taken where it is measured (``certify._Sweep.measure``).
    """

    boxes: Array

    def __post_init__(self):
        object.__setattr__(self, "boxes", _boxes_array(self.boxes))

    @property
    def dim(self) -> int:
        return self.boxes.shape[1]

    def indicator(self, points) -> Array:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(len(p), dtype=bool)
        for box in self.boxes:
            in_box = np.ones(len(p), dtype=bool)
            for x, (lo, hi) in zip(p.T, box):         # one axis at a time
                in_box &= (x > lo) & (x < hi)
            inside |= in_box
        return inside.astype(float)

    def distance(self, points) -> Array:
        # the squared gaps are summed one axis at a time, in axis order: the
        # bits of np.linalg.norm over the axes, without a reduction over a
        # short axis
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.full(len(p), np.inf)
        for box in self.boxes:
            gaps = [np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
                    for x, (lo, hi) in zip(p.T, box)]
            d2 = gaps[0] * gaps[0]
            for gap in gaps[1:]:
                d2 += gap * gap
            d = np.minimum(d, np.sqrt(d2))
        return d


# ---------------------------------------------------------------------------
# cutoff functions chi: position -> [0, 1]
# ---------------------------------------------------------------------------

class IndicatorCutoff:
    """chi = 1 on the (open) region, 0 outside; discontinuous."""

    is_indicator = True

    def __init__(self, region: Region):
        self.region = region

    def __call__(self, points) -> Array:
        return self.region.indicator(points)


class RampCutoff:
    """chi(x) = (1 - dist(x, region)/delta)_+, Lipschitz with constant 1/delta."""

    is_indicator = False

    def __init__(self, region: Region, delta: float):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.region = region
        self.delta = float(delta)

    def __call__(self, points) -> Array:
        return self.of_distance(self.region.distance(points))

    def of_distance(self, distance: Array) -> Array:
        """chi at points whose ``region.distance`` is given."""
        return np.maximum(0.0, 1.0 - distance / self.delta)


# ---------------------------------------------------------------------------
# Stoermer-Verlet flow
# ---------------------------------------------------------------------------

def verlet_step(V: Potential, x: Array, xi: Array, dt: float | Array):
    """One velocity-Verlet step for batches x, xi of shape (m, dim); dt is a
    float or an (m, 1) array of per-sample step sizes.  ``V.grad_fn`` checks
    nothing, so callers check the new state for finiteness."""
    half = xi - 0.5 * dt * V.grad_fn(x)
    x1 = x + dt * half
    xi1 = half - 0.5 * dt * V.grad_fn(x1)
    return x1, xi1


def flow(V: Potential, p0: PhasePoint, t: float, dt: float) -> PhasePoint:
    """Approximate the time-t flow map applied to p0 (global error O(dt^2))."""
    n, h = split_steps(t, dt)
    x = p0.x[None, :].copy()
    xi = p0.xi[None, :].copy()
    with np.errstate(over="ignore", invalid="ignore"):      # a non-finite end aborts below
        for _ in range(n):
            x, xi = verlet_step(V, x, xi, h)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
        raise FlowBlowupError("flow blew up: dt too large or pathological potential")
    return PhasePoint(x[0], xi[0])


# ---------------------------------------------------------------------------
# occupation times with event bracketing
# ---------------------------------------------------------------------------

def _bisect_crossings(V: Potential, x0: Array, xi0: Array, h: float, chi: IndicatorCutoff,
                      inside_before: Array, tol: float) -> Array:
    """Crossing times s* in (0, h) of the indicator along the steps that start
    at the rows of (x0, xi0), assuming the indicator differs at s=0 and s=h.
    Each row takes the bisection sequence a one-crossing loop would take."""
    lo = np.zeros(len(x0))
    hi = np.full(len(x0), h)
    active = hi - lo > tol
    while active.any():
        mid = 0.5 * (lo + hi)
        xm, _ = verlet_step(V, x0, xi0, mid[:, None])
        keep = (chi(xm) > 0.5) == inside_before
        lo = np.where(active & keep, mid, lo)
        hi = np.where(active & ~keep, mid, hi)
        active = hi - lo > tol
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OccupationResult:
    points: Array            # (m, 2*dim) initial phase points
    occupation: Array        # (m, k) time spent weighted by each of the k cutoffs
    first_hit: Array         # (m, k) first time with chi > 0, t = 0 included (nan if never)
    left_box: Array          # (m,) trajectory left the potential's working box
    hull: Array              # (m, dim, 2) per-axis [min, max] of the trajectory's positions


def occupation_batch(V: Potential, points: Array, T: float,
                     chi: Sequence[IndicatorCutoff | RampCutoff],
                     dt: float) -> OccupationResult:
    """Integrate all trajectories once; accumulate int_0^T chi(X(t)) dt per
    sample and per cutoff, each column equal to a one-cutoff pass bit for bit.

    Indicator cutoffs get exact crossing splits (bisection to dt*1e-3);
    smooth cutoffs use trapezoid weights at the integrator substeps.  Only the
    Verlet step and each cutoff's running time-ordered sum run once per step;
    the finiteness check, cutoffs and bisections run once per block of steps,
    whose positions and momenta fill the propagator's block budget.  Each
    block reads every cutoff on its start state and its steps, so t = 0 is
    read with the first block.  The ramp cutoffs on one region object share
    one distance to it per block.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, dim = len(pts), pts.shape[1] // 2
    n, h = split_steps(T, dt)
    tol = h * 1e-3
    nb = _block_steps(16 * max(m, 1) * dim, n)
    # row 0 holds the state at the block's start time ts[0]; row i the state
    # after i steps, at ts[i]
    X = np.empty((nb + 1, m, dim))
    XI = np.empty((nb + 1, m, dim))
    ts = np.empty(nb + 1)
    X[0], XI[0] = pts[:, :dim], pts[:, dim:]
    x, xi = X[0], XI[0]
    occ = np.zeros((m, len(chi)))
    first_hit = np.full(occ.shape, np.nan)
    hull = np.stack([x, x], axis=-1)
    regions = {id(c.region): c.region for c in chi if not c.is_indicator}

    t = 0.0
    done = 0
    # Overflow warnings are silent: a state that overflows fails the finiteness
    # check and aborts, and a finite state so far out that its distance to a
    # region overflows has cutoff value 0 either way.
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n:
            b = min(nb, n - done)
            ts[0] = t
            for i in range(1, b + 1):
                x, xi = verlet_step(V, x, xi, h)
                X[i], XI[i] = x, xi
                t += h
                ts[i] = t
            done += b
            path = X[1:b + 1]
            if not (np.isfinite(path).all() and np.isfinite(XI[1:b + 1]).all()):
                raise FlowBlowupError("flow blew up: dt too large or pathological potential")
            np.minimum(hull[..., 0], path.min(axis=0), out=hull[..., 0])
            np.maximum(hull[..., 1], path.max(axis=0), out=hull[..., 1])
            flat = X[:b + 1].reshape(-1, dim)
            dist = {key: region.distance(flat) for key, region in regions.items()}
            for j, c in enumerate(chi):
                if c.is_indicator:
                    inside = (c(flat) > 0.5).reshape(b + 1, m)
                    first_hit[np.isnan(first_hit[:, j]) & inside[0], j] = ts[0]
                    inc = np.where(inside[:-1] & inside[1:], h, 0.0)
                    k, i = np.nonzero(inside[:-1] != inside[1:])     # step-major order
                    if len(k):
                        before = inside[k, i]
                        s = _bisect_crossings(V, X[k, i], XI[k, i], h, c, before, tol)
                        inc[k, i] = np.where(before, s, h - s)   # exits / enters at t_k + s
                        # earliest entry per sample: its first occurrence in step-major order
                        enter = ~before
                        i_in, first = np.unique(i[enter], return_index=True)
                        hit = ts[k[enter][first]] + s[enter][first]
                        fresh = np.isnan(first_hit[i_in, j])
                        first_hit[i_in[fresh], j] = hit[fresh]
                else:
                    v = c.of_distance(dist[id(c.region)]).reshape(b + 1, m)
                    inc = 0.5 * h * (v[:-1] + v[1:])
                    positive = v > 0
                    fresh = np.isnan(first_hit[:, j]) & positive.any(axis=0)
                    first_hit[fresh, j] = ts[positive.argmax(axis=0)[fresh]]
                # add the steps in time order (np.sum would pair them)
                acc = occ[:, j]
                for row in inc:
                    acc += row
            X[0], XI[0] = X[b], XI[b]

    np.clip(occ, 0.0, T, out=occ)
    left_box = ~(V.inside_box(hull[..., 0]) & V.inside_box(hull[..., 1]))
    return OccupationResult(points=pts, occupation=occ, first_hit=first_hit,
                            left_box=left_box, hull=hull)


# ---------------------------------------------------------------------------
# the hbar-independent side of a certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricSummary:
    """The problem (V, K, omega, T, deltas), which certificates read from
    here only, and what they take from the flow over K's sample lattice."""

    V: Potential
    K: CompactSet
    omega: Region
    T: float
    deltas: tuple
    c_geo: float                 # min occupation time of omega (indicator)
    c_geo_refine_delta: float    # |c_geo - the same min on the half-spacing lattice|
    gc_satisfied: bool           # every sample is in omega at some t < T (t = 0 counts)
    chi_geo: tuple               # min ramp-cutoff occupation time, per delta
    left_box: bool               # some trajectory left V's working box
    hull: Array                  # (dim, 2) per-axis [min, max] of all trajectories' positions
    lip: float                   # Lipschitz bound of grad V wherever the trajectories go
    table: OccupationResult      # the indicator pass (one cutoff column)


def flow_nodes(K: CompactSet) -> float:
    """The node count of ``geometric_summary``'s flow pass: K's sample
    lattice and its half-spacing refinement, without building them."""
    return K.sample_size() + K.sample_size(K.spacing / 2)


def geometric_summary(V: Potential, K: CompactSet, omega: Region, T: float,
                      deltas: Sequence[float], dt: float) -> GeometricSummary:
    """The summary of the problem (V, K, omega, T, deltas): the problem
    itself and its classical side for every delta, from one flow pass over
    K's lattice stacked on its half-spacing refinement."""
    deltas = tuple(float(d) for d in deltas)
    coarse = K.sample_grid()
    m = len(coarse)
    res = occupation_batch(V, np.concatenate([coarse, K.sample_grid(K.spacing / 2)]), T,
                           [IndicatorCutoff(omega)] + [RampCutoff(omega, d) for d in deltas],
                           dt)
    c_geo = float(res.occupation[:m, 0].min())
    hull = np.stack([res.hull[..., 0].min(axis=0), res.hull[..., 1].max(axis=0)], axis=-1)
    # the larger of the working box's bound and the bound recertified on the
    # box joined with the hull (the same box, and bound, when no trajectory
    # left the working box)
    box = np.stack([np.minimum(V.working_box[:, 0], hull[:, 0]),
                    np.maximum(V.working_box[:, 1], hull[:, 1])], axis=-1)
    return GeometricSummary(
        V=V, K=K, omega=omega, T=T, deltas=deltas,
        c_geo=c_geo,
        c_geo_refine_delta=abs(c_geo - float(res.occupation[m:, 0].min())),
        gc_satisfied=bool(np.all(res.first_hit[:m, 0] < T)),     # nan: never hit
        chi_geo=tuple(float(v) for v in res.occupation[:m, 1:].min(axis=0)),
        left_box=bool(res.left_box.any()),
        hull=hull, lip=max(V.lip_grad, V.with_box(box).lip_grad),
        table=OccupationResult(points=res.points[:m], occupation=res.occupation[:m, :1],
                               first_hit=res.first_hit[:m, :1], left_box=res.left_box[:m],
                               hull=res.hull[:m]),
    )
