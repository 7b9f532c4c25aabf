"""Discrete optimal transport and the constructive bounds for the
classical-quantum comparison pseudometric.

Only upper bounds for the pseudometric are ever computed, from the coupling
built on an optimal classical transport plan (Toeplitz case); their growth
along the flow is ``certify.growth_factor``.  The defining infimum over
operator-valued couplings has no tractable finite reduction and is never
attempted.

The optimal plan is the exact LP optimum, not an entropic approximation.
Entropic (Sinkhorn) dual potentials only choose which edges the first LP
solve sees; the certificate of optimality is the LP's own duals, checked for
feasibility on every one of the n * m edges before a plan is returned.
A Toeplitz bound's two LPs, at lam = 1 and at lam, run concurrently on the
cores, since HiGHS releases the interpreter lock while it solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import quantum
from .phasespace import AtomicMeasure

Array = np.ndarray

MAX_ATOMS = 512
# cheapest partners per atom, in reduced cost, in the first candidate set
_NEAREST = 10
# the entropic dual estimate that ranks them: Sinkhorn updates of (u, v),
# with eps falling geometrically between these multiples of the median cost
_SINKHORN_STEPS = 40
_EPS_RANGE = (1.0, 0.01)


@dataclass(frozen=True)
class CostParams:
    lam: float
    hbar: float

    def __post_init__(self):
        _check_lam(self.lam)
        if not (self.hbar >= 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be finite and nonnegative, got {self.hbar!r}")


def _check_lam(lam: float) -> None:
    """Raise ValueError unless lam is positive and lam^2 a finite float
    (NaN fails the first test, inf and 1e200 the second)."""
    if not (lam > 0 and math.isfinite(float(lam) * float(lam))):
        raise ValueError(f"lambda must be positive with a finite square, got {lam!r}")


def cost_matrix(f: AtomicMeasure, mu: AtomicMeasure, lam: float) -> Array:
    """Pairwise ground cost lam^2 |x - q|^2 + |xi - p|^2.  Raises ValueError
    unless lam is positive with a finite square."""
    _check_lam(lam)
    if f.dim != mu.dim:
        raise ValueError("measures live in different dimensions")
    d = f.dim
    dx = f.points[:, None, :d] - mu.points[None, :, :d]
    dxi = f.points[:, None, d:] - mu.points[None, :, d:]
    return lam ** 2 * np.sum(dx ** 2, axis=-1) + np.sum(dxi ** 2, axis=-1)


def _north_west_corner(f: AtomicMeasure, mu: AtomicMeasure) -> Array:
    """(n, m) mask of the north-west-corner support with both measures'
    atoms sorted by their first coordinate: a staircase of n + m - 1 edges
    that carries a feasible plan."""
    n, m = len(f.weights), len(mu.weights)
    ia, ib = np.argsort(f.points[:, 0]), np.argsort(mu.points[:, 0])
    ca, cb = np.cumsum(f.weights[ia]), np.cumsum(mu.weights[ib])
    # each interval between consecutive partial sums is one edge of the staircase
    t = np.sort(np.concatenate([[0.0], ca[:-1], cb[:-1]]))
    mask = np.zeros((n, m), dtype=bool)
    mask[ia[np.minimum(np.searchsorted(ca, t, side="right"), n - 1)],
         ib[np.minimum(np.searchsorted(cb, t, side="right"), m - 1)]] = True
    return mask


def _logsumexp(x: Array, axis: int) -> Array:
    """log(sum(exp(x))) along axis; overwrites x."""
    top = x.max(axis=axis, keepdims=True)
    x -= top
    np.exp(x, out=x)
    return np.log(np.sum(x, axis=axis)) + np.squeeze(top, axis)


def _dual_estimate(C: Array, a: Array, b: Array) -> tuple[Array, Array]:
    """Approximate optimal duals (u, v) of the transport LP with cost C and
    marginals a, b: log-domain Sinkhorn with eps-scaling, _SINKHORN_STEPS
    updates of u then v.  Zero weights are floored at the smallest normal
    float, so the potentials stay finite."""
    tiny = np.finfo(float).tiny
    log_a, log_b = np.log(np.maximum(a, tiny)), np.log(np.maximum(b, tiny))
    scale = float(np.median(C)) or float(C.max()) or 1.0
    v, x = np.zeros(len(b)), np.empty_like(C)
    for eps in scale * np.geomspace(*_EPS_RANGE, _SINKHORN_STEPS):
        np.subtract(v[None, :], C, out=x)
        x /= eps
        u = eps * (log_a - _logsumexp(x, axis=1))
        np.subtract(u[:, None], C, out=x)
        x /= eps
        v = eps * (log_b - _logsumexp(x, axis=0))
    return u, v


def transport_plan(f: AtomicMeasure, mu: AtomicMeasure, lam: float = 1.0):
    """Exact optimal transport plan between atomic measures (LP, no smoothing).

    Returns (squared_cost, plan) with plan[i, j] the mass moved from atom i of
    f to atom j of mu.  Instances are capped at MAX_ATOMS atoms per side.

    The LP is solved on a candidate set of edges: each atom's _NEAREST
    cheapest partners on the other side in the reduced cost C - u - v, with
    (u, v) entropic dual potentials from _dual_estimate, plus the
    north-west-corner support, which keeps the restricted LP feasible.  The
    potentials only choose these first candidates and never reach the
    result.  The restricted LP's own equality duals u (rows) and v (columns,
    v = 0 on the dropped last one) then price every pair; each edge outside
    the set with reduced cost C - u - v below -1e-12 * max(1, max C) enters,
    and the LP is solved again until none does.  A plan that is primal
    feasible with duals feasible on all n * m edges is optimal for the full
    LP (LP duality), so the result is the full LP's optimum.

    HiGHS solves without presolve, which on these LPs removes no simplex
    iteration.  Raises ValueError when lam is not positive with a finite
    square, or when the cost matrix overflows to a non-finite value.
    """
    n, m = len(f.weights), len(mu.weights)
    if n > MAX_ATOMS or m > MAX_ATOMS:
        raise ValueError(f"atom counts above {MAX_ATOMS} are out of scope")
    with np.errstate(over="ignore"):
        C = cost_matrix(f, mu, lam)
    if not np.all(np.isfinite(C)):
        raise ValueError("transport cost overflows: lam^2 |dx|^2 + |dxi|^2 "
                         "is not finite for some pair of atoms")
    mask = _north_west_corner(f, mu)
    u, v = _dual_estimate(C, f.weights, mu.weights)
    R = C - u[:, None] - v[None, :]
    k = min(_NEAREST, m)
    mask[np.arange(n)[:, None], np.argpartition(R, k - 1, axis=1)[:, :k]] = True
    k = min(_NEAREST, n)
    mask[np.argpartition(R, k - 1, axis=0)[:k], np.arange(m)] = True
    b_eq = np.concatenate([f.weights, mu.weights[:m - 1]])
    tol = -1e-12 * max(1.0, float(C.max()))
    while True:
        rows, cols = np.nonzero(mask)                      # row-major order
        # row sums of the plan, then column sums but the last (redundant)
        edge = np.arange(len(rows))
        kept = cols < m - 1
        a_eq = sparse.csc_matrix(
            (np.ones(len(rows) + np.count_nonzero(kept)),
             (np.concatenate([rows, n + cols[kept]]), np.concatenate([edge, edge[kept]]))),
            shape=(n + m - 1, len(rows)))
        res = linprog(C[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs", options={"presolve": False})
        if res.status != 0:
            raise RuntimeError(f"transport LP failed: {res.message}")
        duals = res.eqlin.marginals
        reduced = C - duals[:n, None] - np.append(duals[n:], 0.0)[None, :]
        entering = (reduced < tol) & ~mask
        if not entering.any():
            break
        mask |= entering
    plan = np.zeros((n, m))
    plan[rows, cols] = res.x
    return float(np.sum(plan * C)), plan


def transport_distance(f: AtomicMeasure, mu: AtomicMeasure, lam: float = 1.0) -> float:
    """Quadratic Monge-Kantorovich distance with ground cost lam^2|dx|^2 + |dxi|^2."""
    cost2, _ = transport_plan(f, mu, lam)
    return math.sqrt(max(cost2, 0.0))


# ---------------------------------------------------------------------------
# coherent-state cost expectation and the coupling bounds
# ---------------------------------------------------------------------------

def coherent_cost_expectation(x, xi, q, p, params: CostParams) -> float:
    """Expectation of the quadratic transport cost in a coherent atom at (q, p):
    lam^2 |x - q|^2 + |xi - p|^2 + (lam^2 + 1) * dim * hbar / 2."""
    x = np.atleast_1d(np.asarray(x, float))
    xi = np.atleast_1d(np.asarray(xi, float))
    q = np.atleast_1d(np.asarray(q, float))
    p = np.atleast_1d(np.asarray(p, float))
    d = x.size
    lam = params.lam
    return float(lam ** 2 * np.sum((x - q) ** 2) + np.sum((xi - p) ** 2)
                 + 0.5 * (lam ** 2 + 1.0) * d * params.hbar)


@dataclass(frozen=True)
class ToeplitzBound:
    """Upper bounds for the pseudometric between a density f and the Toeplitz
    quantization of mu: the max(1, lam^2)-weighted form on the unweighted
    distance, and the sharper value of the explicit coupling built on the
    lam-weighted optimal plan."""

    standard: float
    constructive: float


def toeplitz_bound(f: AtomicMeasure, mu: AtomicMeasure, params: CostParams) -> ToeplitzBound:
    """The standard bound from the transport distance at lam = 1 and the
    constructive one from the distance at lam: two independent exact LPs,
    or one when lam == 1.

    The LPs are tasks of ``quantum._run_tasks``, run concurrently on the
    cores.  The distances are those of lone transport_distance calls, bit
    for bit, and if both LPs fail the lam = 1 error is raised.
    """
    d = f.dim
    lam, hbar = params.lam, params.hbar
    offset = 0.5 * (lam ** 2 + 1.0) * d * hbar
    lams = (1.0,) if lam == 1.0 else (1.0, lam)
    dist = [0.0] * len(lams)

    def run(i, lam_i):
        dist[i] = transport_distance(f, mu, lam_i)

    quantum._run_tasks(run, list(enumerate(lams)), quantum.cores())
    w_std, w_lam = dist[0], dist[-1]
    standard = math.sqrt(max(1.0, lam ** 2) * w_std ** 2 + offset)
    constructive = math.sqrt(w_lam ** 2 + offset)
    return ToeplitzBound(standard=standard, constructive=constructive)

