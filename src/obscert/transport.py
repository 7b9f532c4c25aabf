"""Discrete optimal transport and the constructive bounds for the
classical-quantum comparison pseudometric.

Only upper bounds for the pseudometric are ever computed: the coupling built
from an optimal classical transport plan (Toeplitz case) and the 2*spread
bound (pure-state case); their growth along the flow is
``certify.growth_factor``.  The defining infimum over operator-valued
couplings has no tractable finite reduction and is never attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import quantum
from .phasespace import AtomicMeasure
from .quantum import WaveFunction

Array = np.ndarray

MAX_ATOMS = 512
# cheapest partners per atom in the transport LP's first candidate set
_NEAREST = 64


@dataclass(frozen=True)
class CostParams:
    lam: float
    hbar: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.hbar < 0:
            raise ValueError("hbar must be nonnegative")


def cost_matrix(f: AtomicMeasure, mu: AtomicMeasure, lam: float) -> Array:
    """Pairwise ground cost lam^2 |x - q|^2 + |xi - p|^2."""
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


def transport_plan(f: AtomicMeasure, mu: AtomicMeasure, lam: float = 1.0):
    """Exact optimal transport plan between atomic measures (LP, no smoothing).

    Returns (squared_cost, plan) with plan[i, j] the mass moved from atom i of
    f to atom j of mu.  Instances are capped at MAX_ATOMS atoms per side.

    The LP is solved on a candidate set of edges: each atom's _NEAREST
    cheapest partners on the other side, plus the north-west-corner support,
    which keeps the restricted LP feasible.  Its equality duals u (rows) and
    v (columns, v = 0 on the dropped last one) price every pair; each edge
    outside the set with reduced cost C - u - v below -1e-12 * max(1, max C)
    enters, and the LP is solved again until none does.  A plan that is
    primal feasible with duals feasible on every edge is optimal for the
    full n * m LP (LP duality), so the result is the full LP's optimum.
    When both sides have at most _NEAREST atoms the set holds every edge in
    row-major order, which is the full LP itself.
    """
    n, m = len(f.weights), len(mu.weights)
    if n > MAX_ATOMS or m > MAX_ATOMS:
        raise ValueError(f"atom counts above {MAX_ATOMS} are out of scope")
    C = cost_matrix(f, mu, lam)
    mask = _north_west_corner(f, mu)
    k = min(_NEAREST, m)
    mask[np.arange(n)[:, None], np.argpartition(C, k - 1, axis=1)[:, :k]] = True
    k = min(_NEAREST, n)
    mask[np.argpartition(C, k - 1, axis=0)[:k], np.arange(m)] = True
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
        res = linprog(C[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
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
    d = f.dim
    lam, hbar = params.lam, params.hbar
    offset = 0.5 * (lam ** 2 + 1.0) * d * hbar
    w_std = transport_distance(f, mu, 1.0)
    w_lam = transport_distance(f, mu, lam)
    standard = math.sqrt(max(1.0, lam ** 2) * w_std ** 2 + offset)
    constructive = math.sqrt(w_lam ** 2 + offset)
    return ToeplitzBound(standard=standard, constructive=constructive)


def pure_state_bound(psi: WaveFunction) -> float:
    """Upper bound 2 * spread(psi) for the pseudometric (lam = 1) between a
    pure state and its own Husimi density."""
    return 2.0 * quantum.spread(psi)

