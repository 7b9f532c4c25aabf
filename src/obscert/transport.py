"""Discrete optimal transport and the constructive bounds for the
classical-quantum comparison pseudometric.

Only upper bounds for the pseudometric are ever computed: the coupling built
from an optimal classical transport plan (Toeplitz case), the 2*spread bound
(pure-state case), and the exponential growth factor along the flow.  The
defining infimum over operator-valued couplings has no tractable finite
reduction and is never attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from . import quantum
from .certify import growth_rate
from .potentials import saturating_exp
from .quantum import WaveFunction

Array = np.ndarray

MAX_ATOMS = 512


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure on phase space: (m, 2*dim) points."""

    points: Array
    weights: Array

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(pts) != len(w) or len(pts) == 0:
            raise ValueError("points and weights must be nonempty and match")
        if pts.shape[1] % 2 != 0:
            raise ValueError("points must have 2*dim phase coordinates")
        if np.any(w < 0):
            raise ValueError("negative weight")
        s = math.fsum(w.tolist())
        if s <= 0:
            raise ValueError("weights must have positive total")
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


def transport_plan(f: AtomicMeasure, mu: AtomicMeasure, lam: float = 1.0):
    """Exact optimal transport plan between atomic measures (LP, no smoothing).

    Returns (squared_cost, plan) with plan[i, j] the mass moved from atom i of
    f to atom j of mu.  Instances are capped at MAX_ATOMS atoms per side.
    """
    n, m = len(f.weights), len(mu.weights)
    if n > MAX_ATOMS or m > MAX_ATOMS:
        raise ValueError(f"atom counts above {MAX_ATOMS} are out of scope")
    C = cost_matrix(f, mu, lam)
    # row sums of the (n, m) plan, then column sums but the last (redundant)
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m, format="csr")[:m - 1])])
    b_eq = np.concatenate([f.weights, mu.weights[:m - 1]])
    res = linprog(C.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    return float(np.sum(plan * C)), plan


def transport_distance(f: AtomicMeasure, mu: AtomicMeasure, lam: float = 1.0) -> float:
    """Quadratic Monge-Kantorovich distance with ground cost lam^2|dx|^2 + |dxi|^2."""
    cost2, _ = transport_plan(f, mu, lam)
    return math.sqrt(max(cost2, 0.0))


def plan_rows(plan: Array, tol: float = 1e-14) -> list[tuple[int, int, float]]:
    """Flatten a transport plan into (source_atom, target_atom, mass) triples,
    dropping numerically empty entries; ready for CSV export."""
    rows = []
    for i in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            if plan[i, j] > tol:
                rows.append((i, j, float(plan[i, j])))
    return rows


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


def growth_factor(params: CostParams, lip_grad: float, t: float) -> float:
    """exp(s t / 2) with s = ``certify.growth_rate``(lam, lip_grad): growth of
    the pseudometric bound along the coupled classical/quantum evolution.
    Overflow saturates to +inf."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return saturating_exp(0.5 * growth_rate(params.lam, lip_grad) * t)
