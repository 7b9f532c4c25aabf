"""Closed-form constants and end-to-end observability certificates.

A certificate compares the observed space-time mass of an evolving state on a
delta-enlarged region against a computable lower bound built from the
geometric constant, the phase-space localization of the initial state, and an
exponentially growing correction.  Three coefficient conventions for the
pure-state correction term are in circulation (factors 1, 4 and 8 on the same
base constant); certificates subtract the largest (safest) one and report the
other two.

Every growth constant comes from one Gronwall step on the Golse-Paul
pseudometric with the lam-weighted cost lam^2 |x - y|^2 + |xi - eta|^2: its
square root grows at most like exp(s t / 2) with the rate

    s(lam, lip) = lam + lip^2 / lam        (``growth_rate``)

and the correction coefficients integrate that growth over [0, T]
(``gronwall_factor``).  Known defect: lam is 1/time and lip 1/time^2, so
lip^2 / lam is not a rate.  The step gives lam + lip / lam; the two agree at
lip = 1 and s is safe for lip > 1, but too small for lip < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from . import phasespace, quantum
from .classical import CompactSet, GeometricSummary, Region
from .phasespace import ToeplitzState
from .potentials import Potential, saturating_exp, saturating_square
from .quantum import Grid, WaveFunction

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def growth_rate(lam: float, lip: float) -> float:
    """s(lam, lip) = lam + lip^2 / lam, the exponential rate of the Gronwall
    step.  Saturates to +inf where lip^2 overflows (and at lam = lip = inf)."""
    s = lam + saturating_square(lip) / lam
    return math.inf if math.isnan(s) else s


def gronwall_factor(s: float, T: float) -> float:
    """(exp(s T / 2) - 1) / s: half the integral of the growth exp(s t / 2)
    over [0, T].  Saturates to +inf on overflow."""
    if math.isinf(s):
        return math.inf
    e = saturating_exp(0.5 * s * T)
    return math.inf if math.isinf(e) else (e - 1.0) / s


def spread_coefficient(T: float, lip: float) -> float:
    """Coefficient D of spread/delta in the pure-state defect term: the
    Gronwall factor at lam = 1."""
    if T < 0 or lip < 0:
        raise ValueError("T and lip must be nonnegative")
    return gronwall_factor(growth_rate(1.0, lip), T)


def _growth_objective(T: float, lip: float, lam: float) -> float:
    """The Gronwall factor at lam times sqrt(1 + 1/lam^2): the Toeplitz
    coefficient's objective, +inf before 1/lam^2 can overflow."""
    g = gronwall_factor(growth_rate(lam, lip), T)
    if math.isinf(g):
        return math.inf
    return g * math.sqrt(1.0 + 1.0 / lam ** 2)


def balanced_growth_root(tol: float = 1e-10) -> float:
    """Positive root of r e^r = 2 (e^r - 1), by bisection on [1, 2]."""
    f = lambda r: r * math.exp(r) - 2.0 * (math.exp(r) - 1.0)
    lo, hi = 1.0, 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_L0_ROOT = balanced_growth_root()


def zero_lip_candidate(T: float) -> tuple[float, float]:
    """(lambda, bound value) of the explicit lam = 2 r / T choice at lip = 0."""
    lam0 = 2.0 * _L0_ROOT / T
    return lam0, _growth_objective(T, 0.0, lam0)


def toeplitz_coefficient_details(T: float, lip: float) -> tuple[float, Optional[float]]:
    """(value, minimizer lambda) of the Toeplitz correction coefficient
    inf_{lam > 0} ``_growth_objective``(T, lip, lam).

    Log-grid scan plus golden-section refinement; the explicit candidates
    lam = lip (lip > 0) and ``zero_lip_candidate`` (lip = 0) are upper
    bounds of the infimum and cap the result.  When every candidate
    overflows to +inf no lambda attains anything: (inf, None).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if lip < 0:
        raise ValueError("lip must be nonnegative")
    grid = np.logspace(-4, 4, 161)
    vals = np.array([_growth_objective(T, lip, lam) for lam in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    # golden section on log-lambda
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = _growth_objective(T, lip, math.exp(c))
    fd = _growth_objective(T, lip, math.exp(d))
    while b - a > 1e-8 * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = _growth_objective(T, lip, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = _growth_objective(T, lip, math.exp(d))
    lam_star = math.exp(0.5 * (a + b))
    best = _growth_objective(T, lip, lam_star)
    candidates = [(best, lam_star)]
    if lip > 0:
        candidates.append((_growth_objective(T, lip, lip), lip))
    else:
        lam0, val0 = zero_lip_candidate(T)
        candidates.append((val0, lam0))
    value, lam = min(candidates, key=lambda t: t[0])
    if math.isinf(value):
        return math.inf, None
    return float(value), float(lam)


def toeplitz_coefficient(T: float, lip: float) -> float:
    return toeplitz_coefficient_details(T, lip)[0]


@dataclass(frozen=True)
class MinimalDelta:
    baseline: float
    state_dependent: Optional[float] = None


def minimal_delta(T: float, lip: float, hbar: float, dim: int, c_geo: float,
                  c_obs: float, diam_K: float,
                  spread: Optional[float] = None,
                  husimi_mass: Optional[float] = None) -> MinimalDelta:
    """Smallest delta for which the admissible set of states is nonempty.

    baseline uses the coherent-state tail estimate with the set diameter;
    the sharper state-dependent threshold replaces the tail by the actual
    phase-space mass on K and the minimal spread by the state's spread.
    """
    if c_geo <= 0:
        raise ValueError("c_geo must be positive")
    D = spread_coefficient(T, lip)
    tail = math.exp(-diam_K ** 2 / (4.0 * hbar)) / (4.0 * math.pi) ** dim
    denom = c_geo * (1.0 - tail) + 1.0 / c_obs
    if denom <= 0:
        raise ValueError("nonpositive denominator: inconsistent (c_obs, c_geo)")
    baseline = D * math.sqrt(dim * hbar) / denom
    state = None
    if spread is not None and husimi_mass is not None:
        denom_s = c_geo * (1.0 - husimi_mass) + 1.0 / c_obs
        if denom_s <= 0:
            raise ValueError("nonpositive denominator in state-dependent threshold")
        state = D * spread / denom_s
    return MinimalDelta(baseline=baseline, state_dependent=state)


# ---------------------------------------------------------------------------
# certification reports
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    schema_version: int
    scenario: str
    kind: str
    dim: int
    hbar: float
    T: float
    delta: float
    lam: Optional[float]          # None: no lambda gives a finite coefficient
    lip_grad: float
    d_K: float
    gc_satisfied: bool
    c_geo: float
    c_geo_refine_delta: float
    chi_geo: float
    lower_bound: float
    measured: float
    margin: float
    eps_num: float
    verdict: str
    err_budget: dict = field(default_factory=dict)
    husimi_mass: Optional[float] = None
    husimi_refine_delta: Optional[float] = None
    spread: Optional[float] = None
    d_const: Optional[float] = None
    correction_used: Optional[float] = None
    correction_factor4: Optional[float] = None
    correction_factor1: Optional[float] = None
    c_tl: Optional[float] = None
    admissible: Optional[bool] = None
    implied_c_obs: Optional[float] = None
    c_obs_times_T: Optional[float] = None
    ct_above_one: Optional[bool] = None
    ct_marginal: Optional[bool] = None
    delta_min_baseline: Optional[float] = None
    delta_min_state: Optional[float] = None
    left_box: bool = False

    def to_dict(self) -> dict:
        return _json_ready(asdict(self))


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _verdict(lower: float, measured: float, eps: float) -> str:
    if not lower > 0:                   # NaN too: no bound, no certificate
        return "vacuous"
    if measured < lower - eps:
        return "violated"
    return "certified"


def _edge_cells(w: np.ndarray) -> np.ndarray:
    """Flat indices of the cells where a cutoff sampled on a periodic grid
    differs from a neighbour along some axis: where an indicator jumps."""
    return np.flatnonzero(np.logical_or.reduce(
        [w != np.roll(w, shift, axis=ax) for ax in range(w.ndim) for shift in (1, -1)]))


def _trapezoid(series: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite-trapezoid integral over [0, T] of equally spaced samples
    (series is (n_t, k)), and its error estimate from the second differences
    (0 for a single step)."""
    h = T / (len(series) - 1)
    w_t = np.full(len(series), h)
    w_t[0] = w_t[-1] = 0.5 * h
    second = np.abs(series[2:] - 2.0 * series[1:-1] + series[:-2]) / h ** 2
    return w_t @ series, second.max(axis=0, initial=0.0) * h ** 2 * T / 12.0


def _lip_along_flow(V: Potential, hull: np.ndarray) -> float:
    """Lipschitz bound of grad V valid wherever the trajectories from K go: the
    larger of the working box's bound and the bound recertified on the box
    joined with the trajectories' (dim, 2) hull (the same box, and so the same
    bound, when no trajectory left the working box)."""
    box = np.stack([np.minimum(V.working_box[:, 0], hull[:, 0]),
                    np.maximum(V.working_box[:, 1], hull[:, 1])], axis=-1)
    return max(V.lip_grad, V.with_box(box).lip_grad)


@dataclass(frozen=True)
class _Sweep:
    """The measured side that both certificate kinds share, per (column,
    delta): the observed mass on the delta-enlargement of omega and its
    propagation, time and space error terms (keyed as in ``err_budget``),
    with what every report of the sweep repeats."""

    scenario: str
    K: CompactSet
    T: float
    geo: GeometricSummary
    lip: float
    measured: np.ndarray
    terms: dict

    @classmethod
    def measure(cls, V: Potential, K: CompactSet, omega: Region, T: float,
                deltas: Sequence[float], columns, *, dt: float, geo: GeometricSummary,
                scenario: str) -> "_Sweep":
        """A column is a list of (state, weight, label) rows: a pure state is
        one row of weight 1.0 (exact: 0.0 + 1.0 * x == x, so a pure column's
        values are its row's), a Toeplitz state its nonzero-weight atoms.
        Every row goes to one ``observed_mass_series`` call at the step sizes
        dt and 2 dt; by linearity a column sums its weighted rows in order.
        The space term is T times the peak mass on Omega_delta's edge cells
        (none, and nothing sampled, when Omega_delta holds the whole grid)."""
        if tuple(float(d) for d in deltas) != geo.deltas:
            raise ValueError(f"geo holds deltas {list(geo.deltas)}, not {list(deltas)}")
        rows = [(c, *row) for c, col in enumerate(columns) for row in col]
        batch = quantum.WaveBatch.of([s for _, s, _, _ in rows], [lab for *_, lab in rows])
        pts = batch.grid.points()
        weights = np.stack([omega.enlarged(d).indicator(pts) for d in geo.deltas])
        edges = [_edge_cells(w.reshape(batch.grid.shape)) for w in weights]
        edged = [j for j, idx in enumerate(edges) if idx.size]
        (fine, edge_mass), (coarse, _) = quantum.observed_mass_series(
            V, batch, T, weights, [edges[j] for j in edged], (dt, 2.0 * dt))
        measured, coarse_sum, time_sum, space_sum = np.zeros((4, len(columns), len(weights)))
        for r, (c, _, w, _) in enumerate(rows):
            mass, time_error = _trapezoid(fine[r], T)
            measured[c] += w * mass
            coarse_sum[c] += w * _trapezoid(coarse[r], T)[0]
            time_sum[c] += w * time_error
            space_sum[c, edged] += w * T * edge_mass[r].max(axis=0)
        terms = {"propagation": np.abs(measured - coarse_sum) / 3.0,
                 "time_quadrature": time_sum, "space_quadrature": space_sum}
        return cls(scenario, K, T, geo, _lip_along_flow(V, geo.hull), measured, terms)

    def report(self, c: int, j: int, kind: str, lower: float, terms: dict,
               **fields) -> CertificationReport:
        """Report of cell (column c, delta j): the shared fields plus the
        kind's own ``fields``.  ``err_budget`` holds the propagation, time
        and space terms, then the kind's own ``terms``, and ``eps_num`` is
        their sum, left to right."""
        geo = self.geo
        budget = {k: float(v[c, j]) for k, v in self.terms.items()}
        budget.update(terms)
        eps = sum(budget.values())
        if lower > 0:
            ct = 1.0 / lower * self.T
            fields.update(implied_c_obs=1.0 / lower, c_obs_times_T=ct,
                          ct_above_one=bool(ct > 1.0), ct_marginal=bool(abs(ct - 1.0) <= 0.1))
        m = float(self.measured[c, j])
        return CertificationReport(
            schema_version=SCHEMA_VERSION, scenario=self.scenario, kind=kind, T=self.T,
            delta=geo.deltas[j], lip_grad=self.lip, d_K=self.K.diameter,
            gc_satisfied=geo.gc_satisfied, c_geo=geo.c_geo,
            c_geo_refine_delta=geo.c_geo_refine_delta, chi_geo=geo.chi_geo[j],
            lower_bound=lower, measured=m, margin=m - lower, eps_num=float(eps),
            verdict=_verdict(lower, m, eps), err_budget=budget, left_box=geo.left_box,
            **fields)


def certify_pure_sweep(V: Potential, K: CompactSet, omega: Region, T: float,
                       deltas: Sequence[float], psis: Sequence[WaveFunction], *,
                       dt: float, geo: GeometricSummary,
                       husimi_spacing: Optional[float] = None,
                       scenario: str = "") -> list[CertificationReport]:
    """Certificates for pure initial states, one per hbar column, over a list
    of enlargement radii; reports come in (column, delta) order.

    lower bound:   c_geo * husimi_mass - 8 D(T, lip) * spread / delta
    measured side: observed mass on the delta-enlargement of the region.
    ``geo`` is ``classical.geometric_summary`` of (V, K, omega, T, deltas).
    """
    if any(abs(psi.norm - 1.0) > 1e-8 for psi in psis):
        raise ValueError("initial state must be normalized")
    sweep = _Sweep.measure(V, K, omega, T, deltas,
                           [[(psi, 1.0, f"hbar={psi.hbar:g}")] for psi in psis],
                           dt=dt, geo=geo, scenario=scenario)
    c_geo, c_geo_delta = geo.c_geo, geo.c_geo_refine_delta
    D = spread_coefficient(T, sweep.lip)

    reports = []
    for c, psi in enumerate(psis):
        dim = psi.grid.dim
        h_K, h_delta = phasespace.husimi_mass_refined(psi, K, husimi_spacing)
        delta_psi = quantum.spread(psi)
        for j, delta in enumerate(geo.deltas):
            corr_used = 8.0 * D * delta_psi / delta
            lower = c_geo * h_K - corr_used
            dm_base = dm_state = None
            if lower > 0:
                try:
                    dm = minimal_delta(T, sweep.lip, psi.hbar, dim, c_geo, 1.0 / lower,
                                       K.diameter, spread=delta_psi, husimi_mass=h_K)
                    dm_base, dm_state = dm.baseline, dm.state_dependent
                except ValueError:
                    pass
            reports.append(sweep.report(
                c, j, "pure", lower, {"c_geo_refinement": float(c_geo_delta * h_K),
                                      "husimi_refinement": float(c_geo * h_delta)},
                dim=dim, hbar=psi.hbar, lam=1.0,
                husimi_mass=h_K, husimi_refine_delta=h_delta, spread=delta_psi,
                d_const=D, correction_used=corr_used,
                correction_factor4=0.5 * corr_used,
                correction_factor1=D * delta_psi / delta,
                delta_min_baseline=dm_base, delta_min_state=dm_state))
    return reports


def certify_toeplitz_sweep(V: Potential, K: CompactSet, omega: Region, T: float,
                           deltas: Sequence[float], Rs: Sequence[ToeplitzState],
                           grid: Grid, *, dt: float, geo: GeometricSummary,
                           scenario: str = "") -> list[CertificationReport]:
    """Certificates for Toeplitz initial states (atomized symbols in K), one
    per hbar column; reports come in (column, delta) order.

    lower bound:   c_geo - C(T, lip) * sqrt(2 dim hbar) / delta
    measured side: weighted observed mass of the propagated atoms.
    ``geo`` is ``classical.geometric_summary`` of (V, K, omega, T, deltas).
    """
    if not all(np.all(K.contains(R.atoms)) for R in Rs):
        raise ValueError("all Toeplitz atoms must lie inside K")
    columns = [[(R.atom_state(j, grid), w, f"hbar={R.hbar:g}, atom {j}")
                for j, w in enumerate(R.weights) if w != 0.0] for R in Rs]
    sweep = _Sweep.measure(V, K, omega, T, deltas, columns, dt=dt, geo=geo, scenario=scenario)
    c_geo, c_geo_delta = geo.c_geo, geo.c_geo_refine_delta
    c_tl, lam_star = toeplitz_coefficient_details(T, sweep.lip)

    reports = []
    for c, R in enumerate(Rs):
        threshold = (c_geo ** 2 / (2.0 * R.dim * saturating_square(c_tl))
                     if math.isfinite(c_tl) else 0.0)
        for j, delta in enumerate(geo.deltas):
            lower = c_geo - c_tl * math.sqrt(2.0 * R.dim * R.hbar) / delta
            reports.append(sweep.report(
                c, j, "toeplitz", lower, {"c_geo_refinement": float(c_geo_delta)},
                dim=R.dim, hbar=R.hbar, lam=lam_star, c_tl=c_tl,
                admissible=bool(R.hbar / delta ** 2 < threshold)))
    return reports
