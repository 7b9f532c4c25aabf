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
from .classical import GeometricSummary
from .phasespace import ToeplitzState
from .quantum import Grid, WaveFunction

SCHEMA_VERSION = 2


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


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def growth_rate(lam: float, lip: float) -> float:
    """s(lam, lip) = lam + lip^2 / lam, the exponential rate of the Gronwall
    step.  Saturates to +inf where lip^2 overflows (and at lam = lip = inf)."""
    s = lam + saturating_square(lip) / lam
    return math.inf if math.isnan(s) else s


def growth_factor(lam: float, lip: float, t: float) -> float:
    """exp(s t / 2) at s = ``growth_rate``(lam, lip), +inf on overflow."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    # 1 at t = 0 even where the rate saturates to +inf (inf * 0 is NaN)
    return 1.0 if t == 0 else saturating_exp(0.5 * growth_rate(lam, lip) * t)


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
    coefficient's objective, +inf before 1/lam^2 can overflow and where lam^2
    underflows to 0."""
    g = gronwall_factor(growth_rate(lam, lip), T)
    if math.isinf(g) or lam ** 2 == 0.0:
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


def explicit_toeplitz_candidate(T: float, lip: float) -> tuple[float, float]:
    """(lambda, bound value) of the explicit choice that caps the Toeplitz
    coefficient: lam = lip for lip > 0, ``zero_lip_candidate`` at lip = 0."""
    if lip > 0:
        return lip, _growth_objective(T, lip, lip)
    return zero_lip_candidate(T)


def toeplitz_coefficient_details(T: float, lip: float) -> tuple[float, Optional[float]]:
    """(value, minimizer lambda) of the Toeplitz correction coefficient
    inf_{lam > 0} ``_growth_objective``(T, lip, lam).

    Log-grid scan plus golden-section refinement; the
    ``explicit_toeplitz_candidate`` is an upper bound of the infimum and
    caps the result.  When both overflow to +inf no lambda attains
    anything: (inf, None).
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
    lam_c, val_c = explicit_toeplitz_candidate(T, lip)
    value, lam = min([(best, lam_star), (val_c, lam_c)], key=lambda t: t[0])
    if math.isinf(value):
        return math.inf, None
    return float(value), float(lam)


def delta_min_state(T: float, lip: float, c_geo: float, lower_bound: float,
                    spread: float, husimi_mass: float) -> Optional[float]:
    """The state-dependent minimal delta D(T, lip) * spread /
    (c_geo (1 - husimi_mass) + lower_bound) of a pure-state cell; None where
    the lower bound or the denominator is not positive."""
    denom = c_geo * (1.0 - husimi_mass) + lower_bound
    if not (lower_bound > 0 and denom > 0):
        return None
    return spread_coefficient(T, lip) * spread / denom


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


@dataclass(frozen=True)
class _Sweep:
    """The measured side that both certificate kinds share, per (column,
    delta): the observed mass on the delta-enlargement of omega and its
    propagation, time and space error terms (keyed as in ``err_budget``),
    with what every report of the sweep repeats."""

    scenario: str
    geo: GeometricSummary
    measured: np.ndarray
    terms: dict

    @classmethod
    def measure(cls, geo: GeometricSummary, columns, *, dt: float,
                scenario: str) -> "_Sweep":
        """A column is a list of (state, weight, label) rows: a pure state is
        one row of weight 1.0 (exact: 0.0 + 1.0 * x == x, so a pure column's
        values are its row's), a Toeplitz state its nonzero-weight atoms.
        Every row goes to one ``observed_mass_series`` call at the step sizes
        dt and 2 dt; by linearity a column sums its weighted rows in order.
        Omega_delta is the grid's cells at distance below delta from omega,
        one distance serving every delta.  The space term is T times the peak
        mass on Omega_delta's edge cells: 0 when it has none, as an empty set
        of cells sums to 0."""
        rows = [(c, *row) for c, col in enumerate(columns) for row in col]
        batch = quantum.WaveBatch.of([s for _, s, _, _ in rows], [lab for *_, lab in rows])
        with np.errstate(over="ignore"):    # a distance past the float range: in no Omega_delta
            dist = geo.omega.distance(batch.grid.points())
        weights = np.stack([(dist < d).astype(float) for d in geo.deltas])
        edges = [_edge_cells(w.reshape(batch.grid.shape)) for w in weights]
        (fine, edge_mass), (coarse, _) = quantum.observed_mass_series(
            geo.V, batch, geo.T, weights, edges, (dt, 2.0 * dt))
        measured, coarse_sum, time_sum, space_sum = np.zeros((4, len(columns), len(weights)))
        for r, (c, _, w, _) in enumerate(rows):
            mass, time_error = _trapezoid(fine[r], geo.T)
            measured[c] += w * mass
            coarse_sum[c] += w * _trapezoid(coarse[r], geo.T)[0]
            time_sum[c] += w * time_error
            space_sum[c] += w * geo.T * edge_mass[r].max(axis=0)
        terms = {"propagation": np.abs(measured - coarse_sum) / 3.0,
                 "time_quadrature": time_sum, "space_quadrature": space_sum}
        return cls(scenario, geo, measured, terms)

    def report(self, c: int, j: int, kind: str, lower: float, terms: dict,
               **fields) -> CertificationReport:
        """Report of cell (column c, delta j): the shared fields plus the
        kind's own ``fields``.  ``err_budget`` holds the propagation, time
        and space terms, then the kind's own ``terms``, and ``eps_num`` is
        their ``math.fsum``: correctly rounded, so the same in any key order."""
        geo = self.geo
        budget = {k: float(v[c, j]) for k, v in self.terms.items()}
        budget.update(terms)
        eps = math.fsum(budget.values())
        m = float(self.measured[c, j])
        return CertificationReport(
            schema_version=SCHEMA_VERSION, scenario=self.scenario, kind=kind, T=geo.T,
            delta=geo.deltas[j], lip_grad=geo.lip, d_K=geo.K.diameter,
            gc_satisfied=geo.gc_satisfied, c_geo=geo.c_geo,
            c_geo_refine_delta=geo.c_geo_refine_delta, chi_geo=geo.chi_geo[j],
            lower_bound=lower, measured=m, margin=m - lower, eps_num=eps,
            verdict=_verdict(lower, m, eps), err_budget=budget, left_box=geo.left_box,
            **fields)


def certify_pure_sweep(geo: GeometricSummary, psis: Sequence[WaveFunction], *,
                       dt: float, scenario: str = "") -> list[CertificationReport]:
    """Certificates for pure initial states, one per hbar column, over the
    summary's enlargement radii; reports come in (column, delta) order.

    lower bound:   c_geo * husimi_mass - 8 D(T, lip) * spread / delta
    measured side: observed mass on the delta-enlargement of the region.
    ``geo`` is the problem: ``classical.geometric_summary`` of
    (V, K, omega, T, deltas), which it carries.
    """
    if not all(abs(psi.norm - 1.0) <= 1e-8 for psi in psis):     # NaN fails too
        raise ValueError("initial state must be normalized")
    sweep = _Sweep.measure(geo, [[(psi, 1.0, f"hbar={psi.hbar:g}")] for psi in psis],
                           dt=dt, scenario=scenario)
    c_geo, c_geo_delta = geo.c_geo, geo.c_geo_refine_delta
    D = spread_coefficient(geo.T, geo.lip)

    reports = []
    for c, psi in enumerate(psis):
        dim = psi.grid.dim
        h_K, h_delta = phasespace.husimi_mass_refined(psi, geo.K)
        delta_psi = quantum.spread(psi)
        for j, delta in enumerate(geo.deltas):
            corr_used = 8.0 * D * delta_psi / delta
            lower = c_geo * h_K - corr_used
            reports.append(sweep.report(
                c, j, "pure", lower, {"c_geo_refinement": float(c_geo_delta * h_K),
                                      "husimi_refinement": float(c_geo * h_delta)},
                dim=dim, hbar=psi.hbar, lam=1.0,
                husimi_mass=h_K, husimi_refine_delta=h_delta, spread=delta_psi,
                d_const=D, correction_used=corr_used,
                correction_factor4=0.5 * corr_used,
                correction_factor1=D * delta_psi / delta,
                delta_min_state=delta_min_state(geo.T, geo.lip, c_geo, lower, delta_psi, h_K)))
    return reports


def certify_toeplitz_sweep(geo: GeometricSummary, Rs: Sequence[ToeplitzState],
                           grid: Grid, *, dt: float,
                           scenario: str = "") -> list[CertificationReport]:
    """Certificates for Toeplitz initial states (atomized symbols in K), one
    per hbar column; reports come in (column, delta) order.

    lower bound:   c_geo - C(T, lip) * sqrt(2 dim hbar) / delta
    measured side: weighted observed mass of the propagated atoms.
    ``geo`` is the problem: ``classical.geometric_summary`` of
    (V, K, omega, T, deltas), which it carries.
    """
    if not all(np.all(geo.K.contains(R.symbol.points)) for R in Rs):
        raise ValueError("all Toeplitz atoms must lie inside K")
    columns = [[(R.atom_state(j, grid), w, f"hbar={R.hbar:g}, atom {j}")
                for j, w in enumerate(R.symbol.weights) if w != 0.0] for R in Rs]
    sweep = _Sweep.measure(geo, columns, dt=dt, scenario=scenario)
    c_geo, c_geo_delta = geo.c_geo, geo.c_geo_refine_delta
    c_tl, lam_star = toeplitz_coefficient_details(geo.T, geo.lip)

    reports = []
    for c, R in enumerate(Rs):
        dim = R.symbol.dim
        for j, delta in enumerate(geo.deltas):
            lower = c_geo - c_tl * math.sqrt(2.0 * dim * R.hbar) / delta
            reports.append(sweep.report(
                c, j, "toeplitz", lower, {"c_geo_refinement": float(c_geo_delta)},
                dim=dim, hbar=R.hbar, lam=lam_star, c_tl=c_tl))
    return reports
