import itertools
import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linprog

from obscert import certify, classical, phasespace, quantum, transport
from obscert.classical import PhasePoint
from obscert.quantum import coherent_state, cost_expectation, propagate
from obscert.transport import (
    AtomicMeasure, CostParams, coherent_cost_expectation, cost_matrix,
    toeplitz_bound, transport_distance, transport_plan,
)

HBAR = 0.1


def random_measure(rng, n_atoms, unit_total):
    """Atoms with weights k_i / unit_total so instances expand to unit masses."""
    counts = rng.multinomial(unit_total, np.ones(n_atoms) / n_atoms)
    while np.any(counts == 0):
        counts = rng.multinomial(unit_total, np.ones(n_atoms) / n_atoms)
    points = rng.uniform(-2, 2, size=(n_atoms, 2))
    return AtomicMeasure(points, counts / unit_total), counts


def brute_force_cost(f, counts_f, mu, counts_mu, lam, unit_total):
    """Exact optimum by enumerating every assignment of expanded unit atoms."""
    src = np.repeat(np.arange(len(counts_f)), counts_f)
    dst = np.repeat(np.arange(len(counts_mu)), counts_mu)
    C = cost_matrix(f, mu, lam)
    best = math.inf
    for perm in itertools.permutations(range(unit_total)):
        cost = sum(C[src[i], dst[perm[i]]] for i in range(unit_total))
        best = min(best, cost)
    return best / unit_total


# ---------------------------------------------------------------------------
# Monge-Kantorovich distance
# ---------------------------------------------------------------------------

def test_distance_to_self_is_zero(rng):
    f, _ = random_measure(rng, 4, 6)
    assert transport_distance(f, f, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_one_atomic_measure_class():
    # the transport LP's measures and the Toeplitz symbols are one type
    assert transport.AtomicMeasure is phasespace.AtomicMeasure


def test_two_unit_atoms():
    f = AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    mu = AtomicMeasure(np.array([[0.6, 0.8]]), np.array([1.0]))
    assert transport_distance(f, mu, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_matches_brute_force_enumeration(rng):
    for _ in range(6):
        unit_total = int(rng.integers(4, 7))
        f, cf = random_measure(rng, int(rng.integers(2, 5)), unit_total)
        mu, cm = random_measure(rng, int(rng.integers(2, 5)), unit_total)
        lam = float(rng.uniform(0.5, 2.0))
        exact = brute_force_cost(f, cf, mu, cm, lam, unit_total)
        lp = transport_distance(f, mu, lam) ** 2
        assert abs(lp - exact) <= 1e-9


def test_metric_properties(rng):
    for _ in range(5):
        f, _ = random_measure(rng, 3, 5)
        g, _ = random_measure(rng, 4, 5)
        h, _ = random_measure(rng, 3, 5)
        dfg = transport_distance(f, g, 1.0)
        dgf = transport_distance(g, f, 1.0)
        assert dfg == pytest.approx(dgf, abs=1e-9)
        dfh = transport_distance(f, h, 1.0)
        dhg = transport_distance(h, g, 1.0)
        assert dfg <= dfh + dhg + 1e-9


def test_plan_is_feasible(rng):
    f, _ = random_measure(rng, 3, 6)
    mu, _ = random_measure(rng, 5, 6)
    _, plan = transport_plan(f, mu, 1.3)
    assert np.all(plan >= -1e-12)
    assert plan.sum(axis=1) == pytest.approx(f.weights, abs=1e-10)
    assert plan.sum(axis=0) == pytest.approx(mu.weights, abs=1e-10)


def test_atom_cap():
    pts = np.zeros((513, 2))
    w = np.full(513, 1.0 / 513)
    big = AtomicMeasure(pts, w)
    with pytest.raises(ValueError, match="out of scope"):
        transport_plan(big, big, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_atoms_are_rejected(bad):
    pts = np.zeros((3, 2))
    pts[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        AtomicMeasure(pts, np.ones(3))


def test_overflowing_cost_fails_by_name(monkeypatch):
    # finite atoms whose squared distances overflow: no solve, no estimate
    monkeypatch.setattr(transport, "linprog", None)
    monkeypatch.setattr(transport, "_dual_estimate", None)
    f = AtomicMeasure(np.array([[1e200, 0.0], [0.0, 0.0]]), np.ones(2))
    mu = AtomicMeasure(np.array([[-1e200, 0.0]]), np.ones(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflows"):
            transport_plan(f, mu, 1.0)


@pytest.mark.parametrize("lam", [-1.0, 0.0, 1e200, math.nan, math.inf])
def test_lambda_is_checked_by_name(lam):
    # -1 used to give cost 0, 1e200 an OverflowError from lam ** 2, and NaN
    # and inf the message of an overflowing cost
    f = AtomicMeasure(np.array([[0.0, 0.0], [1.0, 0.5]]), np.ones(2))
    with pytest.raises(ValueError, match="lambda"):
        transport_plan(f, f, lam)
    with pytest.raises(ValueError, match="lambda"):
        CostParams(lam, 0.1)


@pytest.mark.parametrize("hbar", [-0.1, math.nan, math.inf])
def test_hbar_is_checked_by_name(hbar):
    # CostParams(1.0, nan) used to give standard = constructive = nan
    with pytest.raises(ValueError, match="hbar"):
        CostParams(1.0, hbar)


def test_cost_expectation_examples():
    p = CostParams(lam=1.0, hbar=0.1)
    assert coherent_cost_expectation([0.0], [0.0], [0.0], [0.0], p) \
        == pytest.approx(0.1)
    p0 = CostParams(lam=1.0, hbar=0.0)
    assert coherent_cost_expectation([1.0], [0.0], [0.0], [0.0], p0) \
        == pytest.approx(1.0)


def test_cost_expectation_quadrature_oracle(grid1024, rng):
    for _ in range(3):
        lam = float(rng.uniform(0.5, 2.0))
        q, pm = rng.uniform(-1, 1, size=2)
        x, xi = rng.uniform(-2, 2, size=2)
        psi = coherent_state(grid1024, HBAR, q, pm)
        grid_val = cost_expectation(psi, [x], [xi], lam)
        closed = coherent_cost_expectation([x], [xi], [q], [pm],
                                           CostParams(lam=lam, hbar=HBAR))
        assert grid_val == pytest.approx(closed, abs=1e-6)


# ---------------------------------------------------------------------------
# coupling bounds
# ---------------------------------------------------------------------------

def test_toeplitz_bound_pure_offset():
    f = AtomicMeasure(np.array([[0.3, -0.4]]), np.array([1.0]))
    b = toeplitz_bound(f, f, CostParams(lam=1.0, hbar=0.1))
    assert b.standard == pytest.approx(math.sqrt(0.1), abs=1e-12)
    assert b.constructive == pytest.approx(math.sqrt(0.1), abs=1e-12)


def test_toeplitz_bound_classical_limit(rng):
    f, _ = random_measure(rng, 3, 5)
    mu, _ = random_measure(rng, 4, 5)
    lam = 2.0
    b = toeplitz_bound(f, mu, CostParams(lam=lam, hbar=0.0))
    assert b.standard == pytest.approx(lam * transport_distance(f, mu, 1.0), abs=1e-9)


def test_constructive_bound_matches_plan_summation(rng):
    # summing the coherent cost expectation over the optimal plan reproduces
    # the lam-weighted plan cost plus the coherent offset
    f, _ = random_measure(rng, 2, 4)
    mu, _ = random_measure(rng, 2, 4)
    params = CostParams(lam=1.7, hbar=0.05)
    cost2, plan = transport_plan(f, mu, params.lam)
    total = 0.0
    d = f.dim
    for i in range(len(f.weights)):
        for j in range(len(mu.weights)):
            if plan[i, j] <= 0:
                continue
            total += plan[i, j] * coherent_cost_expectation(
                f.points[i, :d], f.points[i, d:],
                mu.points[j, :d], mu.points[j, d:], params)
    b = toeplitz_bound(f, mu, params)
    assert total == pytest.approx(b.constructive ** 2, abs=1e-9)


def test_bound_floor(rng):
    f, _ = random_measure(rng, 3, 5)
    mu, _ = random_measure(rng, 3, 5)
    for lam in (0.5, 1.0, 2.0):
        params = CostParams(lam=lam, hbar=0.2)
        floor = math.sqrt(0.5 * (lam ** 2 + 1) * 1 * 0.2)
        b = toeplitz_bound(f, mu, params)
        assert b.standard >= floor - 1e-12
        assert b.constructive >= floor - 1e-12


def recorded_plans(monkeypatch, lps, fail=False):
    """On two cores, replace transport_plan by a stand-in that records
    (lam, thread) and returns cost 1, or raises ValueError naming lam (the
    lam = 1 call 0.1 s after the other).  The bound asks for `lps` LPs; when
    it asks for two (lam != 1), they first meet at a barrier, which breaks
    after 10 s unless both run at once."""
    monkeypatch.setattr(quantum, "cores", lambda: 2)
    calls, barrier = [], threading.Barrier(lps, timeout=10)

    def plan(f, mu, lam=1.0):
        calls.append((lam, threading.get_ident()))
        barrier.wait()
        if fail:
            time.sleep(0.1 if lam == 1.0 else 0.0)
            raise ValueError(f"lp at lam {lam}")
        return 1.0, None

    monkeypatch.setattr(transport, "transport_plan", plan)
    return calls


@pytest.mark.parametrize("lam, lps", [(1.0, 1), (0.7, 2), (1.3, 2)])
def test_toeplitz_bound_solves_one_lp_at_lam_one(lam, lps, monkeypatch):
    calls = recorded_plans(monkeypatch, lps)
    toeplitz_bound(*random_pair(8), CostParams(lam, 0.05))
    assert sorted(c[0] for c in calls) == sorted({1.0, lam})
    assert len(calls) == lps


@pytest.mark.parametrize("n", [64, 128, 192])
@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_toeplitz_bound_equals_sequential_distances(n, lam):
    f, mu = random_pair(n, seed=n)
    params = CostParams(lam, 0.05)
    b = toeplitz_bound(f, mu, params)
    w_std, w_lam = transport_distance(f, mu, 1.0), transport_distance(f, mu, lam)
    offset = 0.5 * (lam ** 2 + 1.0) * f.dim * params.hbar
    assert b.standard == math.sqrt(max(1.0, lam ** 2) * w_std ** 2 + offset)
    assert b.constructive == math.sqrt(w_lam ** 2 + offset)


def test_priced_lps_run_on_two_threads(monkeypatch):
    calls = recorded_plans(monkeypatch, 2)
    toeplitz_bound(*random_pair(8), CostParams(0.7, 0.05))
    assert sorted(c[0] for c in calls) == [0.7, 1.0]
    idents = {c[1] for c in calls}
    assert len(idents) == 2 and threading.get_ident() in idents


@pytest.mark.parametrize("n", [8, 100])
def test_toeplitz_bound_raises_the_lam_one_error_first(n, monkeypatch):
    # the LPs run concurrently, the lam = 1 LP fails last and its error wins
    recorded_plans(monkeypatch, 2, fail=True)
    with pytest.raises(ValueError, match="lp at lam 1.0"):
        toeplitz_bound(*random_pair(n), CostParams(0.7, 0.05))


# ---------------------------------------------------------------------------
# growth factor
# ---------------------------------------------------------------------------

def test_growth_factor_values():
    assert certify.growth_factor(0.7, 2.0, 0.0) == 1.0
    assert certify.growth_factor(1.0, 1.0, 1.0) \
        == pytest.approx(math.e, rel=1e-12)


def test_growth_factor_minimized_at_lam_equals_lip():
    lip, t = 1.7, 0.8
    best = certify.growth_factor(lip, lip, t)
    for lam in (0.3, 0.9, 1.3, 2.5, 6.0):
        assert certify.growth_factor(lam, lip, t) >= best - 1e-12


def test_growth_factor_overflow_saturates():
    assert certify.growth_factor(1.0, 44.0, 2.0) == math.inf
    # lip ** 2 itself overflows past lip ~ 1.3e154
    assert certify.growth_factor(1.0, 1.2e161, 2.0) == math.inf


def test_growth_factor_at_zero_time_with_saturated_rate():
    # the rate saturates to +inf, and 0.5 * inf * 0 is NaN: the factor is still 1
    assert certify.growth_factor(1.0, math.inf, 0.0) == 1.0
    assert certify.growth_factor(1.0, 1.2e161, 0.0) == 1.0


def test_pushforward_stays_below_growth_bound(grid512, harm):
    # single-atom coupling along the flow: quantum cost expectation at the
    # pushed-forward center stays below the growth factor times initial cost
    x0, xi0 = 1.0, 0.0
    psi0 = coherent_state(grid512, HBAR, x0, xi0)
    for lam in (0.5, 2.0):
        init = math.sqrt(0.5 * (lam ** 2 + 1) * HBAR)
        for t in (0.6, 1.4):
            pt = classical.flow(harm, PhasePoint([x0], [xi0]), t, 1e-4)
            psi_t = propagate(harm, psi0, t, 1e-3)
            cost = math.sqrt(cost_expectation(psi_t, pt.x, pt.xi, lam))
            assert cost <= certify.growth_factor(lam, harm.lip_grad, t) * init + 1e-6


# For V = k x^2 / 2 the flow is linear, Phi_t = exp(t [[0, 1], [-k, 0]]), so a
# coherent atom's covariance (hbar/2) I moves exactly to Phi_t (hbar/2) I Phi_t^T
# and its cost against its centre's trajectory is tr(W Phi_t Sigma_0 Phi_t^T),
# W = diag(lam^2, 1).  The growth factor bounds it (squared) only where the rate
# is a bound: the pairs below exceed it by the listed max over t of
# sqrt(cost(t) / cost(0)) / growth_factor(t).
RATE_DEFECTS = {(-0.25, 0.25): 1.659, (-0.5, 0.5): 1.537, (-0.25, 0.5): 1.497,
                (-0.1, 0.1): 1.371, (-0.1, 0.25): 1.31, (-0.1, 0.5): 1.071,
                (-0.5, 1.0): 1.041}


def _gaussian_case(k, lam):
    marks = ()
    if (k, lam) in RATE_DEFECTS:
        marks = pytest.mark.xfail(
            raises=AssertionError,
            reason="ROADMAP item 1: lam + L^2/lam is not a bound for L < 1 "
                   f"(measured ratio {RATE_DEFECTS[k, lam]})")
    return pytest.param(k, lam, marks=marks, id=f"k{k:g}_lam{lam:g}")


@pytest.mark.parametrize("k, lam", [_gaussian_case(k, lam)
                                    for k in (-2.0, -1.0, -0.5, -0.25, -0.1, 0.0, 0.25, 1.0)
                                    for lam in (0.1, 0.25, 0.5, 1.0, 2.0)])
def test_exact_gaussian_cost_below_growth_factor(k, lam):
    W = np.diag([lam ** 2, 1.0])
    sigma0 = 0.5 * HBAR * np.eye(2)
    cost0 = np.trace(W @ sigma0)
    for t in np.linspace(0.0, 4.0, 401):
        phi = expm(t * np.array([[0.0, 1.0], [-k, 0.0]]))
        cost = np.trace(W @ phi @ sigma0 @ phi.T)
        assert cost <= certify.growth_factor(lam, abs(k), t) ** 2 * cost0 * (1.0 + 1e-12), t


def random_pair(n, seed=1):
    rng = np.random.default_rng(seed)
    return (AtomicMeasure(rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n)),
            AtomicMeasure(rng.standard_normal((n, 2)) + 0.3, rng.uniform(0.0, 1.0, n)))


def test_plan_memory_at_128_atoms():
    # the dense equality matrix alone takes 33 MB at 128 atoms
    f, mu = random_pair(128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        transport_plan(f, mu)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def full_transport_plan(f, mu, lam):
    """Reference: the LP on all n * m edges, equality rows built by Kronecker
    products (sparse, so it fits at 192 atoms)."""
    n, m = len(f.weights), len(mu.weights)
    C = cost_matrix(f, mu, lam)
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m, format="csr")[:m - 1])])
    b_eq = np.concatenate([f.weights, mu.weights[:m - 1]])
    res = linprog(C.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    plan = res.x.reshape(n, m)
    return float(np.sum(plan * C)), plan


def counted_linprog(monkeypatch):
    """Replace transport's linprog by a wrapper; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", counting)
    return calls


def assert_marginals(plan, f, mu, tol):
    assert np.max(np.abs(plan.sum(axis=1) - f.weights)) <= tol
    assert np.max(np.abs(plan.sum(axis=0) - mu.weights)) <= tol


def test_pricing_loop_reaches_the_full_optimum(monkeypatch):
    # a zero dual estimate (so partners are ranked by C) and one partner per
    # atom plus the north-west corner is far from optimal: edges priced
    # negative must enter until the duals are feasible everywhere
    monkeypatch.setattr(transport, "_dual_estimate",
                        lambda C, a, b: (np.zeros(len(a)), np.zeros(len(b))))
    monkeypatch.setattr(transport, "_NEAREST", 1)
    calls = counted_linprog(monkeypatch)
    f, mu = random_pair(40)
    cost, plan = transport_plan(f, mu, 1.0)
    ref_cost, _ = full_transport_plan(f, mu, 1.0)
    assert len(calls) > 1
    assert calls[0] < 40 * 40 // 4
    assert abs(cost - ref_cost) <= 1e-12 * ref_cost
    assert_marginals(plan, f, mu, 1e-12)
    assert np.all(plan >= 0)


def degenerate_pair(case):
    rng = np.random.default_rng(24)
    if case == "zero_weights":
        wf, wm = rng.uniform(0.5, 1.0, 100), rng.uniform(0.5, 1.0, 100)
        wf[::3] = 0.0
        wm[::3] = 0.0
        return (AtomicMeasure(rng.standard_normal((100, 2)), wf),
                AtomicMeasure(rng.standard_normal((100, 2)) + 0.3, wm), 1.0)
    if case == "identical_points":
        pts = np.tile([0.3, -0.2], (80, 1))
        return (AtomicMeasure(pts, rng.uniform(0.0, 1.0, 80)),
                AtomicMeasure(pts, rng.uniform(0.0, 1.0, 80)), 1.0)
    if case in ("300x100", "1x500"):
        n, m = (300, 100) if case == "300x100" else (1, 500)
        return (AtomicMeasure(rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n)),
                AtomicMeasure(rng.standard_normal((m, 2)), rng.uniform(0.0, 1.0, m)), 1.0)
    if case == "lattice_ties":
        axis = np.arange(12.0)
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        w = np.ones(len(pts))
        return AtomicMeasure(pts, w), AtomicMeasure(pts + 0.5, w), 1.0
    if case == "dim2_lam07":
        return (AtomicMeasure(rng.standard_normal((120, 4)), rng.uniform(0.0, 1.0, 120)),
                AtomicMeasure(rng.standard_normal((120, 4)) + 0.3,
                              rng.uniform(0.0, 1.0, 120)), 0.7)
    if case == "two_clusters":
        shift = np.where(np.arange(100) < 50, 0.0, 1e3)[:, None]
        return (AtomicMeasure(rng.standard_normal((100, 2)) + shift, rng.uniform(0.0, 1.0, 100)),
                AtomicMeasure(rng.standard_normal((100, 2)) + shift[::-1],
                              rng.uniform(0.0, 1.0, 100)), 1.0)
    assert case == "scaled_1e6"
    f, mu = random_pair(100, seed=7)
    return (AtomicMeasure(f.points * 1e6, f.weights),
            AtomicMeasure(mu.points * 1e6, mu.weights), 1.0)


@pytest.mark.parametrize("case", ["zero_weights", "identical_points", "300x100", "1x500",
                                  "lattice_ties", "dim2_lam07", "two_clusters", "scaled_1e6"])
def test_degenerate_inputs_match_the_full_lp(case):
    f, mu, lam = degenerate_pair(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cost, plan = transport_plan(f, mu, lam)
    ref_cost, _ = full_transport_plan(f, mu, lam)
    assert abs(cost - ref_cost) <= 1e-12 * abs(ref_cost)
    assert_marginals(plan, f, mu, 1e-9)


@pytest.mark.parametrize("pair", ["3x5", "64", "192"])
@pytest.mark.parametrize("lam", [1.0, 0.7])
def test_plan_matches_the_full_lp(pair, lam, monkeypatch):
    calls = counted_linprog(monkeypatch)
    if pair == "3x5":
        rng = np.random.default_rng(35)
        f = AtomicMeasure(rng.standard_normal((3, 2)), rng.uniform(0.0, 1.0, 3))
        mu = AtomicMeasure(rng.standard_normal((5, 2)), rng.uniform(0.0, 1.0, 5))
    else:
        f, mu = random_pair(int(pair), seed=1 if pair == "64" else 3)
    n, m = len(f.weights), len(mu.weights)
    cost, plan = transport_plan(f, mu, lam)
    ref_cost, _ = full_transport_plan(f, mu, lam)
    if min(n, m) > transport._NEAREST:
        assert all(k < n * m for k in calls)
    else:                                   # every atom's partners are the whole other side
        assert calls == [n * m]
    assert abs(cost - ref_cost) <= 1e-12 * ref_cost
    assert_marginals(plan, f, mu, 1e-9)
    assert cost == float(np.sum(plan * cost_matrix(f, mu, lam)))


def test_north_west_corner_is_the_classic_staircase():
    f, mu = random_pair(30, seed=5)
    ia, ib = np.argsort(f.points[:, 0]), np.argsort(mu.points[:, 0])
    a, b = f.weights[ia].copy(), mu.weights[ib].copy()
    # the classic rule on the sorted atoms: fill (i, j), then leave the row or
    # column whose mass is used up; the filled masses form a feasible plan
    expected = np.zeros((30, 30), dtype=bool)
    i = j = 0
    while True:
        expected[i, j] = True
        if i == j == 29:
            break
        if j == 29 or (i < 29 and a[i] < b[j]):
            b[j] -= a[i]
            i += 1
        else:
            a[i] -= b[j]
            j += 1
    assert np.count_nonzero(expected) == 30 + 30 - 1
    np.testing.assert_array_equal(transport._north_west_corner(f, mu)[np.ix_(ia, ib)],
                                  expected)
