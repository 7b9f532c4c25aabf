import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from obscert import classical, transport
from obscert.classical import PhasePoint
from obscert.quantum import coherent_state, cost_expectation, propagate
from obscert.transport import (
    AtomicMeasure, CostParams, coherent_cost_expectation, cost_matrix,
    growth_factor, pure_state_bound, toeplitz_bound, transport_distance,
    transport_plan,
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


def test_plan_rows_export(rng, tmp_path):
    import csv
    f, _ = random_measure(rng, 3, 6)
    mu, _ = random_measure(rng, 4, 6)
    _, plan = transport_plan(f, mu, 1.0)
    rows = transport.plan_rows(plan)
    assert math.fsum(m for _, _, m in rows) == pytest.approx(1.0, abs=1e-9)
    assert all(0 <= i < 3 and 0 <= j < 4 for i, j, _ in rows)
    path = tmp_path / "plan.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source_atom", "target_atom", "mass"])
        w.writerows(rows)
    assert len(path.read_text().splitlines()) == len(rows) + 1


# ---------------------------------------------------------------------------
# cost expectation on coherent atoms
# ---------------------------------------------------------------------------

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


def test_pure_state_bound(grid512):
    psi = coherent_state(grid512, HBAR, 0.4, -0.2)
    assert pure_state_bound(psi) == pytest.approx(2.0 * math.sqrt(HBAR), abs=1e-8)
    from obscert.quantum import gaussian_state
    g = gaussian_state(grid512, HBAR, 0.0, 0.0, 0.5)
    expected = 2.0 * math.sqrt(0.25 / 2 + HBAR ** 2 / 0.5)
    assert pure_state_bound(g) == pytest.approx(expected, abs=1e-8)
    assert pure_state_bound(g) >= 2.0 * math.sqrt(HBAR)


# ---------------------------------------------------------------------------
# growth factor
# ---------------------------------------------------------------------------

def test_growth_factor_values():
    assert growth_factor(CostParams(lam=0.7, hbar=0.1), 2.0, 0.0) == 1.0
    assert growth_factor(CostParams(lam=1.0, hbar=0.1), 1.0, 1.0) \
        == pytest.approx(math.e, rel=1e-12)


def test_growth_factor_minimized_at_lam_equals_lip():
    lip, t = 1.7, 0.8
    best = growth_factor(CostParams(lam=lip, hbar=0.1), lip, t)
    for lam in (0.3, 0.9, 1.3, 2.5, 6.0):
        assert growth_factor(CostParams(lam=lam, hbar=0.1), lip, t) >= best - 1e-12


def test_growth_factor_overflow_saturates():
    assert growth_factor(CostParams(lam=1.0, hbar=0.1), 44.0, 2.0) == math.inf
    # lip ** 2 itself overflows past lip ~ 1.3e154
    assert growth_factor(CostParams(lam=1.0, hbar=0.1), 1.2e161, 2.0) == math.inf


def test_pushforward_stays_below_growth_bound(grid512, harm):
    # single-atom coupling along the flow: quantum cost expectation at the
    # pushed-forward center stays below the growth factor times initial cost
    x0, xi0 = 1.0, 0.0
    psi0 = coherent_state(grid512, HBAR, x0, xi0)
    for lam in (0.5, 2.0):
        params = CostParams(lam=lam, hbar=HBAR)
        init = math.sqrt(0.5 * (lam ** 2 + 1) * HBAR)
        for t in (0.6, 1.4):
            pt = classical.flow(harm, PhasePoint([x0], [xi0]), t, 1e-4)
            psi_t = propagate(harm, psi0, t, 1e-3)
            cost = math.sqrt(cost_expectation(psi_t, pt.x, pt.xi, lam))
            assert cost <= growth_factor(params, harm.lip_grad, t) * init + 1e-6


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
    params = CostParams(lam=lam, hbar=HBAR)
    W = np.diag([lam ** 2, 1.0])
    sigma0 = 0.5 * HBAR * np.eye(2)
    cost0 = np.trace(W @ sigma0)
    for t in np.linspace(0.0, 4.0, 401):
        phi = expm(t * np.array([[0.0, 1.0], [-k, 0.0]]))
        cost = np.trace(W @ phi @ sigma0 @ phi.T)
        assert cost <= growth_factor(params, abs(k), t) ** 2 * cost0 * (1.0 + 1e-12), t


def dense_transport_plan(f, mu, lam):
    """Reference: the same LP with the equality rows built densely, one by one."""
    from scipy.optimize import linprog
    n, m = len(f.weights), len(mu.weights)
    C = cost_matrix(f, mu, lam)
    a_eq, b_eq = [], []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(f.weights[i])
    for j in range(m - 1):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        a_eq.append(col)
        b_eq.append(mu.weights[j])
    res = linprog(C.reshape(-1), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    plan = res.x.reshape(n, m)
    return float(np.sum(plan * C)), plan


def random_pair(n, seed=1):
    rng = np.random.default_rng(seed)
    return (AtomicMeasure(rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n)),
            AtomicMeasure(rng.standard_normal((n, 2)) + 0.3, rng.uniform(0.0, 1.0, n)))


@pytest.mark.parametrize("lam", [1.0, 0.7])
def test_sparse_plan_matches_dense_reference(lam):
    f, mu = random_pair(64)
    cost, plan = transport_plan(f, mu, lam)
    ref_cost, ref_plan = dense_transport_plan(f, mu, lam)
    np.testing.assert_array_equal(plan, ref_plan)
    assert cost == ref_cost


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
