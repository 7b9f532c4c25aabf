"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs at desk scale (dim 1, n <= 4096); the soundness suite covers
three potentials x three state families x two hbar values end to end.
"""

import itertools
import math
import time

import numpy as np
from scipy.optimize import brentq

from obscert import certify, classical, phasespace, potentials, quantum, scenario, transport
from obscert.classical import CompactSet, PhasePoint, Region
from obscert.quantum import Grid, coherent_state, cost_expectation, gaussian_state, \
    inner, propagate, second_moment, spread, superposition
from obscert.transport import AtomicMeasure, CostParams, cost_matrix, growth_factor, \
    transport_distance

PI = math.pi


# ---------------------------------------------------------------------------
# scenario definitions shared by criteria 1, 2 and 9
# ---------------------------------------------------------------------------

FREE_GEOM = {
    "potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0]},
    "K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 0.1},
    "omega": {"boxes": [[-2.7, 8.0]]},
    "T": 2.0,
    "numerics": {"n": 1024, "length": 20.0, "dt": 1e-3, "dt_flow": 1e-3},
}
HARM_GEOM = {
    "potential": {"kind": "harmonic", "dim": 1, "box": [-8.0, 8.0]},
    "K": {"boxes": [[[0.7, 1.3], [-0.3, 0.3]]], "spacing": 0.1},
    "omega": {"boxes": [[0.2, 2.0]]},
    "T": PI / 2,
    "numerics": {"n": 1024, "length": 16.0, "dt": 1e-3, "dt_flow": 1e-3},
}
DWELL_GEOM = {
    "potential": {"kind": "double_well", "dim": 1, "box": [-2.0, 2.0]},
    "K": {"boxes": [[[0.8, 1.2], [-0.2, 0.2]]], "spacing": 0.1},
    "omega": {"boxes": [[0.5, 1.5]]},
    "T": 1.0,
    "numerics": {"n": 1024, "length": 16.0, "dt": 1e-3, "dt_flow": 1e-3},
}

STATES = {
    "free": {
        "coherent": {"kind": "coherent", "q": -2.5, "p": 1.25},
        "gaussian": {"kind": "gaussian", "q": -2.5, "p": 1.25, "sigma": 0.35},
        "toeplitz": {"kind": "toeplitz",
                     "atoms": [[-2.7, 1.1, 0.5], [-2.3, 1.4, 0.5]]},
    },
    "harmonic": {
        "coherent": {"kind": "coherent", "q": 1.0, "p": 0.0},
        "gaussian": {"kind": "gaussian", "q": 1.0, "p": 0.0, "sigma": 0.3},
        "toeplitz": {"kind": "toeplitz",
                     "atoms": [[0.9, -0.1, 0.5], [1.1, 0.1, 0.5]]},
    },
    "double_well": {
        "coherent": {"kind": "coherent", "q": 1.0, "p": 0.0},
        "gaussian": {"kind": "gaussian", "q": 1.0, "p": 0.0, "sigma": 0.25},
        "toeplitz": {"kind": "toeplitz",
                     "atoms": [[0.95, -0.05, 0.5], [1.05, 0.05, 0.5]]},
    },
}

GEOMS = {"free": FREE_GEOM, "harmonic": HARM_GEOM, "double_well": DWELL_GEOM}


def soundness_configs():
    configs = []
    for vname, geom in GEOMS.items():
        for sname, state in STATES[vname].items():
            cfg = dict(geom)
            cfg["scenario"] = f"{vname}_{sname}"
            cfg["state"] = state
            cfg["deltas"] = [2.0, 10.0]
            cfg["hbars"] = [0.05, 0.2]
            configs.append(cfg)
    return configs


# ---------------------------------------------------------------------------
# 1. soundness
# ---------------------------------------------------------------------------

def test_criterion_01_soundness_suite():
    start = time.time()
    reports = []
    for cfg in soundness_configs():
        reports.extend(scenario.run_scenario(scenario.parse(cfg)))
    elapsed = time.time() - start
    cells = {(r.scenario, r.hbar) for r in reports}
    assert len(cells) >= 12
    assert len(reports) >= 24
    violated = [r for r in reports if r.verdict == "violated"]
    assert not violated
    for r in reports:
        assert r.measured >= r.lower_bound - r.eps_num, \
            f"{r.scenario} hbar={r.hbar} delta={r.delta}"
        # report invariants
        assert (r.verdict == "vacuous") == (r.lower_bound <= 0)
        if r.verdict == "certified":
            assert r.lower_bound > 0 and r.margin >= 0
        assert r.chi_geo >= r.c_geo - 1e-9    # ramp cutoff dominates indicator
    certified = sum(r.verdict == "certified" for r in reports)
    assert certified >= 6          # the suite is not vacuous across the board
    assert elapsed <= 600.0
    print(f"\nPASS criterion 1: soundness - {len(cells)} scenario cells, "
          f"{len(reports)} reports, {certified} certified, 0 violated, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Heisenberg and coherent-state identities
# ---------------------------------------------------------------------------

def test_criterion_02_spread_identities():
    grid = Grid(dim=1, n=1024, length=16.0)
    for hbar in (0.05, 0.1, 0.2):
        for q, p in [(0.0, 0.0), (0.7, -0.6), (-1.0, 1.0)]:
            psi = coherent_state(grid, hbar, q, p)
            assert abs(spread(psi) - math.sqrt(hbar)) < 1e-8
    grid2 = Grid(dim=2, n=256, length=16.0)
    psi2 = coherent_state(grid2, 0.1, [0.3, -0.3], [0.2, 0.0])
    assert abs(spread(psi2) - math.sqrt(2 * 0.1)) < 1e-8

    floor_states = [
        coherent_state(grid, 0.1, 0.0, 0.0),
        gaussian_state(grid, 0.1, 0.5, -0.5, 0.3),
        gaussian_state(grid, 0.1, 0.0, 1.0, 0.8),
        superposition([coherent_state(grid, 0.1, -1.0, 0.0),
                       coherent_state(grid, 0.1, 1.0, 0.0)], [1.0, 1.0]),
        propagate(potentials.double_well(), coherent_state(grid, 0.1, 1.0, 0.0),
                  0.8, 1e-3),
    ]
    for vname, geom in GEOMS.items():
        g = Grid(dim=1, n=geom["numerics"]["n"], length=geom["numerics"]["length"])
        K = scenario.build_compact_set(geom, 1)
        for sname, st in STATES[vname].items():
            for hbar in (0.05, 0.2):
                built = scenario.build_state(scenario.parse_state(st, 1, K), g, hbar)
                if isinstance(built, quantum.WaveFunction):
                    floor_states.append(built)
    for psi in floor_states:
        assert spread(psi) ** 2 >= psi.grid.dim * psi.hbar - 1e-9
    print(f"\nPASS criterion 2: spread identities on {len(floor_states)} states")


# ---------------------------------------------------------------------------
# 3. resolution of identity
# ---------------------------------------------------------------------------

def test_criterion_03_resolution_of_identity():
    grid = Grid(dim=1, n=1024, length=16.0)
    hbar = 0.1
    states = [
        ("coherent at origin", coherent_state(grid, hbar, 0.0, 0.0), 0.0, 0.0),
        ("coherent displaced", coherent_state(grid, hbar, 0.8, -0.7), 0.8, -0.7),
        ("wide gaussian", gaussian_state(grid, hbar, 0.0, 0.0, 0.5), 0.0, 0.0),
        ("boosted narrow gaussian", gaussian_state(grid, hbar, 1.0, 0.5, 0.2), 1.0, 0.5),
        ("two-bump superposition",
         superposition([coherent_state(grid, hbar, -0.9, 0.0),
                        coherent_state(grid, hbar, 0.9, 0.0)], [1.0, 1.0]), 0.0, 0.0),
    ]
    for name, psi, q0, p0 in states:
        q = np.linspace(q0 - 3.5, q0 + 3.5, 141)
        p = np.linspace(p0 - 3.5, p0 + 3.5, 141)
        total = phasespace.husimi(psi, q, p).integral()
        assert abs(total - 1.0) <= 1e-4, name
    print("\nPASS criterion 3: Husimi integral = 1 (1e-4) for 5 states")


# ---------------------------------------------------------------------------
# 4. coherent cost expectation
# ---------------------------------------------------------------------------

def test_criterion_04_cost_expectation_quadrature():
    rng = np.random.default_rng(55)
    grid = Grid(dim=1, n=2048, length=20.0)
    worst = 0.0
    for _ in range(10):
        q, p = rng.uniform(-1.5, 1.5, size=2)
        x, xi = rng.uniform(-2.0, 2.0, size=2)
        lam = float(rng.uniform(0.4, 2.5))
        hbar = float(rng.uniform(0.05, 0.25))
        psi = coherent_state(grid, hbar, q, p)
        numeric = cost_expectation(psi, [x], [xi], lam)
        closed = transport.coherent_cost_expectation(
            [x], [xi], [q], [p], CostParams(lam=lam, hbar=hbar))
        worst = max(worst, abs(numeric - closed))
        assert abs(numeric - closed) <= 1e-6
    print(f"\nPASS criterion 4: cost expectation quadrature, worst |err| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. propagator
# ---------------------------------------------------------------------------

def test_criterion_05_propagator():
    # n = 256 over-resolves this state (10 points per wavelength) and keeps
    # the accumulated FFT roundoff of the 15708 steps below the 1e-12 budget
    grid = Grid(dim=1, n=256, length=16.0)
    hbar = 0.1
    harm = potentials.harmonic()
    psi0 = coherent_state(grid, hbar, 1.0, 0.0)
    psi_t = propagate(harm, psi0, PI / 2, 1e-4)
    target = coherent_state(grid, hbar, 0.0, -1.0)
    overlap = abs(inner(target, psi_t))
    assert overlap >= 1.0 - 1e-5
    assert abs(psi_t.norm - 1.0) <= 1e-12

    ref = propagate(harm, psi0, 1.0, 5e-4).values
    errs = []
    for dt in (8e-3, 4e-3):
        out = propagate(harm, psi0, 1.0, dt).values
        errs.append(np.sqrt(np.sum(np.abs(out - ref) ** 2) * grid.cell_volume))
    order = math.log2(errs[0] / errs[1])
    assert 1.6 <= order <= 2.4
    print(f"\nPASS criterion 5: overlap = {overlap:.8f}, norm drift "
          f"{abs(psi_t.norm - 1.0):.1e}, order = {order:.2f}")


# ---------------------------------------------------------------------------
# 6. optimal transport oracle
# ---------------------------------------------------------------------------

def _random_measure(rng, n_atoms, unit_total):
    counts = rng.multinomial(unit_total, np.ones(n_atoms) / n_atoms)
    while np.any(counts == 0):
        counts = rng.multinomial(unit_total, np.ones(n_atoms) / n_atoms)
    points = rng.uniform(-2, 2, size=(n_atoms, 2))
    return AtomicMeasure(points, counts / unit_total), counts


def test_criterion_06_transport_matches_enumeration():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        unit_total = int(rng.integers(4, 8))
        max_atoms = min(6, unit_total)
        f, cf = _random_measure(rng, int(rng.integers(2, max_atoms + 1)), unit_total)
        mu, cm = _random_measure(rng, int(rng.integers(2, max_atoms + 1)), unit_total)
        lam = float(rng.uniform(0.5, 2.0))
        src = np.repeat(np.arange(len(cf)), cf)
        dst = np.repeat(np.arange(len(cm)), cm)
        C = cost_matrix(f, mu, lam)
        best = min(sum(C[src[i], dst[j]] for i, j in enumerate(perm))
                   for perm in itertools.permutations(range(unit_total)))
        exact = best / unit_total
        lp = transport_distance(f, mu, lam) ** 2
        worst = max(worst, abs(lp - exact))
        assert abs(lp - exact) <= 1e-9
    print(f"\nPASS criterion 6: 20 instances vs exhaustive enumeration, "
          f"worst |err| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. constants
# ---------------------------------------------------------------------------

def lambda_equals_lip_forms(T, lip):
    """The two printed forms of the lam = lip upper bound of the Toeplitz
    coefficient: (e^{lip T}-1)/(2 lip) sqrt(1 + 1/lip^2) and
    (e^{lip T}-1)/(2 lip^2) sqrt(1 + lip^2)."""
    e = math.expm1(lip * T)
    return (e / (2.0 * lip) * math.sqrt(1.0 + 1.0 / lip ** 2),
            e / (2.0 * lip ** 2) * math.sqrt(1.0 + lip ** 2))


def test_criterion_07_constants():
    r = certify.balanced_growth_root()
    oracle = brentq(lambda s: s * math.exp(s) - 2.0 * (math.exp(s) - 1.0),
                    1.0, 2.0, xtol=1e-13)
    assert abs(r - 1.593624) <= 1e-6
    assert abs(r - oracle) <= 1e-9

    for T in (0.5, 1.0, 1.5, 2.0, 3.0):
        for lip in (0.25, 0.5, 1.0, 2.0, 4.0):
            f1, f2 = lambda_equals_lip_forms(T, lip)
            assert certify.toeplitz_coefficient(T, lip) <= f1 + 1e-12

    rng = np.random.default_rng(3)
    for _ in range(25):
        T = float(rng.uniform(0.2, 3.0))
        lip = float(rng.uniform(0.1, 5.0))
        f1, f2 = lambda_equals_lip_forms(T, lip)
        assert abs(f1 - f2) <= 1e-12 * max(1.0, abs(f1))
        # the value `constants` writes as lambda_equals_lip_bound
        assert abs(certify._growth_objective(T, lip, lip) - f1) <= 1e-12 * max(1.0, abs(f1))
    print(f"\nPASS criterion 7: root = {r:.9f}, coefficient below its bound "
          f"on the 5x5 grid, printed forms and the objective at lam = lip equal to 1e-12")


# ---------------------------------------------------------------------------
# 8. growth of the transport bound along the flow
# ---------------------------------------------------------------------------

def test_criterion_08_growth_bound_along_flow():
    hbar = 0.1
    grid = Grid(dim=1, n=1024, length=16.0)
    checks = 0
    for V, (x0, xi0) in [(potentials.harmonic(), (1.0, 0.0)),
                         (potentials.double_well(), (1.0, 0.0))]:
        psi0 = coherent_state(grid, hbar, x0, xi0)
        state, t_last = psi0, 0.0
        for t in (0.5, 1.0, 1.5, 2.0):
            state = propagate(V, state, t - t_last, 5e-4)
            t_last = t
            pt = classical.flow(V, PhasePoint([x0], [xi0]), t, 1e-4)
            for lam in (0.5, 1.0, 2.0):
                params = CostParams(lam=lam, hbar=hbar)
                init = math.sqrt(0.5 * (lam ** 2 + 1.0) * hbar)
                cost = math.sqrt(cost_expectation(state, pt.x, pt.xi, lam))
                bound = growth_factor(params, V.lip_grad, t) * init
                assert cost <= bound + 1e-6, (V.name, lam, t)
                checks += 1
    print(f"\nPASS criterion 8: constructive bound below growth factor "
          f"in {checks} checks")


# ---------------------------------------------------------------------------
# 9. second-moment domination of the coupling cost
# ---------------------------------------------------------------------------

def test_criterion_09_second_moment_domination():
    checks = 0
    for vname, geom in GEOMS.items():
        num = geom["numerics"]
        grid = Grid(dim=1, n=num["n"], length=num["length"])
        K = scenario.build_compact_set(geom | {"K": geom["K"]}, 1)
        for hbar in (0.05, 0.2):
            for sname, st in STATES[vname].items():
                built = scenario.build_state(scenario.parse_state(st, 1, K), grid, hbar)
                for lam in (0.5, 1.0, 2.0):
                    if isinstance(built, quantum.WaveFunction):
                        q0 = np.atleast_1d(st["q"])
                        p0 = np.atleast_1d(st["p"])
                        lhs = cost_expectation(built, q0, p0, lam)
                        rhs = 2.0 * (lam ** 2 * np.sum(q0 ** 2) + np.sum(p0 ** 2)) \
                            + 2.0 * second_moment(built, lam)
                    else:
                        lo_hi = K.boxes[0]
                        pts = np.stack([lo_hi[:, 0], lo_hi.mean(axis=1), lo_hi[:, 1]])
                        f = AtomicMeasure(pts, np.full(3, 1.0 / 3.0))
                        mu = AtomicMeasure(built.atoms, built.weights)
                        w_lam = transport_distance(f, mu, lam)
                        lhs = w_lam ** 2 + 0.5 * (lam ** 2 + 1.0) * hbar
                        rhs = 2.0 * f.second_moment(lam) + 2.0 * sum(
                            w * second_moment(built.atom_state(j, grid), lam)
                            for j, w in enumerate(built.weights))
                    assert lhs <= rhs + 1e-6, (vname, sname, hbar, lam)
                    checks += 1
    print(f"\nPASS criterion 9: coupling cost below twice the second moments "
          f"in {checks} instances")


# ---------------------------------------------------------------------------
# 10. delta monotonicity and sqrt(hbar) scaling
# ---------------------------------------------------------------------------

def test_criterion_10_sweep_monotonicity_and_scaling():
    # Table M: margins nondecreasing in delta at fixed hbar.  An oscillating
    # Toeplitz pair keeps mass arriving at the enlarged region's edge over the
    # whole delta range, which is what monotone margins require.
    harm = potentials.harmonic()
    K_m = CompactSet(np.array([[[-0.05, 0.05], [2.95, 3.05]],
                               [[-0.05, 0.05], [-3.05, -2.95]]]), 0.05)
    om_m = Region(np.array([[[-0.3, 0.3]]]))
    deltas_m = [1.9, 2.3, 2.8]
    rows_m = []
    geo_m = classical.geometric_summary(harm, K_m, om_m, 2.0, deltas_m, 1e-3)
    for hbar, n in [(0.0125, 4096), (0.05, 2048), (0.2, 2048)]:
        grid = Grid(dim=1, n=n, length=16.0)
        R = phasespace.toeplitz_from_density(
            [(0.0, 3.0, 0.5), (0.0, -3.0, 0.5)], hbar)
        reps = certify.certify_toeplitz_sweep(
            harm, K_m, om_m, 2.0, deltas_m, [R], grid, dt=1e-3, geo=geo_m,
            scenario="sweep_margin")
        margins = [r.margin for r in reps]
        assert all(b >= a - 1e-9 for a, b in zip(margins, margins[1:])), \
            (hbar, margins)
        rows_m.extend(reps)

    # Table S: per-hbar delta grids bracketing the certification threshold;
    # the smallest certified delta follows the sqrt(hbar) factor in the
    # pure-state defect term within a factor 2.
    free = potentials.free_particle(box=(-10.0, 10.0))
    K_s = CompactSet(np.array([[[-3.1, -1.9], [0.65, 1.85]]]), 0.1)
    om_s = Region(np.array([[[-2.7, 8.0]]]))
    base = [0.7 * 1.2 ** k for k in range(6)]
    smallest = {}
    for hbar, n in [(0.2, 2048), (0.05, 2048), (0.0125, 4096)]:
        grid = Grid(dim=1, n=n, length=20.0)
        psi = coherent_state(grid, hbar, -2.5, 1.25)
        deltas = [d * math.sqrt(hbar / 0.0125) for d in base]
        reps = certify.certify_pure_sweep(
            free, K_s, om_s, 2.0, deltas, [psi], dt=1e-3,
            geo=classical.geometric_summary(free, K_s, om_s, 2.0, deltas, 1e-3),
            scenario="sweep_scaling")
        certified = [r.delta for r in reps if r.verdict == "certified"]
        vacuous = [r.delta for r in reps if r.verdict == "vacuous"]
        assert certified, f"no certified delta at hbar={hbar}"
        assert vacuous, f"no vacuous delta below the threshold at hbar={hbar}"
        smallest[hbar] = min(certified)
    for h_big, h_small in [(0.2, 0.05), (0.05, 0.0125)]:
        ratio = smallest[h_big] / smallest[h_small]
        predicted = math.sqrt(h_big / h_small)
        factor = max(ratio / predicted, predicted / ratio)
        assert factor <= 2.0, (h_big, h_small, ratio)
    print(f"\nPASS criterion 10: margins monotone over {len(rows_m)} sweep rows; "
          f"smallest certified deltas {smallest} follow sqrt(hbar) within x2")
