import math

import numpy as np
import pytest
from scipy.optimize import brentq

from obscert import certify, classical, phasespace, potentials, quantum
from obscert.certify import (
    balanced_growth_root, certify_pure_sweep, certify_toeplitz_sweep, minimal_delta,
    spread_coefficient, toeplitz_coefficient, toeplitz_coefficient_details,
    zero_lip_candidate,
)
from obscert.classical import CompactSet, Region
from obscert.quantum import Grid, coherent_state


def interval(lo, hi):
    return Region(np.array([[[lo, hi]]]))


def phase_box(qlo, qhi, plo, phi, spacing=0.1):
    return CompactSet(np.array([[[qlo, qhi], [plo, phi]]]), spacing)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_spread_coefficient_values():
    assert spread_coefficient(0.0, 3.0) == 0.0
    assert spread_coefficient(1.0, 0.0) == pytest.approx(0.648721, abs=1e-6)
    assert spread_coefficient(1.0, 1.0) == pytest.approx(0.859141, abs=1e-6)
    assert spread_coefficient(1.0, 44.0) == math.inf     # stiff force overflows


def test_balanced_growth_root_oracle():
    r = balanced_growth_root()
    oracle = brentq(lambda s: s * math.exp(s) - 2 * (math.exp(s) - 1.0),
                    1.0, 2.0, xtol=1e-13)
    assert abs(r - oracle) < 1e-9
    assert r == pytest.approx(1.593624, abs=1e-6)


def lambda_equals_lip_forms(T, lip):
    """The two printed forms of the lam = lip value of the Toeplitz objective:
    (e^{lip T}-1)/(2 lip) sqrt(1 + 1/lip^2) and (e^{lip T}-1)/(2 lip^2) sqrt(1 + lip^2)."""
    e = math.expm1(lip * T)
    return (e / (2.0 * lip) * math.sqrt(1.0 + 1.0 / lip ** 2),
            e / (2.0 * lip ** 2) * math.sqrt(1.0 + lip ** 2))


def test_toeplitz_coefficient_below_lambda_lip_bound():
    for T in (0.5, 1.0, 1.5, 2.0, 3.0):
        for lip in (0.25, 0.5, 1.0, 2.0, 4.0):
            bound, _ = lambda_equals_lip_forms(T, lip)
            assert toeplitz_coefficient(T, lip) <= bound + 1e-12


def test_lambda_lip_bound_forms_agree(rng):
    # the printed forms agree with each other and with the objective that
    # `constants` writes as lambda_equals_lip_bound
    for _ in range(20):
        T = float(rng.uniform(0.2, 3.0))
        lip = float(rng.uniform(0.1, 5.0))
        f1, f2 = lambda_equals_lip_forms(T, lip)
        g = certify._growth_objective(T, lip, lip)
        assert abs(f1 - f2) <= 1e-12 * max(1.0, abs(f1))
        assert abs(g - f1) <= 1e-12 * max(1.0, abs(f1))


def test_toeplitz_coefficient_specific_bound():
    # T = 1, lip = 1: the explicit lam = lip value is (e-1)/2 * sqrt(2)
    assert toeplitz_coefficient(1.0, 1.0) <= 1.215005 + 1e-6


def test_zero_lip_candidate_above_infimum():
    for T in (0.5, 1.0, 2.0):
        lam0, val0 = zero_lip_candidate(T)
        inf_val, lam_star = toeplitz_coefficient_details(T, 0.0)
        assert inf_val <= val0 + 1e-12
        # the candidate matches the closed-form display it comes from
        r = balanced_growth_root()
        display = (math.exp(r) - 1.0) / (4 * r ** 2) * T ** 2 \
            * math.sqrt(1.0 + 4 * r ** 2 / T ** 2)
        assert val0 == pytest.approx(display, rel=1e-12)


# Pinned from the first evaluation; the reimplementation below is the oracle.
MINIMAL_DELTA_PIN = 0.19341131465255293


def test_minimal_delta_pinned_case():
    md = minimal_delta(T=1.0, lip=0.0, hbar=0.05, dim=1, c_geo=0.5, c_obs=4.0,
                       diam_K=2.0)
    # independent reimplementation
    D = math.expm1(0.5)
    tail = math.exp(-4.0 / 0.2) / (4 * math.pi)
    oracle = D * math.sqrt(0.05) / (0.5 * (1 - tail) + 0.25)
    assert md.baseline == pytest.approx(oracle, rel=1e-12)
    assert md.baseline == pytest.approx(MINIMAL_DELTA_PIN, rel=1e-9)


def test_minimal_delta_sqrt_hbar_scaling():
    vals = [minimal_delta(1.0, 0.0, h, 1, 0.5, 4.0, 2.0).baseline / math.sqrt(h)
            for h in (1e-4, 1e-6, 1e-8)]
    assert vals[0] == pytest.approx(vals[-1], rel=1e-6)


def test_minimal_delta_guards():
    with pytest.raises(ValueError, match="c_geo"):
        minimal_delta(1.0, 0.0, 0.05, 1, 0.0, 4.0, 2.0)
    with pytest.raises(ValueError, match="denominator"):
        minimal_delta(1.0, 0.0, 0.05, 1, 0.5, -0.9, 2.0)


def test_minimal_delta_state_dependent():
    md = minimal_delta(1.0, 0.0, 0.05, 1, 0.5, 4.0, 2.0,
                       spread=math.sqrt(0.05), husimi_mass=0.9)
    D = math.expm1(0.5)
    assert md.state_dependent == pytest.approx(
        D * math.sqrt(0.05) / (0.5 * 0.1 + 0.25), rel=1e-12)


# ---------------------------------------------------------------------------
# certificates (small fast pipeline)
# ---------------------------------------------------------------------------

GRID = Grid(dim=1, n=1024, length=20.0)
K_FREE = phase_box(-3.1, -1.9, 0.65, 1.85)
OM_FREE = interval(-2.7, 8.0)


def test_certify_pure_certified_case(free):
    psi = coherent_state(GRID, 0.05, -2.5, 1.25)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [4.0], 2e-3)
    rep = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, [4.0], [psi], dt=2e-3, geo=geo)[0]
    assert rep.verdict == "certified"
    assert rep.lower_bound > 0
    assert rep.margin >= 0
    assert rep.measured >= rep.lower_bound - rep.eps_num
    assert rep.implied_c_obs == pytest.approx(1.0 / rep.lower_bound)
    assert rep.ct_above_one
    # the three correction conventions are nested multiples of one another
    assert rep.correction_used == pytest.approx(2 * rep.correction_factor4, rel=1e-12)
    assert rep.correction_used == pytest.approx(8 * rep.correction_factor1, rel=1e-12)


def test_certify_pure_vacuous_when_outside_K(free):
    psi = coherent_state(GRID, 0.05, 3.0, -1.0)      # localized away from K
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [4.0], 2e-3)
    rep = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, [4.0], [psi], dt=2e-3, geo=geo)[0]
    assert rep.husimi_mass < 1e-6
    assert rep.lower_bound < 0
    assert rep.verdict == "vacuous"


def test_certify_pure_vacuous_below_delta_threshold(free):
    psi = coherent_state(GRID, 0.05, -2.5, 1.25)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [0.2], 2e-3)
    rep = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, [0.2], [psi], dt=2e-3, geo=geo)[0]
    assert rep.verdict == "vacuous"


def test_certify_pure_monotone_in_delta(free):
    psi = coherent_state(GRID, 0.05, -2.5, 1.25)
    deltas = [0.5, 1.5, 4.0, 8.0]
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, deltas, 2e-3)
    reps = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, deltas, [psi], dt=2e-3, geo=geo)
    lows = [r.lower_bound for r in reps]
    meas = [r.measured for r in reps]
    assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(meas, meas[1:]))


def test_certify_scaling_in_T(free):
    psi = coherent_state(GRID, 0.05, -2.5, 1.25)
    r1, r2 = (certify_pure_sweep(
        free, K_FREE, OM_FREE, T, [4.0], [psi], dt=2e-3,
        geo=classical.geometric_summary(free, K_FREE, OM_FREE, T, [4.0], 2e-3))[0]
        for T in (1.0, 2.0))
    assert r2.c_geo >= r1.c_geo - 1e-9
    assert r2.measured >= r1.measured - 1e-9


def test_certify_toeplitz_certified_case(free):
    R = phasespace.toeplitz_from_density([(-2.5, 1.25, 1.0)], 0.05)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [2.0], 2e-3)
    rep = certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, [2.0], [R], GRID,
                                 dt=2e-3, geo=geo)[0]
    assert rep.verdict == "certified"
    assert rep.admissible
    assert rep.measured >= rep.lower_bound - rep.eps_num


def test_certify_toeplitz_admissible_iff_positive(free):
    R = phasespace.toeplitz_from_density([(-2.5, 1.25, 1.0)], 0.05)
    for delta in (0.2, 0.5, 2.0, 8.0):
        geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [delta], 2e-3)
        rep = certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, [delta], [R], GRID,
                                     dt=2e-3, geo=geo)[0]
        assert rep.admissible == (rep.lower_bound > 0)


def test_certify_toeplitz_large_delta_limit(free):
    R = phasespace.toeplitz_from_density([(-2.5, 1.25, 1.0)], 0.05)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [1e9], 2e-3)
    rep = certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, [1e9], [R], GRID,
                                 dt=2e-3, geo=geo)[0]
    assert rep.lower_bound == pytest.approx(rep.c_geo, abs=1e-8)


def test_certify_toeplitz_rejects_atoms_outside_K(free):
    R = phasespace.toeplitz_from_density([(5.0, 1.0, 1.0)], 0.05)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [2.0], 2e-3)
    with pytest.raises(ValueError, match="inside K"):
        certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, [2.0], [R], GRID,
                               dt=2e-3, geo=geo)


def test_sweeps_batch_columns_as_lone_columns(free):
    # one batch over all columns (and atoms) gives each column's reports bit
    # for bit; the Toeplitz state carries a zero-weight atom, which is skipped
    deltas = [2.0, 4.0]
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, deltas, 2e-3)
    psis = [coherent_state(GRID, hbar, -2.5, 1.25) for hbar in (0.05, 0.1)]
    batched = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, deltas, psis, dt=2e-3, geo=geo)
    alone = [r for psi in psis for r in
             certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, deltas, [psi], dt=2e-3, geo=geo)]
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in alone]
    Rs = [phasespace.toeplitz_from_density(
        [(-2.5, 1.25, 0.7), (-2.2, 1.0, 0.0), (-2.8, 1.5, 0.3)], hbar) for hbar in (0.05, 0.1)]
    batched = certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, deltas, Rs, GRID,
                                     dt=2e-3, geo=geo)
    alone = [r for R in Rs for r in
             certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, deltas, [R], GRID,
                                    dt=2e-3, geo=geo)]
    assert [(r.hbar, r.delta) for r in batched] == [(h, d) for h in (0.05, 0.1) for d in deltas]
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in alone]


def test_toeplitz_leak_names_the_atom(harm):
    # atom 1 of the hbar = 0.1 column swings out to |x| ~ 6.5 (the mid-run
    # reproducer of tests/test_quantum.py); every other atom stays central
    grid = Grid(dim=1, n=1024, length=16.0)
    K = phase_box(-0.2, 0.2, -0.2, 6.7, spacing=0.5)
    om = interval(-1.0, 1.0)
    geo = classical.geometric_summary(harm, K, om, 2.0, [1.0], 1e-3)
    Rs = [phasespace.toeplitz_from_density([(0.0, 0.0, 1.0), (0.0, p, 1.0)], hbar)
          for hbar, p in ((0.05, 0.5), (0.1, 6.5))]
    with pytest.raises(quantum.BoundaryLeakError,
                       match=r"^hbar=0\.1, atom 1: boundary amplitude .* at t = 1\.\d+"):
        certify_toeplitz_sweep(harm, K, om, 2.0, [1.0], Rs, grid, dt=1e-3, geo=geo)


@pytest.mark.parametrize("jobs", [2, 3])
def test_run_scenario_jobs_split_columns_into_batches(jobs):
    # two hbar columns of a Toeplitz config: one batch, two batches of one
    # column, and more jobs than columns give the same reports
    from obscert import scenario
    sc = scenario.parse({
        "scenario": "jobs", "potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0]},
        "K": {"boxes": [[[-3.1, -1.9], [0.65, 1.85]]], "spacing": 0.2},
        "omega": {"boxes": [[-2.7, 8.0]]}, "T": 1.0, "deltas": [1.0, 3.0],
        "hbars": [0.2, 0.1],
        "state": {"kind": "toeplitz", "atoms": [[-2.5, 1.25, 1.0], [-2.2, 1.0, 0.5]]},
        "numerics": {"n": 512, "length": 20.0, "dt": 5e-3, "dt_flow": 5e-3},
    })
    serial = scenario.run_scenario(sc, jobs=1)
    assert [(r.hbar, r.delta) for r in serial] == [(0.1, 1.0), (0.1, 3.0), (0.2, 1.0), (0.2, 3.0)]
    parallel = scenario.run_scenario(sc, jobs=jobs)
    assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


def test_run_scenario_jobs_match_serial_in_2d():
    # two hbar columns of a 2-D Toeplitz config: serially all four rows run
    # on the threads of one process, with jobs=2 each worker process runs the
    # two rows of its column on threads of its own
    from obscert import scenario
    sc = scenario.parse({
        "scenario": "jobs2d",
        "potential": {"kind": "harmonic", "dim": 2, "box": [[-6, 6], [-6, 6]]},
        "K": {"boxes": [[[0.7, 1.3], [0.7, 1.3], [-0.3, 0.3], [-0.3, 0.3]]], "spacing": 0.3},
        "omega": {"boxes": [[[0.2, 2.0], [0.2, 2.0]]]}, "T": 0.2, "deltas": [1.0],
        "hbars": [0.1, 0.15],
        "state": {"kind": "toeplitz", "atoms": [[[0.9, 0.9], [-0.1, 0.1], 0.5],
                                                [[1.1, 1.1], [-0.1, -0.1], 0.5]]},
        "numerics": {"n": 64, "length": 8.5, "dt": 1e-2, "dt_flow": 1e-2},
    })
    serial = scenario.run_scenario(sc, jobs=1)
    assert [(r.hbar, r.verdict) for r in serial] == [(0.1, "certified"), (0.15, "certified")]
    assert [r.to_dict() for r in scenario.run_scenario(sc, jobs=2)] == \
        [r.to_dict() for r in serial]


def test_sweep_rejects_summary_for_other_deltas(free):
    R = phasespace.toeplitz_from_density([(-2.5, 1.25, 1.0)], 0.05)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [2.0], 2e-3)
    with pytest.raises(ValueError, match="deltas"):
        certify.certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, [4.0], [R], GRID,
                                       dt=2e-3, geo=geo)


# the double-well K of test_geometric_summary_matches_single_cutoff_passes: with
# xi in [3.5, 5] fast samples leave the working box [-2, 2], where the
# Lipschitz bound of grad V grows
@pytest.mark.parametrize("plo, phi, leaves", [(-0.2, 0.2, False), (3.5, 5.0, True)])
def test_sweeps_recertify_lip_on_the_trajectory_hull(dwell, plo, phi, leaves):
    K = phase_box(0.8, 1.2, plo, phi, spacing=0.25)
    om = interval(0.5, 1.5)
    T, deltas, p0 = 1.0, [2.0], 0.5 * (plo + phi)
    geo = classical.geometric_summary(dwell, K, om, T, deltas, 1e-3)
    assert geo.left_box is leaves
    hull_box = [[min(-2.0, geo.hull[0, 0]), max(2.0, geo.hull[0, 1])]]
    lip = max(dwell.lip_grad, dwell.with_box(hull_box).lip_grad)
    assert (lip > dwell.lip_grad) is leaves
    grid = Grid(dim=1, n=1024, length=16.0)
    psi = coherent_state(grid, 0.05, 1.0, p0)
    R = phasespace.toeplitz_from_density([(1.0, p0, 1.0)], 0.05)
    pure = certify_pure_sweep(dwell, K, om, T, deltas, [psi], dt=1e-3, geo=geo)[0]
    toep = certify.certify_toeplitz_sweep(dwell, K, om, T, deltas, [R], grid, dt=1e-3,
                                          geo=geo)[0]
    for rep in (pure, toep):
        assert rep.left_box is leaves
        assert rep.lip_grad == lip
    assert pure.d_const == spread_coefficient(T, lip)
    assert toep.c_tl == toeplitz_coefficient(T, lip)


def test_pure_and_one_atom_toeplitz_share_the_measured_side(free):
    # both kinds take their measured side from one computation: a coherent
    # pure column and a one-atom Toeplitz column at the same (q, p, hbar)
    # agree bit for bit on the measured mass and its three error terms
    deltas = [2.0, 4.0]
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, deltas, 2e-3)
    pure = certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, deltas,
                              [coherent_state(GRID, 0.05, -2.5, 1.25)], dt=2e-3, geo=geo)
    R = phasespace.toeplitz_from_density([(-2.5, 1.25, 1.0)], 0.05)
    toeplitz = certify_toeplitz_sweep(free, K_FREE, OM_FREE, 2.0, deltas, [R], GRID,
                                      dt=2e-3, geo=geo)
    assert [(r.kind, r.delta) for r in pure + toeplitz] == \
        [("pure", 2.0), ("pure", 4.0), ("toeplitz", 2.0), ("toeplitz", 4.0)]
    for a, b in zip(pure, toeplitz):
        assert a.measured == b.measured
        for term in ("propagation", "time_quadrature", "space_quadrature"):
            assert a.err_budget[term] == b.err_budget[term]


@pytest.mark.parametrize("state", [
    {"kind": "coherent", "q": -0.2, "p": 1.0},
    {"kind": "toeplitz", "atoms": [[-0.2, 1.0, 0.6], [0.3, 0.95, 0.4]]},
], ids=["pure", "toeplitz"])
def test_err_budget_values_sum_to_eps_num(state):
    # free flight across a gap in omega: the least occupation lies between
    # the nodes of the K lattice, so c_geo carries a refinement delta, and a
    # pure state's Husimi mass on K is well below 1; every value of the
    # budget is a summand of eps_num, added in insertion order
    from obscert import scenario
    sc = scenario.parse({
        "scenario": "budget", "potential": {"kind": "free", "dim": 1, "box": [-10.0, 10.0]},
        "K": {"boxes": [[[-1.0, 1.0], [0.9, 1.1]]], "spacing": 0.3},
        "omega": {"boxes": [[-4.0, -0.1], [0.1, 4.0]]}, "T": 0.23, "deltas": [0.5, 2.0],
        "hbars": [0.1], "state": state,
        "numerics": {"n": 512, "length": 16.0, "dt": 5e-3, "dt_flow": 5e-3},
    })
    reports = scenario.run_scenario(sc)
    assert len(reports) == 2
    for r in reports:
        assert r.c_geo_refine_delta > 0
        total = 0.0
        for value in r.err_budget.values():
            total += value
        assert total == r.eps_num
        terms = ["propagation", "time_quadrature", "space_quadrature", "c_geo_refinement"]
        if r.kind == "pure":
            assert 0 < r.husimi_mass < 1 and r.husimi_refine_delta > 0
            assert list(r.err_budget) == terms + ["husimi_refinement"]
            assert r.err_budget["c_geo_refinement"] == r.c_geo_refine_delta * r.husimi_mass
            assert r.err_budget["husimi_refinement"] == r.c_geo * r.husimi_refine_delta
        else:
            assert list(r.err_budget) == terms
            assert r.err_budget["c_geo_refinement"] == r.c_geo_refine_delta


def test_constants_saturate_where_lip_squared_overflows():
    # a double-well box of +-1e80 has lip ~ 1.2e161, and lip ** 2 overflows
    lip = potentials.double_well(box=(-1e80, 1e80)).lip_grad
    assert lip == pytest.approx(1.2e161)
    for value in (lip, math.inf):
        assert spread_coefficient(1.0, value) == math.inf
        assert toeplitz_coefficient(1.0, value) == math.inf
        assert certify._growth_objective(1.0, value, value) == math.inf


def test_nan_lower_bound_is_vacuous():
    # (inf - 1) / inf is NaN, and NaN <= 0 is False: no bound, no certificate
    assert certify._verdict(math.nan, 0.0, 0.0) == "vacuous"
    assert certify._verdict(0.0, 1.0, 0.0) == "vacuous"
    assert certify._verdict(0.5, 0.3, 0.1) == "violated"
    assert certify._verdict(0.5, 0.45, 0.1) == "certified"


def test_stiff_potential_yields_vacuous_not_nan(dwell):
    grid = Grid(dim=1, n=1024, length=16.0)
    K = phase_box(0.8, 1.2, -0.2, 0.2)
    om = interval(0.5, 1.5)
    psi = coherent_state(grid, 0.05, 1.0, 0.0)
    geo = classical.geometric_summary(dwell, K, om, 1.0, [2.0], 1e-3)
    rep = certify_pure_sweep(dwell, K, om, 1.0, [2.0], [psi], dt=1e-3, geo=geo)[0]
    assert rep.lower_bound == -math.inf
    assert rep.verdict == "vacuous"
    assert math.isfinite(rep.measured)
    payload = rep.to_dict()
    assert payload["lower_bound"] == "-Infinity"


def test_unnormalized_state_rejected(free):
    psi = coherent_state(GRID, 0.05, -2.5, 1.25)
    bad = quantum.WaveFunction(psi.grid, 2.0 * psi.values, psi.hbar)
    geo = classical.geometric_summary(free, K_FREE, OM_FREE, 2.0, [2.0], 2e-3)
    with pytest.raises(ValueError, match="normalized"):
        certify_pure_sweep(free, K_FREE, OM_FREE, 2.0, [2.0], [bad], dt=2e-3, geo=geo)


def test_certify_pure_dim2_pipeline():
    # end-to-end certificate in dimension 2 (small grid, explicit spacings)
    V = potentials.free_particle(dim=2, box=np.array([[-8.0, 8.0], [-8.0, 8.0]]))
    grid = Grid(dim=2, n=256, length=16.0)
    hbar = 0.1
    psi = quantum.coherent_state(grid, hbar, [0.0, 0.0], [1.0, 0.0])
    K = CompactSet(np.array([[[-0.4, 0.4], [-0.4, 0.4],
                              [0.6, 1.4], [-0.4, 0.4]]]), 0.2)
    om = Region(np.array([[[-0.5, 6.0], [-2.0, 2.0]]]))
    geo = classical.geometric_summary(V, K, om, 1.0, [6.0], 5e-3)
    rep = certify.certify_pure_sweep(V, K, om, 1.0, [6.0], [psi], dt=5e-3, geo=geo,
                                     husimi_spacing=0.16)[0]
    assert rep.dim == 2
    assert rep.verdict in {"certified", "vacuous"}
    assert rep.measured >= rep.lower_bound - rep.eps_num
    assert rep.spread == pytest.approx(math.sqrt(2 * hbar), abs=1e-6)
    assert 0.0 < rep.husimi_mass <= 1.0
