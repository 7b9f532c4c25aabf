import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from obscert import classical, potentials, quantum, scenario
from obscert.classical import (
    CompactSet, IndicatorCutoff, PhasePoint, RampCutoff, Region,
    flow, geometric_summary, occupation_batch, verlet_step,
)
from oracles import hamiltonian

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def interval(lo, hi):
    return Region(np.array([[[lo, hi]]]))


# chi = 1 at every finite point: the indicator of the unbounded interval
EVERYWHERE = IndicatorCutoff(interval(-math.inf, math.inf))


def phys_box(qlo, qhi, plo, phi, spacing=0.05):
    return CompactSet(np.array([[[qlo, qhi], [plo, phi]]]), spacing)


def geometric_constant(V, K, chi, T, dt, spacing=None):
    """Minimum occupation time over K's sample lattice, from a one-cutoff pass."""
    return float(occupation_batch(V, K.sample_grid(spacing), T, [chi], dt).occupation.min())


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_free_straight_line(free):
    p = flow(free, PhasePoint([0.0], [1.0]), 2.0, 1e-3)
    assert p.x[0] == pytest.approx(2.0, abs=1e-12)
    assert p.xi[0] == pytest.approx(1.0, abs=1e-12)


def test_zero_time_flow_and_occupation(harm):
    # T = 0 takes one Verlet step of size 0: every sample stays where it is
    p0 = PhasePoint([0.7], [-0.3])
    p = flow(harm, p0, 0.0, 1e-3)
    assert (p.x[0], p.xi[0]) == (0.7, -0.3)
    om = interval(0.5, 1.5)
    res = occupation_batch(harm, [[0.7, -0.3], [0.2, 0.4]], 0.0,
                           [IndicatorCutoff(om), RampCutoff(om, 0.5)], 1e-3)
    np.testing.assert_array_equal(res.occupation, 0.0)
    # the indicator is hit at t = 0 by the sample inside omega only; the ramp
    # is positive at both from t = 0
    np.testing.assert_array_equal(res.first_hit, [[0.0, 0.0], [np.nan, 0.0]])


def test_flow_harmonic_rotation_oracle(harm):
    # closed-form rotation (x cos t + xi sin t, -x sin t + xi cos t)
    p = flow(harm, PhasePoint([1.0], [0.0]), np.pi / 2, 1e-4)
    assert abs(p.x[0] - 0.0) < 1e-6
    assert abs(p.xi[0] - (-1.0)) < 1e-6
    p = flow(harm, PhasePoint([1.0], [0.0]), 2 * np.pi, 1e-4)
    assert abs(p.x[0] - 1.0) < 1e-5
    assert abs(p.xi[0] - 0.0) < 1e-5
    q = flow(harm, PhasePoint([0.3], [-0.7]), 1.234, 1e-4)
    c, s = np.cos(1.234), np.sin(1.234)
    assert q.x[0] == pytest.approx(0.3 * c - 0.7 * s, abs=1e-6)
    assert q.xi[0] == pytest.approx(-0.3 * s - 0.7 * c, abs=1e-6)


def test_flow_blowup_detected():
    from obscert.potentials import Potential
    V = Potential(name="inverted", dim=1,
                  value_fn=lambda p: -np.sum(p ** 4, axis=-1),
                  grad_fn=lambda p: -4.0 * p ** 3,
                  working_box=np.array([[-1e3, 1e3]]), lip_on_box=lambda box: 0.0)
    # surfaces either as a non-finite state or a non-finite gradient
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((FloatingPointError, ValueError)):
            flow(V, PhasePoint([1.0], [0.0]), 50.0, 0.5)


def test_symplecticity_step_jacobian(harm, dwell):
    # finite-difference Jacobian of one Verlet step has determinant 1
    h = 1e-5
    for V, x0, xi0, dt in [(harm, 0.7, -0.4, 1e-2), (dwell, 1.1, 0.3, 1e-2)]:
        def step(x, xi):
            xa, xia = verlet_step(V, np.array([[x]]), np.array([[xi]]), dt)
            return xa[0, 0], xia[0, 0]
        dxdx = (step(x0 + h, xi0)[0] - step(x0 - h, xi0)[0]) / (2 * h)
        dxdxi = (step(x0, xi0 + h)[0] - step(x0, xi0 - h)[0]) / (2 * h)
        dpdx = (step(x0 + h, xi0)[1] - step(x0 - h, xi0)[1]) / (2 * h)
        dpdxi = (step(x0, xi0 + h)[1] - step(x0, xi0 - h)[1]) / (2 * h)
        det = dxdx * dpdxi - dxdxi * dpdx
        assert det == pytest.approx(1.0, abs=1e-8)


# Energy drift coefficients fitted once from dt in {1e-2, 5e-3, 2.5e-3} runs
# (0.037 and 0.0124); the regression bound allows 2x headroom.
ENERGY_DRIFT_C = {"harmonic": 0.08, "double_well": 0.03}


def test_energy_drift_quadratic_in_dt(harm, dwell):
    for V, p0 in [(harm, PhasePoint([1.0], [0.0])), (dwell, PhasePoint([1.1], [0.2]))]:
        e0 = hamiltonian(V, p0.x[None, :], p0.xi[None, :])[0]
        for dt in (1e-2, 5e-3):
            p = flow(V, p0, 10.0, dt)
            drift = abs(hamiltonian(V, p.x[None, :], p.xi[None, :])[0] - e0)
            assert drift <= ENERGY_DRIFT_C[V.name] * dt ** 2


# ---------------------------------------------------------------------------
# occupation times
# ---------------------------------------------------------------------------

def test_occupation_window(free):
    occ = occupation_batch(free, [[0.0, 1.0]], 2.0,
                           [IndicatorCutoff(interval(0.5, 1.5))], 1e-3).occupation[0, 0]
    assert occ == pytest.approx(1.0, abs=1e-3)


def test_occupation_constant_cutoff(free, harm, dwell):
    for V in (free, harm, dwell):
        occ = occupation_batch(V, [[0.4, 0.3]], 1.7, [EVERYWHERE], 1e-3).occupation[0, 0]
        assert occ == pytest.approx(1.7, abs=1e-12)


def test_occupation_harmonic_half_period(harm):
    occ = occupation_batch(harm, [[1.0, 0.0]], 2 * np.pi,
                           [IndicatorCutoff(interval(0.0, 2.0))], 1e-3).occupation[0, 0]
    assert occ == pytest.approx(np.pi, abs=2e-2)


def test_occupation_bounds(free):
    occ = occupation_batch(free, [[0.0, 1.0]], 2.0,
                           [RampCutoff(interval(0.5, 1.5), 0.3)], 1e-3).occupation[0, 0]
    assert 0.0 <= occ <= 2.0


# ---------------------------------------------------------------------------
# geometric constant
# ---------------------------------------------------------------------------

def test_geometric_constant_single_point_reduces(free):
    K = CompactSet(np.array([[[0.0, 0.0], [1.0, 1.0]]]), 0.1)
    chi = IndicatorCutoff(interval(0.5, 1.5))
    c = geometric_constant(free, K, chi, 2.0, 1e-3)
    occ = occupation_batch(free, [[0.0, 1.0]], 2.0, [chi], 1e-3).occupation[0, 0]
    assert c == pytest.approx(occ, abs=1e-12)
    assert c == pytest.approx(1.0, abs=1e-3)


def test_geometric_constant_full_cutoff(free, harm):
    K = phys_box(-0.1, 0.1, 0.9, 1.1)
    for V in (free, harm):
        assert geometric_constant(V, K, EVERYWHERE, 2.0, 1e-3) == pytest.approx(2.0)


def test_geometric_constant_refinement_oracle(free):
    # brute-force refinement at 10x resolution agrees within 5e-2
    K = phys_box(-0.1, 0.1, 0.9, 1.1, spacing=0.05)
    chi = IndicatorCutoff(interval(0.5, 1.5))
    coarse = geometric_constant(free, K, chi, 2.0, 1e-3)
    dense = geometric_constant(free, K, chi, 2.0, 1e-3, spacing=0.005)
    assert abs(coarse - dense) <= 5e-2
    # analytic worst case: full crossing at the top speed, occupation 1.0/1.1
    assert dense == pytest.approx(1.0 / 1.1, abs=1e-3)


def test_geometric_constant_monotone_in_region(free):
    K = phys_box(-0.1, 0.1, 0.9, 1.1)
    small = geometric_constant(free, K, IndicatorCutoff(interval(0.5, 1.5)), 2.0, 1e-3)
    large = geometric_constant(free, K, IndicatorCutoff(interval(0.3, 1.8)), 2.0, 1e-3)
    assert large >= small - 1e-12


def test_indicator_below_ramp(free, harm):
    # occupation under the indicator never exceeds occupation under the ramp
    K = phys_box(-0.1, 0.1, 0.9, 1.1)
    om = interval(0.5, 1.5)
    for V in (free, harm):
        geo = geometric_summary(V, K, om, 2.0, [0.5], 1e-3)
        assert geo.c_geo <= geo.chi_geo[0] + 1e-9


def test_refinement_delta_reported(free):
    K = phys_box(-0.1, 0.1, 0.9, 1.1, spacing=0.1)
    om = interval(0.5, 1.5)
    geo = geometric_summary(free, K, om, 2.0, [], 1e-3)
    value, delta = geo.c_geo, geo.c_geo_refine_delta
    assert value >= 0 and delta >= 0
    assert delta <= 0.1
    # the summary carries the problem it summarizes
    assert (geo.V, geo.K, geo.omega, geo.T, geo.deltas) == (free, K, om, 2.0, ())


# ---------------------------------------------------------------------------
# geometric condition
# ---------------------------------------------------------------------------

def test_gc_true_case(free):
    K = phys_box(-0.1, 0.1, 0.9, 1.1)
    res = geometric_summary(free, K, interval(0.5, 1.5), 2.0, [], 1e-3)
    assert res.gc_satisfied
    assert np.all(np.isfinite(res.table.first_hit))
    assert np.all(res.table.first_hit < 2.0)


def test_gc_false_when_unreachable(free):
    K = phys_box(-0.1, 0.1, -0.1, 0.1)
    res = geometric_summary(free, K, interval(5.0, 6.0), 1.0, [], 1e-3)
    assert not res.gc_satisfied
    assert np.all(np.isnan(res.table.first_hit))


def test_gc_harmonic_oracle(harm):
    # rotation carries (1, 0) into (-1.5, -0.5) near t = pi (enters at t = 2pi/3)
    K = phys_box(0.9, 1.1, -0.1, 0.1)
    res = geometric_summary(harm, K, interval(-1.5, -0.5), np.pi + 0.5, [], 1e-3)
    assert res.gc_satisfied
    assert res.table.first_hit.max() < np.pi + 0.5
    assert res.table.first_hit.min() > 1.5


def test_gc_implies_positive_constant(free):
    K = phys_box(-0.1, 0.1, 0.9, 1.1)
    om = interval(0.5, 1.5)
    res = geometric_summary(free, K, om, 2.0, [], 1e-3)
    assert res.gc_satisfied
    assert res.c_geo > 0


def test_zero_when_cutoff_missed(free):
    K = phys_box(-0.1, 0.1, -0.1, 0.1)
    c = geometric_constant(free, K, IndicatorCutoff(interval(5.0, 6.0)), 1.0, 1e-3)
    assert c == 0.0


# ---------------------------------------------------------------------------
# occupation times against closed-form flows
# ---------------------------------------------------------------------------

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def exact_occupation(point, boxes, T, omega):
    """(time in [0, T] strictly inside the union of ``boxes``, crossings of its
    boundary) along the exact flow from ``point``: x + xi t at omega = 0, and
    x cos(omega t) + (xi / omega) sin(omega t), the harmonic rotation, above.
    Every time an axis meets a box face is a closed form; between two
    consecutive ones the path is inside or outside throughout."""
    dim = len(point) // 2
    x, xi = point[:dim], point[dim:]
    times = [0.0, T]
    for a in range(dim):
        for c in np.unique(boxes[:, a, :]):
            if omega == 0:
                if xi[a] != 0:
                    times.append((c - x[a]) / xi[a])
                continue
            amp, phase = math.hypot(x[a], xi[a] / omega), math.atan2(xi[a] / omega, x[a])
            if abs(c) <= amp:
                for k in range(-1, int(omega * T / (2 * math.pi)) + 2):
                    for sign in (1, -1):
                        times.append((phase + sign * math.acos(c / amp) + 2 * math.pi * k)
                                     / omega)
    times = np.unique(np.clip(times, 0.0, T))

    def inside(t):
        pos = (x + xi * t if omega == 0
               else x * math.cos(omega * t) + xi / omega * math.sin(omega * t))
        return bool(np.any(np.all((pos > boxes[:, :, 0]) & (pos < boxes[:, :, 1]), axis=1)))

    states = [inside(0.5 * (a + b)) for a, b in zip(times[:-1], times[1:])]
    occupied = sum(b - a for a, b, s in zip(times[:-1], times[1:], states) if s)
    return occupied, sum(s != u for s, u in zip(states[:-1], states[1:]))


@pytest.mark.parametrize("config, omega, bound", [
    ("soundness/free_coherent.json", 0.0, None),
    ("soundness/harmonic_coherent.json", 1.0, 1e-6),
    ("grid2d/harmonic2d_coherent.json", 1.0, 1e-6),
])
def test_occupation_matches_closed_form_flows(config, omega, bound):
    # node by node on the lattice of a certificate's flow pass (K's lattice
    # and its half-spacing refinement).  Verlet integrates the free flow
    # exactly, so its error is the crossing bisection's, at most tol/2 per
    # crossing (tol = h * 1e-3), plus round-off; the harmonic rotation adds
    # the O(dt_flow^2) Verlet error
    sc = scenario.load_config(BENCH_CONFIGS / config)
    K, T = sc.K, sc.T
    points = np.concatenate([K.sample_grid(), K.sample_grid(K.spacing / 2)])
    occ = occupation_batch(sc.V, points, T, [IndicatorCutoff(sc.omega)],
                           sc.numerics.dt_flow).occupation[:, 0]
    tol = quantum.split_steps(T, sc.numerics.dt_flow)[1] * 1e-3
    errors = []
    for p, o in zip(points, occ):
        exact, crossings = exact_occupation(p, sc.omega.boxes, T, omega)
        errors.append(abs(o - exact))
        if bound is None:
            assert errors[-1] <= crossings * tol / 2 + 1e-12, (p, o, exact, crossings)
    if bound is not None:
        assert max(errors) <= bound
    assert max(errors) > 0                          # the oracle is not the pass itself


@pytest.mark.parametrize("window", [None, (0.9, 1.1)], ids=["config_omega", "narrow_omega"])
def test_occupation_matches_a_fine_step_double_well_flow(monkeypatch, window):
    # the double well's flow has no closed form: the reference is the same
    # pass at dt_flow/8, whose Verlet error is 64 times smaller, node by node
    # on the lattice of a certificate's flow pass.  Under the config's omega
    # (0.5, 1.5) every orbit stays inside for all of T, so both passes give
    # T; the narrow window (0.9, 1.1) puts its edges across the orbits.  The
    # largest per-node error there was 1.34e-6, and the reference is within
    # 9.2e-8 of a pass at dt_flow/64
    sc = scenario.load_config(BENCH_CONFIGS / "soundness/double_well_coherent.json")
    K, T, dt = sc.K, sc.T, sc.numerics.dt_flow
    omega = sc.omega if window is None else interval(*window)
    points = np.concatenate([K.sample_grid(), K.sample_grid(K.spacing / 2)])
    occ = occupation_batch(sc.V, points, T, [IndicatorCutoff(omega)], dt).occupation[:, 0]
    ends = []

    def recording(V, x, xi, h):                 # the sample steps; bisections pass an array h
        out = verlet_step(V, x, xi, h)
        if np.ndim(h) == 0:
            ends[:] = out
        return out

    monkeypatch.setattr(classical, "verlet_step", recording)
    ref = occupation_batch(sc.V, points, T, [IndicatorCutoff(omega)], dt / 8).occupation[:, 0]
    monkeypatch.undo()
    errors = np.abs(occ - ref)
    if window is None:
        assert np.all(occ == T) and np.all(ref == T)
    else:
        assert 0 < errors.max() <= 3e-6
    # the reference integrates the flow: its end points at K's corners are
    # classical.flow's at dt_flow/8
    x, xi = ends
    for corner in K.corners():
        i = np.flatnonzero((points == corner).all(axis=1))[0]
        end = flow(sc.V, PhasePoint(corner[:1], corner[1:]), T, dt / 8)
        np.testing.assert_array_equal(x[i], end.x)
        np.testing.assert_array_equal(xi[i], end.xi)


# ---------------------------------------------------------------------------
# one pass, several cutoffs
# ---------------------------------------------------------------------------

def test_occupation_batch_columns_match_single_cutoff_passes(harm):
    K = phys_box(0.7, 1.3, -0.3, 0.3, spacing=0.1)
    om = interval(0.2, 2.0)
    wide = interval(-0.1, 2.3)
    # the ramps on the object om share one distance per block; the ramps on
    # wide, and on an equal region built apart, take their own
    cutoffs = [RampCutoff(om, 0.4), IndicatorCutoff(om),
               IndicatorCutoff(wide), RampCutoff(om, 0.15),
               RampCutoff(wide, 0.2), RampCutoff(interval(0.2, 2.0), 1.0)]
    fused = occupation_batch(harm, K.sample_grid(), np.pi / 2, cutoffs, 1e-3)
    for j, chi in enumerate(cutoffs):
        single = occupation_batch(harm, K.sample_grid(), np.pi / 2, [chi], 1e-3)
        np.testing.assert_array_equal(fused.occupation[:, j], single.occupation[:, 0])
        np.testing.assert_array_equal(fused.first_hit[:, j], single.first_hit[:, 0])
        np.testing.assert_array_equal(fused.left_box, single.left_box)


# the first K stays inside the double well's working box [-2, 2]; in the
# second, samples with |xi| above ~4.2 have the energy to leave it
@pytest.mark.parametrize("plo, phi, leaves", [(-0.2, 0.2, False), (3.5, 5.0, True)])
def test_geometric_summary_matches_single_cutoff_passes(dwell, plo, phi, leaves):
    K = phys_box(0.8, 1.2, plo, phi, spacing=0.25)
    om = interval(0.5, 1.5)
    T, dt, deltas = 1.0, 1e-3, [0.3, 2.0]
    geo = geometric_summary(dwell, K, om, T, deltas, dt)

    def single(chi, spacing=None):
        return occupation_batch(dwell, K.sample_grid(spacing), T, [chi], dt)

    coarse = single(IndicatorCutoff(om))
    fine = single(IndicatorCutoff(om), K.spacing / 2)
    c_geo = float(coarse.occupation.min())
    assert geo.deltas == tuple(deltas)
    assert geo.c_geo == c_geo
    assert geo.c_geo_refine_delta == abs(c_geo - float(fine.occupation.min()))
    hits = coarse.first_hit[:, 0]
    assert geo.gc_satisfied == bool(np.all(np.isfinite(hits) & (hits < T)))
    assert geo.chi_geo == tuple(float(single(RampCutoff(om, d)).occupation.min())
                                for d in deltas)
    np.testing.assert_array_equal(geo.table.points, coarse.points)
    np.testing.assert_array_equal(geo.table.occupation, coarse.occupation)
    np.testing.assert_array_equal(geo.table.first_hit, coarse.first_hit)
    np.testing.assert_array_equal(geo.table.left_box, coarse.left_box)
    assert geo.left_box is leaves
    # per sample: only the fast samples leave the box
    assert not coarse.left_box.all()
    assert coarse.left_box.any() == leaves


def test_subnormal_delta_ramp_reads_t0_under_the_overflow_guard(free):
    # a config fuzz class: the ramp at delta = 1e-320 divides a distance of
    # order 1 by delta, which overflows.  At t = 0 that was read outside the
    # pass's np.errstate, and the warning, an error here, escaped
    K = phys_box(-3.1, -1.9, 0.65, 1.85, spacing=0.2)
    geo = geometric_summary(free, K, interval(-2.7, 8.0), 1.0, [1e-320], 1.0 / 16)
    assert 0.0 < geo.chi_geo[0] <= geo.c_geo + 1.0 / 16


# ---------------------------------------------------------------------------
# the time-blocked kernel against the per-step loop
# ---------------------------------------------------------------------------

def _bisect_crossing_loop(V, x0, xi0, h, chi, inside_before, tol):
    lo, hi = 0.0, h
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        xm, _ = verlet_step(V, x0[None, :], xi0[None, :], mid)
        if bool(chi(xm)[0] > 0.5) == inside_before:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def occupation_loop(V, points, T, chi, dt):
    """Reference: one step at a time, every cutoff evaluated per step and every
    crossing bisected on its own; returns (occupation, first_hit, left_box, hull)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = pts.shape[1] // 2
    x = pts[:, :dim].copy()
    xi = pts[:, dim:].copy()
    n, h = quantum.split_steps(T, dt)
    tol = h * 1e-3
    occ = np.zeros((len(pts), len(chi)))
    first_hit = np.full(occ.shape, np.nan)
    vals = np.stack([c(x) for c in chi], axis=1)
    for j, c in enumerate(chi):
        first_hit[vals[:, j] > (0.5 if c.is_indicator else 0.0), j] = 0.0
    left_box = ~V.inside_box(x)
    lo_hull, hi_hull = x.copy(), x.copy()
    t = 0.0
    for _ in range(n):
        x_new, xi_new = verlet_step(V, x, xi, h)
        vals_new = np.stack([c(x_new) for c in chi], axis=1)
        for j, c in enumerate(chi):
            if c.is_indicator:
                inside_old = vals[:, j] > 0.5
                inside_new = vals_new[:, j] > 0.5
                same = inside_old == inside_new
                occ[same & inside_old, j] += h
                for i in np.nonzero(~same)[0]:
                    s = _bisect_crossing_loop(V, x[i], xi[i], h, c, bool(inside_old[i]), tol)
                    if inside_old[i]:
                        occ[i, j] += s
                    else:
                        occ[i, j] += h - s
                        if np.isnan(first_hit[i, j]):
                            first_hit[i, j] = t + s
            else:
                occ[:, j] += 0.5 * h * (vals[:, j] + vals_new[:, j])
                newly = np.isnan(first_hit[:, j]) & (vals_new[:, j] > 0)
                first_hit[newly, j] = t + h
        x, xi = x_new, xi_new
        vals = vals_new
        t += h
        left_box |= ~V.inside_box(x)
        lo_hull, hi_hull = np.minimum(lo_hull, x), np.maximum(hi_hull, x)
    np.clip(occ, 0.0, T, out=occ)
    return occ, first_hit, left_box, np.stack([lo_hull, hi_hull], axis=-1)


def assert_matches_loop(V, points, T, chi, dt):
    res = occupation_batch(V, points, T, chi, dt)
    occ, first_hit, left_box, hull = occupation_loop(V, points, T, chi, dt)
    np.testing.assert_array_equal(res.occupation, occ)
    np.testing.assert_array_equal(res.first_hit, first_hit)
    np.testing.assert_array_equal(res.left_box, left_box)
    np.testing.assert_array_equal(res.hull, hull)
    return res


def _cutoffs(om):
    """The indicator and a ramp of om, and the indicator of om's boxes widened
    by 0.1 on every side."""
    wide = Region(om.boxes + np.array([-0.1, 0.1]))
    return [IndicatorCutoff(om), RampCutoff(om, 0.3), IndicatorCutoff(wide)]


def test_kernel_matches_loop_on_repeated_crossings(harm):
    # two windows on each side of the origin: every orbit of amplitude ~1
    # crosses four window edges per period, for about two periods
    om = Region(np.array([[[0.2, 0.6]], [[-0.9, -0.4]]]))
    K = phys_box(0.7, 1.3, -0.3, 0.3, spacing=0.1)
    res = assert_matches_loop(harm, K.sample_grid(), 4 * np.pi, _cutoffs(om), 1e-2)
    assert np.all(res.occupation[:, 0] > 0) and np.all(res.occupation[:, 0] < 4 * np.pi)


def test_kernel_matches_loop_in_two_dimensions():
    V = potentials.harmonic(stiffness=2.0, dim=2)
    om = Region(np.array([[[0.1, 0.8], [-0.5, 0.5]]]))
    K = CompactSet(np.array([[[0.6, 1.0], [-0.2, 0.2], [-0.3, 0.3], [0.4, 0.8]]]), 0.2)
    assert_matches_loop(V, K.sample_grid(), 3.0, _cutoffs(om), 1e-2)


@pytest.mark.parametrize("budget", ["one", "three", "default"])
def test_kernel_matches_loop_at_block_edges(free, monkeypatch, budget):
    # dt = 0.1 and unit speed: the first sample enters (0.25, 0.65) in step 2
    # and leaves it in step 6; with three steps per block that is the last step
    # of the first block and the first step of the third
    pts = np.array([[0.0, 1.0], [0.0, 0.5], [0.0, 2.0], [0.3, -1.0], [0.5, 0.0]])
    # one step's positions and momenta take pts.nbytes
    budgets = {"one": pts.nbytes, "three": 3 * pts.nbytes, "default": quantum._BLOCK_BYTES}
    monkeypatch.setattr(quantum, "_BLOCK_BYTES", budgets[budget])
    res = assert_matches_loop(free, pts, 1.0, _cutoffs(interval(0.25, 0.65)), 0.1)
    assert 0.2 < res.first_hit[0, 0] < 0.3
    assert res.first_hit[0, 1] == 0.0                   # ramp positive from t = 0
    assert res.occupation[0, 0] == pytest.approx(0.4, abs=1e-3)


def test_kernel_matches_loop_when_leaving_the_box_mid_block():
    # working box [-0.5, 0.5]: amplitudes above 0.5 leave it and come back,
    # over half a period on one side only (the last two on the low side)
    V = potentials.harmonic(box=(-0.5, 0.5))
    pts = np.array([[0.0, 1.0], [0.0, 0.3], [0.4, 0.4], [-0.2, -0.6], [0.0, -1.0]])
    res = assert_matches_loop(V, pts, np.pi, _cutoffs(interval(-0.3, 0.2)), 1e-2)
    np.testing.assert_array_equal(res.left_box, [True, False, True, True, True])
    assert res.hull[0, 0, 1] == pytest.approx(1.0, abs=1e-3)
    assert res.hull[4, 0, 0] == pytest.approx(-1.0, abs=1e-3)


@pytest.mark.parametrize("m", [1, 0])
def test_kernel_matches_loop_on_one_and_zero_samples(dwell, m):
    pts = np.array([[0.9, 0.4]])[:m].reshape(m, 2)
    chi = _cutoffs(interval(0.5, 1.5))
    res = assert_matches_loop(dwell, pts, 2.0, chi, 1e-3)
    assert res.occupation.shape == res.first_hit.shape == (m, len(chi))
    assert res.hull.shape == (m, 1, 2)


@pytest.mark.parametrize("name", ["free", "harm", "dwell"])
def test_verlet_step_is_kick_drift_kick(name, free, harm, dwell, rng):
    # half kick, drift, half kick, bit for bit
    V = {"free": free, "harm": harm, "dwell": dwell}[name]
    x, xi = rng.uniform(-1.5, 1.5, size=(2, 700, 1))
    half = xi - 0.5 * 1e-3 * V.grad_fn(x)
    x1 = x + 1e-3 * half
    xi1 = half - 0.5 * 1e-3 * V.grad_fn(x1)
    got = verlet_step(V, x, xi, 1e-3)
    np.testing.assert_array_equal(got[0], x1)
    np.testing.assert_array_equal(got[1], xi1)
    pts = phys_box(0.6, 1.2, -0.4, 0.4, spacing=0.2).sample_grid()
    assert_matches_loop(V, pts, 1.0, _cutoffs(interval(0.3, 0.9)), 1e-2)


def _nan_beyond(radius):
    def grad(p):
        return np.where(np.abs(p) > radius, np.nan, p)
    return potentials.Potential(name="nan_beyond", dim=1,
                                value_fn=lambda p: 0.5 * np.sum(p * p, axis=-1),
                                grad_fn=grad, working_box=np.array([[-2.0, 2.0]]),
                                lip_on_box=lambda box: 1.0)


@pytest.mark.parametrize("T", [0.5, 0.31])
def test_occupation_aborts_on_a_non_finite_gradient(T):
    # x = sin t passes 0.3 at t ~ 0.305, in the step ending at t = 0.31, where
    # the gradient is NaN; with T = 0.31 that is the last step, and only the
    # momentum carries the NaN
    V = _nan_beyond(0.3)
    pts = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(FloatingPointError, match="blew up"):
        occupation_batch(V, pts, T, [IndicatorCutoff(interval(-0.1, 0.1))], 0.01)


def test_kernel_memory_on_the_shipped_lattice():
    # one cutoff at a time over a block of positions and momenta of at most
    # quantum._BLOCK_BYTES: the stacked lattice of free_coherent (872
    # samples) stays far below a full (steps x samples) history, which would
    # take 14 MB per array
    sc = scenario.load_config(CONFIGS / "free_coherent.json")
    V, K, om = sc.V, sc.K, sc.omega
    pts = np.concatenate([K.sample_grid(), K.sample_grid(K.spacing / 2)])
    chi = [IndicatorCutoff(om)] + [RampCutoff(om, d) for d in sc.deltas]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        occupation_batch(V, pts, sc.T, chi, sc.numerics.dt_flow)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


# ---------------------------------------------------------------------------
# geometry types
# ---------------------------------------------------------------------------

def test_region_open_semantics():
    om = interval(0.5, 1.5)
    assert om.indicator([[0.5]])[0] == 0.0      # boundary counts as outside
    assert om.indicator([[1.0]])[0] == 1.0
    assert om.distance([[0.5]])[0] == 0.0
    assert om.distance([[0.0]])[0] == pytest.approx(0.5)


def test_region_distance_lipschitz(rng):
    om = Region(np.array([[[0.5, 1.5]], [[3.0, 4.0]]]))
    a = rng.uniform(-2, 6, size=(200, 1))
    b = rng.uniform(-2, 6, size=(200, 1))
    da, db = om.distance(a), om.distance(b)
    assert np.all(np.abs(da - db) <= np.linalg.norm(a - b, axis=-1) + 1e-12)


def reference_dist_to_boxes(region, p):
    """Reference: the distance to the closed boxes as a norm over the axes."""
    d = np.full(len(p), np.inf)
    for box in region.boxes:
        gaps = np.maximum(box[:, 0] - p, 0.0) + np.maximum(p - box[:, 1], 0.0)
        d = np.minimum(d, np.linalg.norm(gaps, axis=-1))
    return d


def reference_indicator(region, p):
    """Reference: the indicator as an all() over the axes."""
    inside = np.zeros(len(p), dtype=bool)
    for box in region.boxes:
        inside |= np.all((p > box[:, 0]) & (p < box[:, 1]), axis=-1)
    return inside.astype(float)


@pytest.mark.parametrize("dim", [1, 2])
def test_region_per_axis_forms_match_norm_and_all(dim, rng):
    boxes = {1: [[[0.5, 1.5]], [[3.0, 4.0]]],
             2: [[[0.2, 2.0], [0.2, 2.0]], [[-1.5, -0.5], [-3.0, 1.0]]]}[dim]
    lo, hi = np.min(boxes, axis=(0, 2)), np.max(boxes, axis=(0, 2))
    random = rng.uniform(lo - 2, hi + 2, size=(4000, dim))
    # every face and corner coordinate on every axis, mixed with random ones
    faces = np.array(boxes).reshape(-1, dim, 2).transpose(1, 0, 2).reshape(dim, -1)
    on_faces = random[:faces.shape[1] * 8].copy()
    for a in range(dim):
        on_faces[:, a] = np.resize(faces[a], len(on_faces))
    huge = np.array([1e200, -1e200, 1e300, -1e155, 3e154]).repeat(dim).reshape(-1, dim)
    huge[1::2, 0] = 1.0                                  # one axis inside, the other not
    points = np.concatenate([random, on_faces, huge])
    for region in (Region(np.array(boxes[:1])), Region(np.array(boxes))):
        with np.errstate(over="ignore"):
            got = region.distance(points)
            assert got.tobytes() == reference_dist_to_boxes(region, points).tobytes()
            assert (region.indicator(points).tobytes()
                    == reference_indicator(region, points).tobytes())
    assert np.isinf(got[-len(huge):]).any()                  # squares that overflow
    assert (Region(np.array(boxes)).indicator(on_faces) == 0).any()


def test_region_and_compact_set_share_one_box_normalizer():
    # one (width, 2) box is k = 1, its width the array's own; a flat (lo, hi)
    # pair is no box at all
    assert Region(np.array([[0.5, 1.5], [0.0, 2.0]])).boxes.shape == (1, 2, 2)
    for make in (Region, lambda b: CompactSet(b, 0.1)):
        with pytest.raises(ValueError, match="shape"):
            make(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="lo > hi"):
            make(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_region_enlarged():
    # Omega_delta = {x : dist(x, omega) < delta}, as the measured side takes
    # it, is open: a point at distance delta exactly is outside
    om = interval(0.5, 1.5)
    d = om.distance([[1.0], [0.5], [0.25], [0.0], [2.0], [-0.25]])
    np.testing.assert_array_equal(d, [0.0, 0.0, 0.25, 0.5, 0.5, 0.75])
    np.testing.assert_array_equal(d < 0.5, [True, True, True, False, False, False])


def test_compact_set_diameter_and_grid():
    K = phys_box(-0.1, 0.1, 0.9, 1.1, spacing=0.05)
    assert K.diameter == pytest.approx(np.sqrt(0.2 ** 2 + 0.2 ** 2))
    grid = K.sample_grid()
    assert K.contains(grid).all()
    corners = K.corners()
    for c in corners:
        assert np.any(np.all(np.isclose(grid, c), axis=1))


@pytest.mark.parametrize("lo, hi, h", [(-1.1, 1.2, 0.1), (0.0, 1.0, 0.3), (0.65, 1.85, 0.05),
                                      (2.0, 2.5, 1.0)])
def test_lattice_axis_spans_the_interval(lo, hi, h):
    ax = classical.lattice_axis(lo, hi, h)
    assert (ax[0], ax[-1]) == (lo, hi)
    assert np.all(np.diff(ax) <= h * (1 + 1e-12))


def test_lattice_axis_degenerate_interval():
    np.testing.assert_array_equal(classical.lattice_axis(0.4, 0.4, 0.1), [0.4])


def test_lattice_points_row_major():
    pts = classical.lattice_points([np.array([0.0, 1.0]), np.array([2.0, 3.0, 4.0])])
    np.testing.assert_array_equal(pts, [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]])


def test_compact_set_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        CompactSet(np.array([[[0.0, 1.0], [0.0, 1.0]],
                             [[0.5, 1.5], [0.5, 1.5]]]), 0.1)
