import math
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from obscert import certify, phasespace, quantum
from obscert.classical import CompactSet, IndicatorCutoff, Region, lattice_points
from obscert.phasespace import husimi_mass, quadrature_spacing, toeplitz_from_density
from obscert.quantum import coherent_state, gaussian_state, inner, superposition
from oracles import SpectralBandError, coherent_husimi_mass, coherent_overlap_sq, husimi, wigner

HBAR = 0.1


def phase_box(qlo, qhi, plo, phi, spacing=0.05):
    return CompactSet(np.array([[[qlo, qhi], [plo, phi]]]), spacing)


def toeplitz_observed_mass(V, R, grid, T, chi, dt):
    """Observed mass of a Toeplitz state by linearity: its atoms as one batch."""
    batch = quantum.WaveBatch.of([R.atom_state(j, grid) for j in range(len(R.symbol.weights))])
    weights = np.asarray(chi(grid.points()), dtype=float)[None, :]
    [(series, _)] = quantum.observed_mass_series(V, batch, T, weights, [], [dt])
    masses = [certify._trapezoid(s, T)[0][0] for s in series]
    return float(math.fsum(R.symbol.weights * masses))


# ---------------------------------------------------------------------------
# Wigner
# ---------------------------------------------------------------------------

def test_wigner_coherent_gaussian(grid512):
    psi = coherent_state(grid512, HBAR, 0.6, -0.4)
    x = grid512.axis[::4]
    xi = np.linspace(-2.0, 1.5, 71)
    W = wigner(psi, x, xi)
    expected = np.exp(-((x[:, None] - 0.6) ** 2 + (xi[None, :] + 0.4) ** 2) / HBAR) \
        / (np.pi * HBAR)
    assert np.abs(W - expected).max() < 1e-6


def test_wigner_marginal_and_total(grid512):
    psi = gaussian_state(grid512, HBAR, 0.2, 0.5, 0.4)
    band = np.pi * HBAR / (2 * grid512.dx)
    xi = np.linspace(-band, band, 2049)
    W = wigner(psi, grid512.axis, xi)
    marginal = np.trapezoid(W, xi, axis=1)
    assert np.abs(marginal - psi.density()).max() < 1e-6
    total = np.trapezoid(marginal, grid512.axis)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_wigner_negative_for_superposition(grid512):
    psi = superposition([coherent_state(grid512, HBAR, -0.8, 0.0),
                         coherent_state(grid512, HBAR, 0.8, 0.0)], [1.0, 1.0])
    x = grid512.axis[::2]
    xi = np.linspace(-1.5, 1.5, 101)
    W = wigner(psi, x, xi)
    assert W.min() < -0.05 / HBAR        # interference fringes go negative
    H = husimi(psi, np.linspace(-2, 2, 41), np.linspace(-1.5, 1.5, 41))
    assert H.values.min() >= 0.0


def test_wigner_band_guard(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    band = np.pi * HBAR / (2 * grid512.dx)
    with pytest.raises(SpectralBandError):
        wigner(psi, grid512.axis[:4], np.array([1.5 * band]))


# ---------------------------------------------------------------------------
# Husimi
# ---------------------------------------------------------------------------

def test_husimi_peak_at_center(grid512):
    psi = coherent_state(grid512, HBAR, 0.5, -0.3)
    q = np.linspace(-0.5, 1.5, 81)
    p = np.linspace(-1.3, 0.7, 81)
    field = husimi(psi, q, p)
    i, j = np.unravel_index(field.values.argmax(), field.values.shape)
    assert q[i] == pytest.approx(0.5, abs=0.03)
    assert p[j] == pytest.approx(-0.3, abs=0.03)


def test_husimi_total_integral(grid512):
    psi = gaussian_state(grid512, HBAR, 0.0, 0.5, 0.3)
    q = np.linspace(-3.0, 3.0, 121)
    p = np.linspace(-2.5, 3.5, 121)
    assert husimi(psi, q, p).integral() == pytest.approx(1.0, abs=1e-4)


def test_husimi_is_smoothed_wigner(grid512):
    # heat-kernel smoothing of the Wigner field at variance hbar/2 per axis
    psi = coherent_state(grid512, HBAR, 0.4, 0.2)
    x = grid512.axis
    dxi = 0.02
    xi = np.arange(-2.5, 2.9 + dxi / 2, dxi)
    W = wigner(psi, x, xi)
    sigma = np.sqrt(HBAR / 2.0)
    blurred = gaussian_filter(W, sigma=[sigma / grid512.dx, sigma / dxi],
                              mode="constant", truncate=10.0)
    qs = x[np.abs(x - 0.4) < 1.5]
    ps = xi[np.abs(xi - 0.2) < 1.5]
    H = husimi(psi, qs, ps)
    sub = blurred[np.ix_(np.abs(x - 0.4) < 1.5, np.abs(xi - 0.2) < 1.5)]
    assert np.abs(sub - H.values).max() < 1e-5


def test_overlap_formula(grid512, rng):
    for _ in range(6):
        q1, p1, q2, p2 = rng.uniform(-1, 1, size=4)
        a = coherent_state(grid512, HBAR, q1, p1)
        b = coherent_state(grid512, HBAR, q2, p2)
        numeric = abs(inner(a, b)) ** 2
        assert numeric == pytest.approx(
            coherent_overlap_sq(HBAR, q1, p1, q2, p2), abs=1e-8)


def bra_factor(axis, q, p, hbar):
    """Per-axis factor of the conjugated coherent bra, sans the q.p phase
    (which cancels in |.|^2): rows are points, columns grid nodes."""
    diff = axis[None, :] - q[:, None]
    return np.exp(-(diff ** 2) / (2.0 * hbar) - 1j * p[:, None] * axis[None, :] / hbar)


def sandwich_per_point(psi, pts):
    """|<q,p|psi>|^2 from a coherent bra factor built for each point, and one
    sandwich g1 @ values @ g2 per point."""
    d = psi.grid.dim
    pref = (np.pi * psi.hbar) ** (-d / 4) * psi.grid.cell_volume
    g = [bra_factor(psi.grid.axis, pts[:, a], pts[:, d + a], psi.hbar) for a in range(d)]
    amp = g[0] @ psi.values if d == 1 else np.einsum("mn,mn->m", g[0] @ psi.values, g[1])
    return np.abs(amp * pref) ** 2


def lattice_expression_1d(psi, pts):
    """The dim-1 lattice expression |(gauss * values) @ kernel * dx * (pi hbar)^(-1/4)|^2
    over the points' distinct q and p, read back at each point."""
    x, hbar = psi.grid.axis, psi.hbar
    q, iq = np.unique(pts[:, 0], return_inverse=True)
    p, ip = np.unique(pts[:, 1], return_inverse=True)
    gauss = np.exp(-((q[:, None] - x[None, :]) ** 2) / (2.0 * hbar))
    kernel = np.exp(-1j * np.outer(x, p) / hbar)
    amp = ((gauss * psi.values[None, :]) @ kernel) * psi.grid.dx * (np.pi * hbar) ** (-0.25)
    return (np.abs(amp) ** 2)[iq, ip]


@pytest.mark.parametrize("case", ["2d", "1d", "single"])
def test_overlap_points_match_per_point_sandwich(case, grid512):
    rng = np.random.default_rng(7)
    if case == "1d":
        psi = coherent_state(grid512, HBAR, 0.2, -0.3)
        dims = 1
    else:
        grid = quantum.Grid(dim=2, n=64, length=8.0)
        psi = coherent_state(grid, HBAR, [0.2, -0.1], [0.3, 0.4])
        dims = 2
    if case == "single":
        pts = np.array([[0.25, -0.05, 0.3, 0.35]])
    else:
        # a 9-node lattice per phase axis repeats every coordinate, and the
        # uniform points fall off it; 8 of them span a 17^4 lattice in 2-d
        lattice = lattice_points([np.linspace(-0.6, 0.6, 9)] * (2 * dims))
        extra = rng.uniform(-0.7, 0.7, (50 if dims == 1 else 8, 2 * dims))
        pts = rng.permutation(np.vstack([lattice, extra]))
    got = phasespace._overlap_sq_points(psi, pts)
    np.testing.assert_allclose(got, sandwich_per_point(psi, pts), rtol=1e-13, atol=0)
    if dims == 1:
        np.testing.assert_array_equal(got, lattice_expression_1d(psi, pts))
        q, p = np.unique(pts[:, 0]), np.unique(pts[:, 1])
        np.testing.assert_array_equal(phasespace.coherent_overlaps(psi, q, p),
                                      lattice_expression_1d(psi, lattice_points([q, p]))
                                      .reshape(len(q), len(p)))


def test_overlap_points_reject_the_wrong_width(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    with pytest.raises(ValueError, match="2\\*dim = 2 columns"):
        phasespace._overlap_sq_points(psi, np.array([[0.0, 0.0, 9.0]]))
    psi2 = coherent_state(quantum.Grid(dim=2, n=16, length=8.0), HBAR, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="2\\*dim = 4 columns"):
        phasespace._overlap_sq_points(psi2, np.zeros((3, 2)))


def test_overlap_points_match_closed_form_2d():
    # a 2-d coherent ket against coherent bras on a 4-d lattice around it
    hbar = 0.05
    grid = quantum.Grid(dim=2, n=128, length=8.0)
    psi = coherent_state(grid, hbar, [0.3, -0.2], [0.5, -0.4])
    axes = [c + np.linspace(-0.5, 0.5, 7) for c in (0.3, -0.2, 0.5, -0.4)]
    pts = lattice_points(axes)
    exact = [coherent_overlap_sq(hbar, z[:2], z[2:], [0.3, -0.2], [0.5, -0.4]) for z in pts]
    np.testing.assert_allclose(phasespace._overlap_sq_points(psi, pts), exact,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim, n, qs, ps, tight", [
    (1, 512, [4000], [3], True), (2, 32, [2, 200], [2, 100], True),
    (2, 32, [200, 2], [100, 2], False),
], ids=["1d_tall", "2d_wide_last_axis", "2d_wide_first_axis"])
def test_overlap_bytes_bound_the_tables(dim, n, qs, ps, tight):
    # the numpy arrays _overlap_sq_points allocates peak within its counted
    # tables plus what the node cap bounds (point indices, the final |.|^2);
    # the tight lattices are all tables, and the count is close there
    grid = quantum.Grid(dim=dim, n=n, length=20.0)
    psi = coherent_state(grid, 0.05, [0.0] * dim, [0.5] * dim)
    pts = lattice_points([np.linspace(-1, 1, c) for c in qs] + [np.linspace(0, 1, c) for c in ps])
    counted = phasespace.overlap_bytes(list(zip(qs, ps)), n)
    tracemalloc.start()
    try:
        phasespace._overlap_sq_points(psi, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counted + 64 * len(pts) + 2 ** 20
    assert peak >= 0.9 * counted or not tight


def test_husimi_mass_whole_box(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    K = phase_box(-3.0, 3.0, -3.0, 3.0, spacing=0.08)
    assert husimi_mass(psi, K, quadrature_spacing(HBAR)) == pytest.approx(1.0, abs=1e-4)


def test_husimi_mass_degenerate_box_is_zero(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    K = CompactSet(np.array([[[0.0, 0.0], [-1.0, 1.0]]]), 0.1)
    assert husimi_mass(psi, K, quadrature_spacing(HBAR)) == 0.0


def test_husimi_mass_monotone(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    small = phase_box(-0.3, 0.3, -0.3, 0.3)
    large = phase_box(-0.8, 0.8, -0.8, 0.8)
    h = quadrature_spacing(HBAR)
    assert husimi_mass(psi, small, h) <= husimi_mass(psi, large, h) + 1e-12


def test_husimi_mass_matches_gaussian_integral(grid512):
    # Husimi density of a coherent state is a Gaussian of variance hbar per axis
    from math import erf, sqrt
    psi = coherent_state(grid512, HBAR, 0.2, -0.1)
    K = phase_box(-0.4, 0.8, -0.7, 0.5, spacing=0.04)
    expected = erf(0.6 / sqrt(2 * HBAR)) ** 2
    coarse = husimi_mass(psi, K, spacing=0.04)
    fine = husimi_mass(psi, K, spacing=0.01)
    assert fine == pytest.approx(expected, abs=1e-4)
    # trapezoid boundary error shrinks quadratically with the spacing
    assert abs(coarse - expected) <= 16.5 * abs(fine - expected) + 1e-5


def test_husimi_mass_2d_matches_gaussian_integral():
    # the 2-d Husimi density of a coherent state is a Gaussian of variance
    # hbar per phase coordinate: its mass on a 4-d box is an erf product
    hbar = 0.05
    grid = quantum.Grid(dim=2, n=128, length=8.0)
    psi = coherent_state(grid, hbar, [0.3, -0.2], [0.5, -0.4])
    K = CompactSet(np.array([[[0.0, 0.7], [-0.6, 0.1], [0.2, 0.8], [-0.8, 0.0]]]), 0.1)
    expected = coherent_husimi_mass(K, hbar, [0.3, -0.2], [0.5, -0.4])
    coarse = husimi_mass(psi, K, spacing=0.1)
    fine = husimi_mass(psi, K, spacing=0.025)
    assert fine == pytest.approx(expected, abs=2e-3)
    # trapezoid boundary error shrinks quadratically with the spacing
    assert abs(coarse - expected) <= 16.5 * abs(fine - expected) + 1e-5


def test_husimi_mass_refinement_delta(grid512):
    psi = coherent_state(grid512, HBAR, 0.2, -0.1)
    K = phase_box(-0.4, 0.8, -0.7, 0.5, spacing=0.04)
    # at the quadrature spacing sqrt(hbar)/5 and half of it
    value, delta = phasespace.husimi_mass_refined(psi, K)
    h = math.sqrt(HBAR) / 5
    assert value == husimi_mass(psi, K, h)
    assert delta == abs(value - husimi_mass(psi, K, h / 2))
    assert 0 <= delta < 5e-3


def test_coherent_tail_check_reports_honestly(grid512):
    # the quadrature agrees with the closed-form erf mass
    K = phase_box(-0.6, 0.6, -0.6, 0.6, spacing=0.04)
    exact = coherent_husimi_mass(K, HBAR, 0.0, 0.0)
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    assert husimi_mass(psi, K, spacing=0.01) == pytest.approx(exact, abs=1e-4)


# ---------------------------------------------------------------------------
# Toeplitz states
# ---------------------------------------------------------------------------

def test_single_atom_is_pure_coherent(grid512):
    R = toeplitz_from_density([(0.3, -0.2, 1.0)], HBAR)
    psi = R.atom_state(0, grid512)
    ref = coherent_state(grid512, HBAR, 0.3, -0.2)
    assert abs(abs(inner(psi, ref)) - 1.0) < 1e-12


def test_weights_normalize_and_reject_negative():
    R = toeplitz_from_density([(0.0, 0.0, 2.0), (1.0, 0.0, 2.0)], HBAR)
    assert R.symbol.weights == pytest.approx([0.5, 0.5])
    with pytest.raises(ValueError, match="negative"):
        toeplitz_from_density([(0.0, 0.0, -0.1), (1.0, 0.0, 1.1)], HBAR)


@pytest.mark.parametrize("hbar", [0.0, -0.1, math.nan, math.inf])
def test_toeplitz_state_rejects_a_bad_hbar(hbar):
    # NaN and inf fail here, not later in atom_state
    symbol = toeplitz_from_density([(0.0, 0.0, 1.0)], HBAR).symbol
    with pytest.raises(ValueError, match="hbar must be finite and positive"):
        phasespace.ToeplitzState(symbol, hbar)


def test_toeplitz_observed_mass_full_cutoff(grid512, free):
    R = toeplitz_from_density([(0.0, 0.8, 0.5), (0.4, 1.2, 0.5)], HBAR)
    # chi = 1 at every finite point: the indicator of the unbounded interval
    everywhere = IndicatorCutoff(Region(np.array([[[-math.inf, math.inf]]])))
    m = toeplitz_observed_mass(free, R, grid512, 1.0, everywhere, 1e-3)
    assert m == pytest.approx(1.0, abs=1e-10)


def test_toeplitz_linearity(grid512, free):
    chi = IndicatorCutoff(Region(np.array([[[0.5, 1.5]]])))
    atoms = [(0.0, 1.0, 0.3), (0.2, 0.8, 0.7)]
    R = toeplitz_from_density(atoms, HBAR)
    total = toeplitz_observed_mass(free, R, grid512, 1.5, chi, 1e-3)
    parts = 0.0
    for q, p, w in atoms:
        single = toeplitz_from_density([(q, p, 1.0)], HBAR)
        parts += w * toeplitz_observed_mass(free, single, grid512, 1.5, chi, 1e-3)
    assert total == pytest.approx(parts, abs=1e-12)


def test_uniform_atomization_lattice():
    K = phase_box(-1.0, 1.0, 0.5, 1.5)
    pts, ws = phasespace.uniform_atomization(K, 4)
    assert len(pts) == 16
    assert ws == pytest.approx(np.full(16, 1 / 16))
    assert K.contains(pts).all()
    # atoms sit at cell centers, strictly inside
    assert np.all(np.abs(pts[:, 0]) <= 1.0 - 0.25 + 1e-12)


def test_uniform_atomization_integrates_cutoff():
    # atomized density integrates a Lipschitz cutoff consistently with a
    # continuum quadrature at O(1/m)
    from obscert.classical import RampCutoff
    K = phase_box(-1.0, 1.0, 0.5, 1.5)
    chi = RampCutoff(Region(np.array([[[-0.3, 0.4]]])), 0.6)
    dense_pts, dense_w = phasespace.uniform_atomization(K, 64)
    continuum = float(np.sum(dense_w * chi(dense_pts[:, :1])))
    errs = []
    for m in (2, 4, 8, 16):
        pts, ws = phasespace.uniform_atomization(K, m)
        errs.append(abs(float(np.sum(ws * chi(pts[:, :1]))) - continuum))
    assert errs[-1] <= errs[0]
    assert errs[-1] < 1.0 / 16


def test_atomization_refinement(grid512):
    # uniform atomization of a box integrates a Lipschitz cutoff at O(1/m)
    from obscert.classical import RampCutoff
    chi = RampCutoff(Region(np.array([[[-0.2, 0.6]]])), 0.5)
    lo, hi = -1.0, 1.0
    dense = np.linspace(lo, hi, 20001)
    continuum = np.mean(chi(dense[:, None]))
    errs = []
    for m in (8, 16, 32, 64):
        atoms = np.linspace(lo, hi, m)
        vals = chi(atoms[:, None])
        errs.append(abs(np.mean(vals) - continuum))
    assert errs[-1] <= errs[0]
    assert errs[-1] < (hi - lo) / 64
