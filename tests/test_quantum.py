import math
import sys
import threading

import numpy as np
import pytest

from obscert import certify, classical, potentials, quantum
from obscert.classical import IndicatorCutoff, PhasePoint, Region
from obscert.phasespace import toeplitz_from_density
from obscert.quantum import (
    BoundaryLeakError, Grid, SpectralAliasError, WaveBatch, coherent_state,
    cost_expectation, gaussian_state, inner, momentum_moments, observed_mass_series,
    position_moments, propagate, second_moment, spread, superposition,
)

HBAR = 0.1


def interval(lo, hi):
    return Region(np.array([[[lo, hi]]]))


def everywhere(dim=1):
    """chi = 1 at every finite point: the indicator of the unbounded box,
    whose sampled weights are all ones and whose edge cells are none."""
    return IndicatorCutoff(Region(np.array([[[-math.inf, math.inf]] * dim])))


def sampled(grid, chis):
    """The cutoffs' weights on the grid, one row per cutoff, and the edge
    cells of each indicator among them, as a certificate samples them."""
    weights = np.stack([np.asarray(chi(grid.points()), dtype=float) for chi in chis])
    cells = [certify._edge_cells(w.reshape(grid.shape))
             for chi, w in zip(chis, weights) if chi.is_indicator]
    return weights, cells


def row_mass(V, psi, T, chi, dt):
    """Observed mass of one state, as a batch of one row."""
    weights, _ = sampled(psi.grid, [chi])
    [(series, _)] = observed_mass_series(V, WaveBatch.of([psi]), T, weights, [], [dt])
    return float(certify._trapezoid(series[0], T)[0][0])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_coherent_norm_and_overlap(grid512):
    psi = coherent_state(grid512, HBAR, 0.3, -0.4)
    assert abs(psi.norm - 1.0) < 1e-12
    assert abs(abs(inner(psi, psi)) - 1.0) < 1e-12


def test_coherent_spread_is_minimal(grid512):
    for hbar in (0.05, 0.1, 0.2):
        psi = coherent_state(grid512, hbar, 0.5, 1.0)
        assert spread(psi) == pytest.approx(np.sqrt(hbar), abs=1e-8)


def test_gaussian_spread_formula(grid512):
    for sigma in (0.2, 0.5, 1.0):
        psi = gaussian_state(grid512, HBAR, 0.0, 0.0, sigma)
        expected = np.sqrt(sigma ** 2 / 2 + HBAR ** 2 / (2 * sigma ** 2))
        assert spread(psi) == pytest.approx(expected, abs=1e-8)


def test_heisenberg_floor(grid512):
    states = [
        coherent_state(grid512, HBAR, 0.0, 0.0),
        gaussian_state(grid512, HBAR, 0.5, -0.5, 0.3),
        superposition([coherent_state(grid512, HBAR, -1.0, 0.0),
                       coherent_state(grid512, HBAR, 1.0, 0.0)], [1.0, 1.0]),
    ]
    for psi in states:
        assert spread(psi) ** 2 >= 1 * HBAR - 1e-9


def test_boundary_monitor_trips():
    small = Grid(dim=1, n=64, length=4.0)
    with pytest.raises(BoundaryLeakError):
        coherent_state(small, 0.5, 1.5, 0.0)


# packets the grid cannot hold: each raised ValueError or OverflowError, or
# built a NaN state, where it now is a numerical abort
@pytest.mark.parametrize("q, p, sigma, hbar, message", [
    (1e308, 0.0, 0.3, HBAR, "has norm 0.0 on the grid"),
    (2.0 ** 70, 0.0, 0.3, HBAR, "has norm 0.0 on the grid"),
    (0.0, 1e308, 0.3, HBAR, "has norm nan on the grid"),
    (0.0, 1.0, 0.3, 1e-320, "has norm nan on the grid"),
    (0.0, 0.0, 1e-320, HBAR, "has norm nan on the grid"),
    (0.0, 0.0, 1e308, HBAR, "boundary amplitude"),
], ids=["q=1e308", "q=2^70", "p=1e308", "hbar=1e-320", "sigma=1e-320", "sigma=1e308"])
def test_packet_the_grid_cannot_hold_is_a_numerical_abort(grid512, q, p, sigma, hbar,
                                                           message):
    with pytest.raises(quantum.NumericsError, match=f"^hbar={hbar:g}: .*{message}"):
        gaussian_state(grid512, hbar, q, p, sigma)


def test_boundary_monitor_sees_mid_run_leaks(grid1024, harm):
    # the packet swings out to |x| ~ 6.5 at t ~ pi/2, where its edge amplitude
    # peaks at 4.4e-10, and is back at the center by t = pi (7.3e-15 there):
    # a check of the final state alone passes this run
    psi = coherent_state(grid1024, 0.05, 0.0, 6.5)
    with pytest.raises(BoundaryLeakError, match=r"at t = 1\.\d+ exceeds"):
        propagate(harm, psi, np.pi, 1e-3)


@pytest.mark.parametrize("dim", [1, 2])
def test_step_monitor_reads_the_synchronized_edges(dim, rng):
    # the monitor of propagate_series reads a block (steps, rows, *grid) at once
    grid = Grid(dim=dim, n=16, length=8.0)
    shape = (3, 2) + grid.shape
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    on_face = np.ones(grid.shape, dtype=bool)
    on_face[(slice(1, -1),) * dim] = False
    amp = grid.edge_amplitude(block)
    assert amp.shape == (3, 2)
    for i, r in np.ndindex(amp.shape):
        assert amp[i, r] == np.abs(block[i, r][on_face]).max()
        assert amp[i, r] == quantum.WaveFunction(grid, block[i, r], HBAR).boundary_amplitude()


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        Grid(dim=1, n=500, length=16.0)


@pytest.mark.parametrize("dim, length", [(1, 1e-320), (2, 1e-160), (2, 1e308)])
def test_grid_refuses_a_cell_volume_off_the_normal_floats(dim, length):
    # every mass is a sum times the cell volume: a subnormal one left no mass on
    # the grid, and an overflowing one raised OverflowError
    with pytest.raises(quantum.GridError, match=r"cell volume .* not a normal float") as err:
        Grid(dim=dim, n=128, length=length)
    assert err.value.field == "length"


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_length_and_hbar_must_be_finite_and_positive(grid512, bad):
    # NaN used to pass the `<= 0` tests, giving dx = nan or hbar = nan
    with pytest.raises(ValueError, match="length"):
        Grid(dim=1, n=512, length=bad)
    zeros = np.zeros(grid512.shape)
    with pytest.raises(ValueError, match="hbar"):
        quantum.WaveFunction(grid512, zeros, bad)
    with pytest.raises(ValueError, match="hbar"):
        WaveBatch(grid512, np.stack([zeros, zeros]), [HBAR, bad])


@pytest.mark.parametrize("t, dt, steps", [
    (0.0, 0.1, 1),                          # one step of size 0
    (1 * 0.25 * (1 + 1e-13), 0.25, 1),      # t/dt = k (1 + 1e-13): k steps
    (3 * 0.1 * (1 + 1e-13), 0.1, 3),
    (8 * 0.7 * (1 + 1e-13), 0.7, 8),
    (1.0, 0.3, 4),                          # not a multiple: ceil(t/dt) steps
    (2.0, 0.7, 3),
    (0.05, 0.1, 1),
], ids=["t=0", "k=1", "k=3", "k=8", "ceil-1.0/0.3", "ceil-2.0/0.7", "t<dt"])
def test_split_steps_edges(t, dt, steps):
    n, h = quantum.split_steps(t, dt)
    assert (n, h) == (steps, t / steps)
    assert h <= dt or t / dt - steps <= steps * 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_boundary_cells_are_the_faces(dim):
    grid = Grid(dim=dim, n=8, length=4.0)
    on_face = np.zeros(grid.shape, dtype=bool)
    for ax in range(dim):
        on_face[(slice(None),) * ax + (0,)] = True
        on_face[(slice(None),) * ax + (-1,)] = True
    np.testing.assert_array_equal(grid.boundary_cells, np.flatnonzero(on_face))
    assert grid.boundary_cells is grid.boundary_cells           # built once per grid
    assert not grid.boundary_cells.flags.writeable


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_unitarity(grid512, free, harm, dwell):
    psi = gaussian_state(grid512, HBAR, 0.2, 0.4, 0.4)
    for V in (free, harm, dwell):
        out = propagate(V, psi, 0.7, 1e-3)
        assert abs(out.norm - psi.norm) < 1e-12


def test_harmonic_coherent_evolution_oracle(grid512, harm):
    # a coherent state follows the classical rotation exactly
    psi = propagate(harm, coherent_state(grid512, HBAR, 1.0, 0.0), np.pi / 2, 1e-3)
    target = coherent_state(grid512, HBAR, 0.0, -1.0)
    assert abs(inner(target, psi)) >= 1.0 - 1e-5


def test_free_gaussian_variance_growth(grid512, free):
    sigma, t = 0.5, 1.0
    psi = propagate(free, gaussian_state(grid512, HBAR, 0.0, 0.0, sigma), t, 1e-2)
    _, var = position_moments(psi)
    expected = sigma ** 2 / 2 + (HBAR * t) ** 2 / (2 * sigma ** 2)
    assert var[0] == pytest.approx(expected, abs=1e-6)


def test_time_step_convergence_second_order(grid512, harm):
    psi0 = coherent_state(grid512, HBAR, 1.0, 0.0)
    ref = propagate(harm, psi0, 1.0, 5e-4).values
    errs = []
    for dt in (8e-3, 4e-3):
        out = propagate(harm, psi0, 1.0, dt).values
        errs.append(np.sqrt(np.sum(np.abs(out - ref) ** 2) * grid512.cell_volume))
    order = np.log2(errs[0] / errs[1])
    assert 1.6 <= order <= 2.4


def test_ehrenfest_harmonic(grid512, harm):
    psi0 = coherent_state(grid512, HBAR, 1.0, 0.0)
    times = [0.9, 2.7, 4.4, 2 * np.pi]
    state, t_last = psi0, 0.0
    for t in times:
        state = propagate(harm, state, t - t_last, 1e-3)
        t_last = t
        xq, _ = position_moments(state)
        pq, _ = momentum_moments(state)
        pt = classical.flow(harm, PhasePoint([1.0], [0.0]), t, 1e-4)
        assert abs(xq[0] - pt.x[0]) < 1e-4
        assert abs(pq[0] - pt.xi[0]) < 1e-4


def test_alias_monitor_trips(free):
    coarse = Grid(dim=1, n=64, length=16.0)
    hot = coherent_state(coarse, HBAR, 0.0, 0.95 * HBAR * np.pi / coarse.dx)
    with pytest.raises(SpectralAliasError):
        propagate(free, hot, 0.1, 1e-2)


# ---------------------------------------------------------------------------
# moments and expectations
# ---------------------------------------------------------------------------

def test_second_moment_coherent(grid512):
    psi = coherent_state(grid512, HBAR, 0.0, 0.0)
    assert second_moment(psi, 1.0) == pytest.approx(HBAR, abs=1e-8)
    psi2 = coherent_state(grid512, HBAR, 1.0, 0.5)
    assert second_moment(psi2, 1.0) == pytest.approx(HBAR + 1.0 + 0.25, abs=1e-8)


def test_second_moment_lambda_zero_is_kinetic(grid512):
    psi = coherent_state(grid512, HBAR, 1.0, 0.5)
    _, var_p = momentum_moments(psi)
    mean_p, _ = momentum_moments(psi)
    kinetic = float(var_p.sum() + np.sum(mean_p ** 2))
    assert second_moment(psi, 0.0) == pytest.approx(kinetic, abs=1e-10)


def quadrature_cost_expectation(psi, x0, xi0, lam):
    """Reference: lam^2 |x0 - y|^2 + |xi0 + i hbar grad|^2 by its own
    quadrature, the position part on the grid and the momentum part
    spectrally, as cost_expectation took it before it read the moments."""
    dens = psi.density() * psi.grid.cell_volume
    pos = sum(float((((m - c) ** 2) * dens).sum()) for m, c in zip(psi.grid.meshes(), x0))
    w = np.abs(np.fft.fftn(psi.values)) ** 2
    mom = sum(float((((psi.hbar * km - c) ** 2) * w).sum() / w.sum())
              for km, c in zip(psi.grid.k_meshes(), xi0))
    return lam ** 2 * pos / dens.sum() + mom


def formula_spread(psi):
    """Reference: spread as position_moments and momentum_moments took it
    before they shared one kernel: per axis the mean, then the variance,
    each a weighted sum over the weights' total."""
    variances = []
    for w, coords in [(psi.density() * psi.grid.cell_volume, psi.grid.meshes()),
                      (np.abs(np.fft.fftn(psi.values)) ** 2,
                       [psi.hbar * km for km in psi.grid.k_meshes()])]:
        for c in coords:
            mu = float((c * w).sum() / w.sum())
            variances.append(float((((c - mu) ** 2) * w).sum() / w.sum()))
    return float(np.sqrt(np.sum(variances[:psi.grid.dim]) + np.sum(variances[psi.grid.dim:])))


@pytest.mark.parametrize("dim, n, length", [(1, 1024, 16.0), (1, 2048, 16.0), (2, 128, 12.0)])
def test_cost_expectation_reads_the_moments(dim, n, length, rng):
    # random Gaussian packets: the cost from the moments matches the direct
    # quadrature, and spread keeps its bits
    grid = Grid(dim=dim, n=n, length=length)
    for _ in range(4):
        hbar = rng.uniform(0.05, 0.2)
        q, p = rng.uniform(-1.5, 1.5, dim), rng.uniform(-1.0, 1.0, dim)
        psi = gaussian_state(grid, hbar, q, p, rng.uniform(0.5, 1.5) * math.sqrt(hbar))
        x0, xi0, lam = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim), rng.uniform(0.3, 3.0)
        assert cost_expectation(psi, x0, xi0, lam) == pytest.approx(
            quadrature_cost_expectation(psi, x0, xi0, lam), rel=1e-14, abs=0)
        zeros = np.zeros(dim)
        assert second_moment(psi, lam) == pytest.approx(
            quadrature_cost_expectation(psi, zeros, zeros, lam), rel=1e-14, abs=0)
        assert spread(psi) == formula_spread(psi)


def test_cost_expectation_matches_closed_form(grid1024, rng):
    from obscert.transport import CostParams, coherent_cost_expectation
    for _ in range(4):
        q, p = rng.uniform(-1, 1), rng.uniform(-1, 1)
        x, xi = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lam = rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.05, 0.25)
        psi = coherent_state(grid1024, hbar, q, p)
        numeric = cost_expectation(psi, [x], [xi], lam)
        closed = coherent_cost_expectation([x], [xi], [q], [p],
                                           CostParams(lam=lam, hbar=hbar))
        assert numeric == pytest.approx(closed, abs=1e-6)


# ---------------------------------------------------------------------------
# observed mass
# ---------------------------------------------------------------------------

def test_observed_mass_full_cutoff(grid512, harm):
    psi = coherent_state(grid512, HBAR, 1.0, 0.0)
    m = row_mass(harm, psi, 1.3, everywhere(), 1e-3)
    assert m == pytest.approx(1.3, abs=1e-10)


def test_observed_mass_zero_cutoff(grid512, free):
    psi = coherent_state(grid512, HBAR, 0.0, 1.0)
    # an indicator of an interval off the grid [-8, 8): weights all zero
    assert row_mass(free, psi, 1.0, IndicatorCutoff(interval(20.0, 21.0)), 1e-3) == 0.0


def test_observed_mass_semiclassical_window(free):
    # hbar = 0.05 packet crossing (0.5, 1.5) at unit speed: classical time 1.0
    grid = Grid(dim=1, n=1024, length=16.0)
    chi = IndicatorCutoff(interval(0.5, 1.5))
    psi = coherent_state(grid, 0.05, 0.0, 1.0)
    m = row_mass(free, psi, 2.0, chi, 1e-3)
    fine_grid = Grid(dim=1, n=2048, length=16.0)
    fine = row_mass(free, coherent_state(fine_grid, 0.05, 0.0, 1.0),
                         2.0, chi, 1e-4)
    # indicator quadrature error is O(dx): halving dx moves the value by ~dx
    assert abs(m - fine) < 2.0 * grid.dx
    assert m == pytest.approx(1.0, abs=5e-2)
    assert fine == pytest.approx(1.0, abs=5e-2)


# ---------------------------------------------------------------------------
# dim 2
# ---------------------------------------------------------------------------

def test_dim2_coherent_and_propagation(harm):
    # n=256 keeps coarse-grid split-step residue at the box edge below 1e-12
    grid = Grid(dim=2, n=256, length=16.0)
    V2 = __import__("obscert.potentials", fromlist=["harmonic"]).harmonic(dim=2)
    psi = coherent_state(grid, HBAR, [0.5, -0.5], [0.0, 0.5])
    assert abs(psi.norm - 1.0) < 1e-12
    assert spread(psi) == pytest.approx(np.sqrt(2 * HBAR), abs=1e-8)
    out = propagate(V2, psi, 0.3, 1e-2)
    assert abs(out.norm - 1.0) < 1e-12
    assert second_moment(psi, 1.0) == pytest.approx(2 * HBAR + 0.5 + 0.25, abs=1e-8)


# ---------------------------------------------------------------------------
# batches against the single-row loop
# ---------------------------------------------------------------------------

def single_row_reference(V, psi, T, weights, cells, dt):
    """Reference: one state at a time, the Strang loop and observer a lone row
    ran before rows were batched.  Returns (series, cell_mass, final)."""
    grid = psi.grid
    n_steps, h = quantum.split_steps(T, dt)
    vgrid = V.value_fn(grid.points()).reshape(grid.shape)
    half = np.exp(-0.5j * vgrid * h / psi.hbar)
    full = half * half
    k2 = sum(km ** 2 for km in grid.k_meshes())
    kinetic = np.exp(-0.5j * psi.hbar * k2 * h)
    series, cell_mass = [], []

    def observe(values):
        dens = (np.abs(values) ** 2).reshape(-1) * grid.cell_volume
        series.append(weights @ dens)
        cell_mass.append([dens[idx].sum() for idx in cells])

    observe(psi.values)
    current = psi.values * half
    for step in range(n_steps):
        current = np.fft.ifftn(np.multiply(kinetic, np.fft.fftn(current)))
        if step == n_steps - 1:
            current = current * half
            observe(current)
        else:
            observe(current * half)
            current = current * full
    return np.array(series), np.array(cell_mass).reshape(len(series), len(cells)), current


def assert_batch_matches_rows(V, states, T, chis, dt, labels=()):
    batch = WaveBatch.of(states, labels)
    weights, cells = sampled(batch.grid, chis)
    [(series, cell_mass)] = observed_mass_series(V, batch, T, weights, cells, [dt])
    final = quantum.propagate_series(V, batch, T, dt, lambda t, s: None)
    n_t = quantum.split_steps(T, dt)[0] + 1
    assert series.shape == (len(states), n_t, len(chis))
    assert cell_mass.shape == (len(states), n_t, len(cells))
    for r, psi in enumerate(states):
        ref_series, ref_cells, final_r = single_row_reference(V, psi, T, weights, cells, dt)
        np.testing.assert_array_equal(series[r], ref_series)
        np.testing.assert_array_equal(cell_mass[r], ref_cells)
        np.testing.assert_array_equal(final.values[r], final_r)
    return series, cell_mass


def _cutoffs_1d():
    return [IndicatorCutoff(interval(-0.4, 0.9)), IndicatorCutoff(interval(0.3, 2.5)),
            everywhere()]


def test_batch_rows_with_mixed_hbar_match_single_rows(grid512, dwell):
    states = [coherent_state(grid512, 0.05, 0.8, 0.3),
              coherent_state(grid512, 0.2, -0.5, 1.0),
              gaussian_state(grid512, 0.1, 0.2, -0.4, 0.4)]
    _, cell_mass = assert_batch_matches_rows(dwell, states, 0.6, _cutoffs_1d(), 1e-3)
    assert np.all(cell_mass[..., :2].max(axis=1) > 0)   # both indicator edges saw mass
    assert not cell_mass[..., 2].any()                  # the unbounded one has no edge


def test_batch_toeplitz_atoms_match_single_rows(harm):
    # two hbar columns of four atoms each; at n = 2048 the stack takes 256 KiB,
    # the size from which numpy evaluates a product with a temporary in place
    grid = Grid(dim=1, n=2048, length=16.0)
    states, labels = [], []
    for hbar in (0.05, 0.2):
        R = toeplitz_from_density([(q, p, 1.0) for q, p in
                                   [(-1.0, 0.5), (0.0, 1.0), (0.5, -0.5), (1.2, 0.0)]], hbar)
        for j in range(len(R.symbol.weights)):
            states.append(R.atom_state(j, grid))
            labels.append(f"hbar={hbar:g}, atom {j}")
    assert len(states) * grid.n * 16 == 256 * 1024
    assert_batch_matches_rows(harm, states, 0.25, _cutoffs_1d(), 1e-3, labels)


@pytest.mark.parametrize("n, length", [(64, 8.0), (128, 12.0), (256, 16.0)])
def test_batch_2d_rows_match_single_rows(n, length):
    # a row takes 64 KiB at 64^2 and 1 MiB at 256^2: the two rows' block of
    # synchronized states holds two steps at 64^2 and one from 128^2 on
    grid = Grid(dim=2, n=n, length=length)
    V2 = potentials.harmonic(dim=2)
    om = Region(np.array([[[-0.5, 1.0], [-1.0, 1.0]]]))
    states = [coherent_state(grid, 0.2, [0.5, 0.0], [0.0, 0.5]),
              coherent_state(grid, 0.1, [0.0, 0.2], [0.2, 0.0])]
    # observed_mass_series steps 2-D rows one at a time, propagate_series the
    # whole batch
    assert_batch_matches_rows(V2, states, 0.05, [IndicatorCutoff(om), everywhere(2)],
                              1e-2)


# (rows, dim, n): the 2-D stacks keep their ids by n
KINETIC_STACKS = ([pytest.param(2, 2, n, id=str(n)) for n in (32, 64, 128, 256)]
                  + [pytest.param(3, 2, 128, id="3x128^2")]
                  + [pytest.param(rows, 1, n, id=f"{rows}x{n}")
                     for rows in (1, 4, 8) for n in (512, 2048, 4096)])


@pytest.mark.parametrize("rows, dim, n", KINETIC_STACKS)
def test_2d_kinetic_step_matches_a_lone_row(rows, dim, n, rng):
    # one transform per axis over the stack against a lone row's transform
    # pair, 1-D and 2-D.  Random rows, because no packet fits a 32-point axis
    # with both its x and k tails below the boundary tolerance
    grid = Grid(dim=dim, n=n, length=8.0)
    stepper = quantum._Stepper(grid, quantum.grid_fields(potentials.harmonic(dim=dim), grid),
                               np.linspace(0.2, 0.1, rows), 1e-2)
    shape = (rows,) + grid.shape
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fft, ifft = (np.fft.fft, np.fft.ifft) if dim == 1 else (np.fft.fftn, np.fft.ifftn)
    expected = [ifft(np.multiply(k, fft(row))) for k, row in zip(stepper.kinetic, v)]
    stepper.kinetic_step(v)
    np.testing.assert_array_equal(v, np.stack(expected))


@pytest.mark.parametrize("threads", [None, 4])
def test_2d_tasks_at_both_step_sizes_match_single_rows(monkeypatch, threads):
    # one call at (dt, 2 dt): six row tasks, run on one thread per core, and
    # on more threads than cores with a short switch interval
    if threads is not None:
        monkeypatch.setattr(quantum, "cores", lambda: threads)
    grid = Grid(dim=2, n=64, length=8.0)
    V2 = potentials.harmonic(dim=2)
    chis = [IndicatorCutoff(Region(np.array([[[-0.5, 1.0], [-1.0, 1.0]]]))), everywhere(2)]
    weights, cells = sampled(grid, chis)
    states = [coherent_state(grid, 0.2, [0.5, 0.0], [0.0, 0.5]),
              coherent_state(grid, 0.1, [0.0, 0.2], [0.2, 0.0]),
              coherent_state(grid, 0.15, [-0.3, 0.1], [0.4, -0.2])]
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = observed_mass_series(V2, WaveBatch.of(states), 0.1, weights, cells,
                                       (1e-2, 2e-2))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert len(results) == 2
    for (series, cell_mass), dt in zip(results, (1e-2, 2e-2)):
        assert series.shape[1] == quantum.split_steps(0.1, dt)[0] + 1
        for r, psi in enumerate(states):
            ref_series, ref_cells, _ = single_row_reference(V2, psi, 0.1, weights, cells, dt)
            np.testing.assert_array_equal(series[r], ref_series)
            np.testing.assert_array_equal(cell_mass[r], ref_cells)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_2d_leak_first_in_row_order_is_raised(monkeypatch, threads):
    # rows 1 and 2 leak, row 2 earlier in time (t = 0.11 against 0.32): a
    # call at (dt, 2 dt) fails as the loop over step sizes, then rows, fails;
    # every thread that is free again finds a failed row at dt, so no row
    # starts at 2 dt.  On one or two threads that holds in any timing; on
    # three, the dt runs start together, one a thread, and row 0's waits
    # until rows 1 and 2 have raised (else row 0's thread, done first, could
    # start a 2 dt row before either leak)
    monkeypatch.setattr(quantum, "cores", lambda: threads)
    started = []
    together = threading.Barrier(3)
    leaked = threading.Semaphore(0)
    propagate_series = quantum.propagate_series

    def recording(V, psi, T, dt, observer, **kwargs):
        started.append((dt, psi.labels))
        if threads == 3 and dt == 1e-2:
            together.wait(timeout=60)
            if psi.labels == ("row 0",):
                assert leaked.acquire(timeout=60) and leaked.acquire(timeout=60)
        try:
            return propagate_series(V, psi, T, dt, observer, **kwargs)
        except BoundaryLeakError:
            leaked.release()
            raise

    monkeypatch.setattr(quantum, "propagate_series", recording)
    grid = Grid(dim=2, n=64, length=4.0)
    V2 = potentials.harmonic(dim=2)
    states = [coherent_state(grid, 0.05, [0.0, 0.0], [0.0, 0.0]),
              coherent_state(grid, 0.05, [0.0, 0.0], [0.8, 0.0]),
              coherent_state(grid, 0.05, [0.15, 0.0], [0.9, 0.0])]
    baseline = threading.active_count()
    with pytest.raises(BoundaryLeakError, match=r"^row 1: boundary amplitude .* at t = 0\.32 "):
        observed_mass_series(V2, WaveBatch.of(states, ["row 0", "row 1", "row 2"]), 0.6,
                             *sampled(grid, [everywhere(2)]), (1e-2, 2e-2))
    assert threading.active_count() == baseline
    assert {dt for dt, _ in started} == {1e-2}
    assert {(1e-2, ("row 0",)), (1e-2, ("row 1",))} <= set(started)


def test_task_loop_stops_at_an_interrupt():
    # the interrupt of task 0 propagates at once: task 1 never starts
    ran = []

    def run(i):
        ran.append(i)
        if i == 0:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        quantum._run_tasks(run, [(0,), (1,)], 1)
    assert ran == [0]


def test_1d_rows_start_no_thread(monkeypatch, grid512, harm):
    def no_thread(*args, **kwargs):
        raise AssertionError("a 1-D call started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    states = [coherent_state(grid512, 0.05, 0.8, 0.3), coherent_state(grid512, 0.2, -0.5, 1.0)]
    weights, cells = sampled(grid512, _cutoffs_1d())
    results = observed_mass_series(harm, WaveBatch.of(states), 0.2, weights, cells,
                                   (1e-2, 2e-2))
    for (series, cell_mass), dt in zip(results, (1e-2, 2e-2)):
        for r, psi in enumerate(states):
            ref_series, ref_cells, _ = single_row_reference(harm, psi, 0.2, weights, cells, dt)
            np.testing.assert_array_equal(series[r], ref_series)
            np.testing.assert_array_equal(cell_mass[r], ref_cells)


def test_leak_in_one_row_names_its_hbar(grid1024, harm):
    # the middle row is the mid-run reproducer of test_boundary_monitor_sees_mid_run_leaks
    states = [coherent_state(grid1024, 0.05, 0.0, 0.0),
              coherent_state(grid1024, 0.1, 0.0, 6.5),
              coherent_state(grid1024, 0.2, 0.5, 0.0)]
    with pytest.raises(BoundaryLeakError, match=r"^hbar=0\.1: boundary amplitude .* at t = 1\.\d+"):
        quantum.propagate_series(harm, WaveBatch.of(states), np.pi, 1e-3, lambda t, s: None)


@pytest.mark.parametrize("case", ["leaks", "stays"])
def test_spectral_tail_of_one_row_aborts(free, case):
    # "leaks": a packet near the Nyquist band spreads to the boundary in the
    # first step, and the tail is reported first; "stays": a packet of 1.6
    # cells (tail 2.4e-10), stepped so briefly that it keeps off the boundary,
    # fails the final tail check
    coarse = Grid(dim=1, n=64, length=16.0)
    cool = coherent_state(coarse, 0.5, 0.0, 0.0)
    if case == "leaks":
        hot = coherent_state(coarse, 0.01, 0.0, 0.95 * 0.01 * np.pi / coarse.dx)
        T, dt = 0.02, 1e-2
    else:
        hot = gaussian_state(coarse, 0.01, 0.0, 0.0, 1.6 * coarse.dx)
        T, dt = 2e-5, 1e-5
    assert cool.spectral_tail_mass() < quantum.ALIAS_TOL
    edges = []
    with pytest.raises(SpectralAliasError, match=r"^hbar=0\.01: spectral tail"):
        quantum.propagate_series(free, WaveBatch.of([cool, hot]), T, dt,
                                 lambda t, s: edges.append(float(coarse.edge_amplitude(s[1]))))
    # the leaking row stops the run in its first step, before the observer
    assert len(edges) == (1 if case == "leaks" else 3)
    assert max(edges) < quantum.BOUNDARY_TOL


@pytest.mark.parametrize("dim", [1, 2])
def test_propagation_leaves_the_callers_batch_alone(dim, harm):
    grid = Grid(dim=dim, n=512 if dim == 1 else 64, length=16.0 if dim == 1 else 8.0)
    V = harm if dim == 1 else potentials.harmonic(dim=2)
    centers = [(0.5, 0.2), (-0.3, 0.4)]
    batch = WaveBatch.of([coherent_state(grid, 0.1, [q] * dim, [p] * dim) for q, p in centers])
    before = batch.values.copy()
    seen = []
    final = quantum.propagate_series(V, batch, 0.05, 1e-2, lambda t, s: seen.append(s))
    observed_mass_series(V, batch, 0.05, *sampled(grid, [everywhere(dim)]), (1e-2, 2e-2))
    np.testing.assert_array_equal(batch.values, before)
    assert seen[0] is batch.values
    # later states live in the run's own buffers, the last one returned
    assert not any(np.shares_memory(v, batch.values) for v in seen[1:])
    assert seen[-1] is final.values


def test_batch_of_one_is_propagate(grid512, harm):
    psi = coherent_state(grid512, HBAR, 1.0, 0.0)
    seen = []
    out = quantum.propagate_series(harm, WaveBatch.of([psi]), 0.3, 1e-2,
                                   lambda t, s: seen.append((t, s.shape)))
    assert seen[0] == (0.0, (1, 512)) and len(seen) == 31
    np.testing.assert_array_equal(out.row(0).values, propagate(harm, psi, 0.3, 1e-2).values)
    reference = single_row_reference(harm, psi, 0.3, *sampled(grid512, [everywhere()]),
                                     1e-2)
    np.testing.assert_array_equal(out.row(0).values, reference[2])


# ---------------------------------------------------------------------------
# blocks against the per-step loop
# ---------------------------------------------------------------------------

def stepwise_reference(V, psi, T, dt, weights, cells, observer=lambda t: None):
    """Reference: the Strang loop and observer of a whole batch one step at a
    time, as they ran before blocks: the boundary monitor on every step, then
    observer(t), one gemv and one gather sum per row per step.  Returns
    (series, cell_mass, final values); a leak raises as that loop raised it."""
    grid, rows = psi.grid, len(psi.hbars)
    n_steps, h = quantum.split_steps(T, dt)
    vgrid = V.value_fn(grid.points()).reshape(grid.shape)
    k2 = sum(km ** 2 for km in grid.k_meshes())
    half = np.stack([np.exp(-0.5j * vgrid * h / hbar) for hbar in psi.hbars])
    full = half * half
    kinetic = np.stack([np.exp(-0.5j * hbar * k2 * h) for hbar in psi.hbars])
    edge = grid.boundary_cells
    edge_half = half.reshape(rows, -1)[:, edge]
    series = np.empty((rows, n_steps + 1, len(weights)))
    cell_mass = np.empty((rows, n_steps + 1, len(cells)))

    def observe(k, t, values):
        observer(t)
        dens = np.abs(values.reshape(rows, -1)) ** 2 * grid.cell_volume
        for r in range(rows):
            series[r, k] = weights @ dens[r]
            for j, idx in enumerate(cells):
                cell_mass[r, k, j] = dens[r][idx].sum()

    observe(0, 0.0, psi.values)
    current = psi.values * half
    for step in range(n_steps):
        current = np.stack([np.fft.ifftn(k * np.fft.fftn(row)) for k, row in zip(kinetic, current)])
        t = (step + 1) * h
        amp = np.abs(current.reshape(rows, -1)[:, edge] * edge_half).max(axis=1)
        leaking = amp > quantum.BOUNDARY_TOL
        if leaking.any():
            r = int(leaking.argmax())
            quantum._check_spectral_tail(
                quantum.WaveFunction(grid, current[r] * half[r], psi.hbars[r]), psi.labels[r])
            raise BoundaryLeakError(f"{psi.labels[r]}: boundary amplitude {amp[r]:.3e} "
                                    f"at t = {t:.4g} exceeds {quantum.BOUNDARY_TOL:.0e}; "
                                    "enlarge the box")
        synced = current * half
        observe(step + 1, t, synced)
        current = current * full
    return series, cell_mass, synced


def assert_blocks_match_steps(V, batch, T, chis, dts):
    weights, cells = sampled(batch.grid, chis)
    results = observed_mass_series(V, batch, T, weights, cells, dts)
    for (series, cell_mass), dt in zip(results, dts):
        ref_series, ref_cells, ref_final = stepwise_reference(V, batch, T, dt, weights, cells)
        np.testing.assert_array_equal(series, ref_series)
        np.testing.assert_array_equal(cell_mass, ref_cells)
        final = quantum.propagate_series(V, batch, T, dt, lambda t, s: None)
        np.testing.assert_array_equal(final.values, ref_final)


def _mixed_hbar_batch(grid512):
    return WaveBatch.of([coherent_state(grid512, 0.05, 0.8, 0.3),
                         coherent_state(grid512, 0.2, -0.5, 1.0),
                         gaussian_state(grid512, 0.1, 0.2, -0.4, 0.4)])


def _toeplitz_batch():
    grid = Grid(dim=1, n=2048, length=16.0)
    states = []
    for hbar in (0.05, 0.2):
        R = toeplitz_from_density([(q, p, 1.0) for q, p in
                                   [(-1.0, 0.5), (0.0, 1.0), (0.5, -0.5), (1.2, 0.0)]], hbar)
        states += [R.atom_state(j, grid) for j in range(len(R.symbol.weights))]
    return WaveBatch.of(states)


# states per block: one, a divisor of the 600 and 250 steps, and one that
# leaves a remainder of 5 in both; None keeps the module's budget
@pytest.mark.parametrize("states", [None, 1, 10, 7])
@pytest.mark.parametrize("case", ["mixed hbar", "toeplitz"])
def test_1d_blocks_match_the_step_loop(monkeypatch, grid512, dwell, harm, case, states):
    batch = _mixed_hbar_batch(grid512) if case == "mixed hbar" else _toeplitz_batch()
    if states is not None:
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", states * batch.values.nbytes)
    V, T = (dwell, 0.6) if case == "mixed hbar" else (harm, 0.25)
    assert_blocks_match_steps(V, batch, T, _cutoffs_1d(), (1e-3,))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_2d_blocks_match_the_step_loop_on_threads(monkeypatch, threads):
    monkeypatch.setattr(quantum, "cores", lambda: threads)
    grid = Grid(dim=2, n=64, length=8.0)
    chis = [IndicatorCutoff(Region(np.array([[[-0.5, 1.0], [-1.0, 1.0]]]))), everywhere(2)]
    batch = WaveBatch.of([coherent_state(grid, 0.2, [0.5, 0.0], [0.0, 0.5]),
                          coherent_state(grid, 0.1, [0.0, 0.2], [0.2, 0.0]),
                          coherent_state(grid, 0.15, [-0.3, 0.1], [0.4, -0.2])])
    assert_blocks_match_steps(potentials.harmonic(dim=2), batch, 0.1, chis, (1e-2, 2e-2))


def _leaking_batch(grid1024):
    # the last row swings out faster than the middle one and leaks first
    return WaveBatch.of([coherent_state(grid1024, 0.05, 0.0, 0.0),
                         coherent_state(grid1024, 0.1, 0.0, 6.5),
                         coherent_state(grid1024, 0.1, 0.0, 6.6)], ["still", "slow", "fast"])


@pytest.mark.parametrize("budget", ["module", "whole run"])
def test_leak_mid_block_raises_as_the_step_loop(monkeypatch, grid1024, harm, budget):
    batch = _leaking_batch(grid1024)
    n_steps = quantum.split_steps(np.pi, 1e-3)[0]
    if budget == "whole run":
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", n_steps * batch.values.nbytes)
    weights, cells = sampled(grid1024, [everywhere()])
    ref_times, times = [], []
    with pytest.raises(BoundaryLeakError) as ref:
        stepwise_reference(harm, batch, np.pi, 1e-3, weights, cells, ref_times.append)
    with pytest.raises(BoundaryLeakError) as got:
        quantum.propagate_series(harm, batch, np.pi, 1e-3, lambda t, s: times.append(t))
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("fast: boundary amplitude ")
    assert times == ref_times
    # the tripping step (the steps observed after t = 0 come before it) is
    # not the first of its block
    assert (len(times) - 1) % quantum._block_steps(batch.values.nbytes, n_steps) != 0


def test_observer_never_sees_the_leaking_state(monkeypatch, grid1024, harm):
    # one block for the whole run: the steps after the trip are computed, and
    # not one of them, nor the tripping step, reaches the observer
    batch = _leaking_batch(grid1024)
    monkeypatch.setattr(quantum, "_BLOCK_BYTES", 4000 * batch.values.nbytes)
    seen = []

    def observer(t, values):
        seen.append((t, float(grid1024.edge_amplitude(values).max())))

    with pytest.raises(BoundaryLeakError, match=r"at t = (1\.\d+) exceeds") as err:
        quantum.propagate_series(harm, batch, np.pi, 1e-3, observer)
    trip = float(err.value.args[0].split("at t = ")[1].split()[0])
    assert len(seen) > 1
    assert max(a for _, a in seen) <= quantum.BOUNDARY_TOL
    assert max(t for t, _ in seen) < trip


def test_cell_sums_gather_along_the_last_axis():
    # the 274 edge cells of the grid2d Omega_1: np.take(...).sum(-1) adds each
    # row's cells as a lone row's dens[idx].sum() does; the gather of a middle
    # axis, dens[:, idx].sum(axis=1), adds them in another order
    grid = Grid(dim=2, n=128, length=12.0)
    omega = Region(np.array([[[0.2, 2.0], [0.2, 2.0]]]))
    idx = certify._edge_cells((omega.distance(grid.points()) < 1.0).reshape(grid.shape))
    assert idx.size == 274
    psi = coherent_state(grid, 0.2, [0.9, 0.9], [-0.1, 0.1])
    dens = np.stack([psi.density().reshape(-1) * grid.cell_volume * (1 + 0.01 * k)
                     for k in range(6)])
    lone = np.array([row[idx].sum() for row in dens])
    np.testing.assert_array_equal(np.take(dens.reshape(3, 2, -1), idx, axis=-1).sum(axis=-1),
                                  lone.reshape(3, 2))
    assert not np.array_equal(dens[:, idx].sum(axis=1), lone)
