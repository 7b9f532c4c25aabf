import pickle

import numpy as np
import pytest

from obscert import potentials
from obscert.potentials import double_well


def sampled_lip(V, box=None, n_samples=4096, seed=0):
    """Sampling oracle for Lip(grad V) on a box (the working box by default):
    the largest |grad V(a) - grad V(b)| / |a - b| over neighbouring nodes
    along each axis of a lattice of about n_samples nodes and over n_samples
    random pairs.  Every quotient is a lower estimate of the true constant,
    so a valid bound is never below it."""
    b = (V if box is None else V.with_box(box)).working_box
    per_axis = max(2, round(n_samples ** (1.0 / V.dim)))
    mesh = np.stack(np.meshgrid(*[np.linspace(lo, hi, per_axis) for lo, hi in b],
                                indexing="ij"), axis=-1)
    grads = V.gradient(mesh.reshape(-1, V.dim)).reshape(mesh.shape)
    pairs = [(np.diff(mesh, axis=i), np.diff(grads, axis=i)) for i in range(V.dim)]
    rng = np.random.default_rng(seed)
    pa, pb = b[:, 0] + rng.random((2, n_samples, V.dim)) * (b[:, 1] - b[:, 0])
    pairs.append((pa - pb, V.gradient(pa) - V.gradient(pb)))
    best = 0.0
    for da, dg in pairs:
        dist = np.linalg.norm(da, axis=-1)
        ok = dist > 1e-12
        if ok.any():
            best = max(best, float((np.linalg.norm(dg[ok], axis=-1) / dist[ok]).max()))
    return best


# every built-in in dimensions 1 and 2 (the 2-D boxes are the default box per axis)
BUILTINS = [potentials.free_particle(), potentials.harmonic(),
            potentials.harmonic(stiffness=-2.0), potentials.double_well(),
            potentials.free_particle(dim=2), potentials.harmonic(stiffness=2.5, dim=2),
            potentials.double_well(dim=2)]


def test_eval_examples(free, harm, dwell):
    assert free.value(0.7) == 0.0
    assert harm.value(2.0) == pytest.approx(2.0)
    assert dwell.value(0.0) == pytest.approx(1.0)


def test_grad_examples(free, harm, dwell):
    assert free.gradient(1.3) == 0.0
    assert harm.gradient(2.0) == pytest.approx(2.0)
    assert dwell.gradient(0.0) == pytest.approx(0.0)   # critical point


def test_batch_shapes(harm):
    pts = np.array([[0.5], [1.0], [-2.0]])
    assert harm.value(pts).shape == (3,)
    assert harm.gradient(pts).shape == (3, 1)


def test_lip_examples(free, harm, dwell):
    assert (free.lip_grad, harm.lip_grad, dwell.lip_grad) == (0.0, 1.0, 44.0)
    # the analytic bound is never below the sampled quotients (up to their
    # round-off), and in 1-D it is sharp: the lattice pairs next to the box
    # edge read 43.62 against 44; 2-D lattice pairs read 61.6 against 92
    for V in BUILTINS:
        sampled = sampled_lip(V, n_samples=256)
        assert sampled <= V.lip_grad * (1.0 + 1e-12), (V.name, V.dim)
        if V.dim == 1:
            assert sampled >= 0.97 * V.lip_grad, V.name


def test_negative_stiffness_lip_is_its_absolute_value():
    # the force k x of an inverted oscillator has Lipschitz constant |k|
    V = potentials.harmonic(stiffness=-2.0)
    assert V.lip_grad == 2.0
    assert V.with_box((-50.0, 50.0)).lip_grad == 2.0
    assert sampled_lip(V, n_samples=64) == pytest.approx(2.0, rel=1e-12)


def test_double_well_lip_sampling_oracle(dwell):
    # dense 1-d sampling of |V''| = |12 x^2 - 4| over the working box
    xs = np.linspace(-2.0, 2.0, 200001)
    oracle = np.abs(12.0 * xs ** 2 - 4.0).max()
    assert dwell.lip_grad == pytest.approx(oracle, rel=1e-12)
    # sampled pair quotients never exceed the certified bound
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, size=2000)
    b = rng.uniform(-2, 2, size=2000)
    keep = np.abs(a - b) > 1e-9
    quot = np.abs(dwell.gradient(a[keep, None]).ravel()
                  - dwell.gradient(b[keep, None]).ravel()) / np.abs(a - b)[keep]
    assert quot.max() <= dwell.lip_grad + 1e-9


def test_finite_difference_consistency(free, harm, dwell, rng):
    h = 1e-4
    for V in (free, harm, dwell):
        xs = rng.uniform(V.working_box[0, 0] + h, V.working_box[0, 1] - h, size=40)
        for x in xs:
            fd = (V.value(x + h) - V.value(x - h)) / (2 * h)
            g = V.gradient(float(x))
            assert abs(fd - g) / max(1.0, abs(g)) <= 1e-6


def test_lip_monotone_in_box(dwell):
    boxes = [(-0.5, 0.5), (-1.0, 1.0), (-1.5, 1.5), (-2.0, 2.0), (-3.0, 3.0)]
    vals = [dwell.with_box(b).lip_grad for b in boxes]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # sampled quotients read 7.81 against the bound 8 on (-1, 1)
    for b, lip in zip(boxes, vals):
        sampled = sampled_lip(dwell, box=b, n_samples=128)
        assert 0.97 * lip <= sampled <= lip * (1.0 + 1e-12), b


def test_with_box_recertifies(dwell):
    wide = dwell.with_box((-3.0, 3.0))
    assert wide.lip_grad == pytest.approx(12.0 * 9.0 - 4.0)


def test_two_dimensional_double_well():
    V = double_well(dim=2, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]))
    assert V.value([0.0, 0.0]) == pytest.approx(1.0)
    assert V.value([1.0, 0.0]) == pytest.approx(0.0)
    g = V.gradient([1.0, 1.0])
    assert g == pytest.approx([4.0, 4.0])
    # spectral norm of the Hessian at the far corner: 12 r^2 - 4 with r^2 = 8
    assert V.lip_grad == pytest.approx(12.0 * 8.0 - 4.0)


def test_from_config():
    V = potentials.from_config({"kind": "harmonic", "stiffness": 2.5})
    assert V.lip_grad == pytest.approx(2.5)
    with pytest.raises(ValueError, match="unknown"):
        potentials.from_config({"kind": "morse"})
    with pytest.raises(ValueError, match="dim"):
        potentials.from_config({"kind": "free", "dim": 3})


def test_nonfinite_rejected():
    V = potentials.Potential(
        name="bad", dim=1,
        value_fn=lambda p: 1.0 / np.sum(p, axis=-1),
        grad_fn=lambda p: p,
        working_box=np.array([[-1.0, 1.0]]), lip_on_box=lambda box: 1.0)
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            V.value(0.0)


@pytest.mark.parametrize("V", [
    potentials.free_particle(), potentials.harmonic(stiffness=2.5), potentials.double_well(),
    potentials.harmonic(dim=2, box=[[-6.0, 6.0], [-6.0, 6.0]]), potentials.double_well(dim=2),
], ids=lambda V: f"{V.name}{V.dim}d")
def test_builtins_pickle(V):
    # --jobs workers receive the potential by pickle
    back = pickle.loads(pickle.dumps(V))
    pts = np.linspace(-1.9, 1.9, 6 * V.dim).reshape(-1, V.dim)
    np.testing.assert_array_equal(back.value(pts), V.value(pts))
    np.testing.assert_array_equal(back.gradient(pts), V.gradient(pts))
    box = np.tile([-3.0, 2.5], (V.dim, 1))
    assert back.lip_on_box(box) == V.lip_on_box(box)
    assert back.lip_grad == V.lip_grad
