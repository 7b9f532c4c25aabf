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
    grads = V.grad_fn(mesh.reshape(-1, V.dim)).reshape(mesh.shape)
    pairs = [(np.diff(mesh, axis=i), np.diff(grads, axis=i)) for i in range(V.dim)]
    rng = np.random.default_rng(seed)
    pa, pb = b[:, 0] + rng.random((2, n_samples, V.dim)) * (b[:, 1] - b[:, 0])
    pairs.append((pa - pb, V.grad_fn(pa) - V.grad_fn(pb)))
    best = 0.0
    for da, dg in pairs:
        dist = np.linalg.norm(da, axis=-1)
        ok = dist > 1e-12
        if ok.any():
            best = max(best, float((np.linalg.norm(dg[ok], axis=-1) / dist[ok]).max()))
    return best


# every built-in in dimensions 1 and 2 (the 2-D boxes are the default box per
# axis), and a 2-D double well on a box where one axis's interval holds 0 and
# the other's does not: there the Hessian's norm reaches 3.96, at (0, 0.1)
BUILTINS = [potentials.free_particle(), potentials.harmonic(),
            potentials.harmonic(stiffness=-2.0), potentials.double_well(),
            potentials.free_particle(dim=2), potentials.harmonic(stiffness=2.5, dim=2),
            potentials.double_well(dim=2),
            potentials.double_well(dim=2, box=[[-0.5, 0.5], [0.1, 0.2]])]


def test_eval_examples(free, harm, dwell):
    assert free.value_fn(np.array([[0.7]]))[0] == 0.0
    assert harm.value_fn(np.array([[2.0]]))[0] == pytest.approx(2.0)
    assert dwell.value_fn(np.array([[0.0]]))[0] == pytest.approx(1.0)


def test_grad_examples(free, harm, dwell):
    assert free.grad_fn(np.array([[1.3]]))[0, 0] == 0.0
    assert harm.grad_fn(np.array([[2.0]]))[0, 0] == pytest.approx(2.0)
    assert dwell.grad_fn(np.array([[0.0]]))[0, 0] == pytest.approx(0.0)   # critical point


def test_batch_shapes(harm):
    pts = np.array([[0.5], [1.0], [-2.0]])
    assert harm.value_fn(pts).shape == (3,)
    assert harm.grad_fn(pts).shape == (3, 1)


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
    quot = np.abs(dwell.grad_fn(a[keep, None]).ravel()
                  - dwell.grad_fn(b[keep, None]).ravel()) / np.abs(a - b)[keep]
    assert quot.max() <= dwell.lip_grad + 1e-9


def test_finite_difference_consistency(free, harm, dwell, rng):
    h = 1e-4
    for V in (free, harm, dwell):
        xs = rng.uniform(V.working_box[0, 0] + h, V.working_box[0, 1] - h, size=(40, 1))
        fd = (V.value_fn(xs + h) - V.value_fn(xs - h)) / (2 * h)
        g = V.grad_fn(xs)[:, 0]
        assert np.all(np.abs(fd - g) / np.maximum(1.0, np.abs(g)) <= 1e-6)


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
    assert V.value_fn(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx([1.0, 0.0])
    assert V.grad_fn(np.array([[1.0, 1.0]]))[0] == pytest.approx([4.0, 4.0])
    # spectral norm of the Hessian at the far corner: 12 r^2 - 4 with r^2 = 8
    assert V.lip_grad == pytest.approx(12.0 * 8.0 - 4.0)


# today's closed forms, written out: (factory, value, gradient, Hessian at a point x)
CLOSED_FORMS = {
    "free": (lambda dim: potentials.free_particle(dim=dim),
             lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p),
             lambda x: np.zeros((len(x), len(x)))),
    "double_well": (lambda dim: potentials.double_well(dim=dim),
                    lambda p: (np.sum(p * p, axis=-1) - 1.0) ** 2,
                    lambda p: 4.0 * (np.sum(p * p, axis=-1, keepdims=True) - 1.0) * p,
                    lambda x: 4.0 * (x @ x - 1.0) * np.eye(len(x)) + 8.0 * np.outer(x, x)),
}
for k in (1.0, -2.0, 2.5, 1e-320):
    CLOSED_FORMS[f"harmonic{k:g}"] = (
        lambda dim, k=k: potentials.harmonic(stiffness=k, dim=dim),
        lambda p, k=k: 0.5 * k * np.sum(p * p, axis=-1), lambda p, k=k: k * p,
        lambda x, k=k: k * np.eye(len(x)))


def hessian_range(V, box):
    """The (lo, hi) eigenvalue range the built-in certifies on a box."""
    return V.lip_on_box.__self__.hessian_range(potentials._box_array(box, V.dim))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_value_and_grad_are_the_closed_forms_bit_for_bit(form, dim):
    make, value, grad, _ = CLOSED_FORMS[form]
    V = make(dim)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-9.0, 9.0, (500, dim)), rng.normal(0.0, 1e-3, (50, dim)),
                          np.zeros((1, dim)), np.ones((1, dim)), 1e50 * np.ones((1, dim))])
    np.testing.assert_array_equal(V.value_fn(pts), value(pts))
    np.testing.assert_array_equal(V.grad_fn(pts), grad(pts))


def oracle_boxes(dim, rng):
    """Random boxes, boxes that hold 0 on one axis only, and boxes with
    infinite bounds, as (dim, 2) arrays."""
    boxes = [np.sort(rng.uniform(-3.0, 3.0, (dim, 2)), axis=1) for _ in range(40)]
    boxes += [np.sort(rng.uniform(0.05, 2.0, (dim, 2)), axis=1) * rng.choice([-1, 1], (dim, 1))
              for _ in range(20)]                        # off the origin on every axis
    boxes = [np.sort(b, axis=1) for b in boxes]
    if dim == 2:
        boxes += [np.array([[-0.5, 0.5], [0.1, 0.2]]), np.array([[0.3, 1.2], [-2.0, 0.0]])]
    for bound in ([-np.inf, np.inf], [-np.inf, -0.5], [0.2, np.inf]):
        box = np.tile([-1.0, 1.5], (dim, 1))
        box[-1] = bound
        boxes.append(box)
    return boxes


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("form", CLOSED_FORMS)
def test_hessian_range_oracle(form, dim):
    # every eigenvalue of the analytic Hessian at points of the box lies in
    # [lo, hi]; the points include the box's corners and its point nearest
    # the origin, where |x|^2 takes its extremes, so on a finite box the
    # sampled eigenvalues reach lo and hi
    make, _, grad, hessian = CLOSED_FORMS[form]
    V = make(dim)
    rng = np.random.default_rng(11)
    for box in oracle_boxes(dim, rng):
        lo, hi = hessian_range(V, box)
        lip = V.lip_on_box(box)
        assert lo <= hi and lip == max(abs(lo), abs(hi)), box
        finite = np.clip(box, -10.0, 10.0)
        corners = np.stack(np.meshgrid(*finite, indexing="ij"), axis=-1).reshape(-1, dim)
        pts = np.concatenate([corners, np.clip(0.0, finite[:, 0], finite[:, 1])[None],
                              finite[:, 0] + rng.random((64, dim)) * np.diff(finite).T])
        eig = np.array([np.linalg.eigvalsh(hessian(x)) for x in pts])
        tol = 1e-12 * max(1.0, abs(lo), abs(hi)) if np.isfinite(hi) else 0.0
        assert lo - tol <= eig.min() and eig.max() <= hi + tol, box
        if np.all(np.isfinite(box)):
            assert eig.min() == pytest.approx(lo, rel=1e-12, abs=1e-12), box
            assert eig.max() == pytest.approx(hi, rel=1e-12, abs=1e-12), box
            assert sampled_lip(V, box=box, n_samples=64) <= lip * (1.0 + 1e-12), box
    # the analytic Hessian is the Jacobian of grad_fn, by central differences
    x, h = rng.uniform(-1.5, 1.5, dim), 1e-5
    fd = np.stack([(grad((x + h * e)[None]) - grad((x - h * e)[None]))[0] / (2 * h)
                   for e in np.eye(dim)], axis=-1)
    np.testing.assert_allclose(fd, hessian(x), rtol=1e-8, atol=1e-8)


def test_unbounded_boxes_give_no_nan():
    # +-inf bounds, and finite ones whose |x|^2 overflows (it warned, an error
    # under the tests' warning filter): the constant bounds stay |k| and 0,
    # the double well's is inf
    for bound in ([-np.inf, np.inf], [-np.inf, -1.0], [1.0, np.inf], [np.inf, np.inf],
                  [-1e308, 1e308], [1e200, 1e300]):
        for dim in (1, 2):
            box = np.tile(bound, (dim, 1))
            assert potentials.free_particle(dim=dim).lip_on_box(box) == 0.0
            assert potentials.harmonic(stiffness=-2.0, dim=dim).lip_on_box(box) == 2.0
            assert potentials.double_well(dim=dim).lip_on_box(box) == np.inf


def test_double_well_hessian_range_pins():
    assert hessian_range(double_well(), (-2.0, 2.0)) == (-4.0, 44.0)
    assert hessian_range(double_well(), (-8.0, 8.0)) == (-4.0, 764.0)
    assert hessian_range(double_well(dim=2), (-2.0, 2.0)) == (-4.0, 92.0)
    # in 1-D off the origin the bound is max |V''| = |12 x^2 - 4|: 4 (|x|^2 - 1)
    # is an eigenvalue only in 2-D and up
    assert double_well().lip_on_box(np.array([[0.1, 0.4]])) == pytest.approx(3.88, rel=1e-15)
    assert double_well(dim=2).lip_on_box(np.array([[0.1, 0.4], [0.0, 0.0]])) == pytest.approx(
        3.96, rel=1e-15)


@pytest.mark.parametrize("V", [
    potentials.free_particle(), potentials.harmonic(stiffness=2.5), potentials.double_well(),
    potentials.harmonic(dim=2, box=[[-6.0, 6.0], [-6.0, 6.0]]), potentials.double_well(dim=2),
], ids=lambda V: f"{V.name}{V.dim}d")
def test_builtins_pickle(V):
    # --jobs workers receive the potential by pickle
    back = pickle.loads(pickle.dumps(V))
    pts = np.linspace(-1.9, 1.9, 6 * V.dim).reshape(-1, V.dim)
    np.testing.assert_array_equal(back.value_fn(pts), V.value_fn(pts))
    np.testing.assert_array_equal(back.grad_fn(pts), V.grad_fn(pts))
    box = np.tile([-3.0, 2.5], (V.dim, 1))
    assert back.lip_on_box(box) == V.lip_on_box(box)
    assert back.lip_grad == V.lip_grad
