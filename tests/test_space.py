"""Distances, compositions, and their gradients.

Core claims:
    - the three distances match their definitions on hand-checked values
    - identity, symmetry, l1 triangle inequality, exact l1 translation
      invariance (on dyadic inputs where float addition is exact)
    - cosine with a zero operand raises instead of returning NaN
    - ``distance`` is the one-row case of the batched ``distances``, and
      ``compose`` the one-row case of the batched ``composes``
    - analytic gradients of every distance and composition match central
      finite differences (the oracle lives in this file, not the library);
      they come from the solver's kernels: the batched distance gradient and
      the backward pass over the one-node derivation "(a b)"
    - every numeric setting, of shapes and configs alike, is checked by
      ``_integer`` or ``_real``: a bool, a non-number or a value out of range
      raises a ValueError naming the setting, and a numpy scalar is stored
      as a Python int or float
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

import treerec.solver as solver
from treerec import (
    AdditiveComposition,
    CodeShape,
    CompositionLookupError,
    Dataset,
    DistanceSpec,
    FitConfig,
    GenSpec,
    LinearComposition,
    ShapeMismatchError,
    TableComposition,
    VectorShape,
    ZeroNormError,
    compose,
    distance,
    is_hard_code,
    parse_derivation,
)
from treerec.space import _loss_and_dpred, composes, distances

COSINE = DistanceSpec("cosine")
L1 = DistanceSpec("l1")
SQL2 = DistanceSpec("squared_l2")


def distance_subgradient(spec, r, s):
    """Gradient of ``distance(spec, r, s)`` w.r.t. ``r`` from the batched
    kernel, on a batch of one row."""
    return _loss_and_dpred(spec.kind, r[None], s[None])[1][0]


def composition_gradients(spec, r, s, upstream):
    """Adjoints of ``compose(spec, r, s)`` from the solver's gradient: the
    derivation "(a b)" with a = r and b = s, and ``upstream`` at its root.
    Returns (grad_r, grad_s), plus the two weight gradients for linear."""
    shape = VectorShape(r.size) if r.ndim == 1 else CodeShape(*r.shape)
    data = Dataset.build([("x", np.zeros_like(r), parse_derivation("(a b)"))], shape)
    # Linear without matrices, so that the weight gradients come back too.
    problem = solver._build_problem(
        data, "l1", spec if isinstance(spec, AdditiveComposition) else LinearComposition())
    if isinstance(spec, AdditiveComposition):
        # The additive backward pass of ``_loss_and_grads``: the transpose of
        # the rows, which under l1 are the records, so ``upstream`` is the
        # one record's.
        return tuple(np.tensordot(problem.rows.keys.T, upstream[None], axes=1))
    values = solver._forward(problem.dag, np.stack([r, s]), spec) if isinstance(
        spec, LinearComposition) else None
    grads, *weights = solver._backward(problem, values, spec,
                                       solver._flat_index(problem.dag.roots, r.size),
                                       upstream[None])
    return (grads[0], grads[1], *weights)


def central_difference(f, x, h=1e-5):
    """Independent numeric gradient of scalar f at array x."""
    x = x.astype(np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        hi = f(x)
        flat[k] = orig - h
        lo = f(x)
        flat[k] = orig
        gflat[k] = (hi - lo) / (2 * h)
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return np.abs(a - b).max() / denom


finite_vecs = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3
).map(lambda v: np.array(v))


class TestDistanceValues:
    def test_cosine_same_direction(self):
        assert distance(COSINE, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_cosine_orthogonal(self):
        assert distance(COSINE, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == approx(1.0)

    def test_cosine_opposite_is_two(self):
        assert distance(COSINE, np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == approx(2.0)

    def test_l1(self):
        assert distance(L1, np.array([1.0, 0.0, 2.0]), np.zeros(3)) == approx(3.0)

    def test_squared_l2(self):
        assert distance(SQL2, np.array([1.0, 1.0]), np.zeros(2)) == approx(2.0)

    def test_code_matrices_flatten_row_major(self):
        r = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = np.zeros((2, 2))
        assert distance(L1, r, s) == approx(2.0)
        assert distance(COSINE, r, np.array([[1.0, 0.0], [0.0, 0.0]])) == approx(
            1.0 - 1.0 / np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            distance(L1, np.zeros(3), np.zeros(4))

    def test_cosine_zero_operand_is_an_error(self):
        with pytest.raises(ZeroNormError):
            distance(COSINE, np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ZeroNormError):
            distance_subgradient(COSINE, np.array([1.0, 0.0]), np.zeros(2))


@pytest.mark.parametrize("kind", ["cosine", "l1", "squared_l2"])
@pytest.mark.parametrize("shape", [VectorShape(3), CodeShape(2, 3)], ids=repr)
def test_distance_is_one_row_of_distances(kind, shape):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4,) + shape.array_shape())
    b = rng.normal(size=a.shape)
    b[1] = a[1]  # an exactly equal row
    rows = distances(kind, a, b)
    for k in range(len(a)):
        assert distance(DistanceSpec(kind), a[k], b[k]) == rows[k]
    assert rows[1] == 0.0
    if kind == "cosine":
        b[2] = 0.0
        with pytest.raises(ZeroNormError) as err:
            distances(kind, a, b)
        assert err.value.rows == (2,)


@pytest.mark.parametrize("shape", [VectorShape(3), CodeShape(3, 2)], ids=repr)
def test_compose_is_one_row_of_composes(shape):
    rng = np.random.default_rng(6)
    r = rng.normal(size=(4,) + shape.array_shape())
    s = rng.normal(size=r.shape)
    lw, rw = rng.normal(size=(2, 3, 3))
    table = TableComposition()
    for a, b in zip(r, s):
        table.register(a, b, a * b)
    for spec, formula in [(AdditiveComposition(), lambda a, b: a + b),
                          (LinearComposition(lw, rw), lambda a, b: lw @ a + rw @ b),
                          (table, lambda a, b: a * b)]:
        rows = composes(spec, r, s)
        assert rows.shape == r.shape
        for k in range(len(r)):
            assert np.array_equal(compose(spec, r[k], s[k]), rows[k])
            assert rows[k] == approx(formula(r[k], s[k]))
        assert composes(spec, r[:0], s[:0]).shape == (0,) + shape.array_shape()
    # The same errors, in the same order, for one row and for a batch: no
    # weights is reported before an operand mismatch.
    for spec, a, b, error, match in [
            (LinearComposition(), r, s[:, :2], ValueError, "no weights"),
            (LinearComposition(np.eye(4), np.eye(4)), r, s, ShapeMismatchError,
             "operands have leading axis 3"),
            (AdditiveComposition(), r, s[:, :2], ShapeMismatchError, "differ"),
            (object(), r, s, TypeError, "unknown composition spec")]:
        with pytest.raises(error, match=match):
            compose(spec, a[0], b[0])
        with pytest.raises(error, match=match):
            composes(spec, a, b)
    with pytest.raises(CompositionLookupError):
        compose(table, s[0], r[0])


class TestDistanceProperties:
    @given(finite_vecs)
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero(self, v):
        assert distance(L1, v, v) == 0.0
        assert distance(SQL2, v, v) == 0.0
        if np.linalg.norm(v) > 0:
            assert distance(COSINE, v, v) == 0.0

    @given(finite_vecs, finite_vecs)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, r, s):
        assert distance(L1, r, s) == approx(distance(L1, s, r))
        assert distance(SQL2, r, s) == approx(distance(SQL2, s, r))
        if np.linalg.norm(r) > 0 and np.linalg.norm(s) > 0:
            assert distance(COSINE, r, s) == approx(distance(COSINE, s, r))

    @given(finite_vecs, finite_vecs, finite_vecs)
    @settings(max_examples=100, deadline=None)
    def test_l1_triangle(self, x, y, z):
        assert distance(L1, x, z) <= distance(L1, x, y) + distance(L1, y, z) + 1e-9

    def test_l1_translation_invariance_exact(self):
        # dyadic values: additions below are exact in binary floating point
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.integers(-1024, 1024, 6) / 1024.0
            s = rng.integers(-1024, 1024, 6) / 1024.0
            t = rng.integers(-1024, 1024, 6) / 1024.0
            assert distance(L1, r + t, s + t) == distance(L1, r, s)


class TestCompose:
    def test_additive(self):
        got = compose(AdditiveComposition(), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == approx(np.array([1.0, 1.0]))

    def test_linear_identity_weights_reduce_to_addition(self):
        eye = np.eye(3)
        comp = LinearComposition(eye, eye)
        r, s = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        assert compose(comp, r, s) == approx(r + s)

    def test_linear_permutes_code_positions(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        comp = LinearComposition(swap, np.zeros((2, 2)))
        theta = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = compose(comp, theta, theta)
        assert got == approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_linear_without_weights_raises(self):
        with pytest.raises(ValueError, match="weights"):
            compose(LinearComposition(), np.zeros(2), np.zeros(2))

    def test_table_round_trip_and_miss(self):
        table = TableComposition()
        r, s, out = np.array([1.0]), np.array([2.0]), np.array([7.0])
        table.register(r, s, out)
        assert compose(table, r, s) == approx(out)
        with pytest.raises(CompositionLookupError):
            compose(table, s, r)

    def test_table_has_no_gradient(self):
        with pytest.raises(TypeError):
            composition_gradients(TableComposition(), np.zeros(1), np.zeros(1),
                                  np.zeros(1))

    def test_is_hard_code(self):
        assert is_hard_code(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_hard_code(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert not is_hard_code(np.ones(3))


class TestSubgradientValues:
    def test_squared_l2(self):
        got = distance_subgradient(SQL2, np.array([1.0, 1.0]), np.zeros(2))
        assert got == approx(np.array([2.0, 2.0]))

    def test_l1_signs_with_tie_zero(self):
        got = distance_subgradient(L1, np.array([2.0, -1.0, 0.5]),
                                   np.array([0.0, 0.0, 0.5]))
        assert got == approx(np.array([1.0, -1.0, 0.0]))


class TestGradientsAgainstFiniteDifferences:
    def test_distance_subgradients(self):
        rng = np.random.default_rng(7)
        for kind, tol in (("squared_l2", 1e-7), ("cosine", 1e-5), ("l1", 1e-4)):
            spec = DistanceSpec(kind)
            checked = 0
            while checked < 100:
                r = rng.normal(0, 1, 5)
                s = rng.normal(0, 1, 5)
                if kind == "l1" and np.abs(r - s).min() < 1e-3:
                    continue  # keep clear of subgradient kinks
                analytic = distance_subgradient(spec, r, s)
                numeric = central_difference(lambda x: distance(spec, x, s), r)
                assert rel_err(analytic, numeric) < tol, kind
                checked += 1

    def test_additive_composition_gradients(self):
        g = np.array([1.0, -2.0, 3.0])
        gr, gs = composition_gradients(AdditiveComposition(), np.zeros(3),
                                       np.zeros(3), g)
        assert gr == approx(g) and gs == approx(g)

    def test_linear_identity_gradients(self):
        eye = np.eye(2)
        r, s = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        g = np.array([0.5, -0.5])
        gr, gs, gl, grt = composition_gradients(LinearComposition(eye, eye), r, s, g)
        assert gr == approx(g) and gs == approx(g)
        assert gl == approx(np.outer(g, r))
        assert grt == approx(np.outer(g, s))

    @pytest.mark.parametrize("shape", [(4,), (3, 5)])
    def test_linear_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(21)
        side = shape[0]
        for _ in range(20):
            lw = rng.normal(0, 1, (side, side))
            rw = rng.normal(0, 1, (side, side))
            r = rng.normal(0, 1, shape)
            s = rng.normal(0, 1, shape)
            g = rng.normal(0, 1, shape)
            comp = LinearComposition(lw, rw)
            gr, gs, glw, grw = composition_gradients(comp, r, s, g)

            def scalar(out):
                return float((out * g).sum())

            num_r = central_difference(lambda x: scalar(compose(comp, x, s)), r)
            num_s = central_difference(lambda x: scalar(compose(comp, r, x)), s)
            num_lw = central_difference(
                lambda w: scalar(compose(LinearComposition(w, rw), r, s)), lw)
            num_rw = central_difference(
                lambda w: scalar(compose(LinearComposition(lw, w), r, s)), rw)
            for analytic, numeric in ((gr, num_r), (gs, num_s),
                                      (glw, num_lw), (grw, num_rw)):
                assert rel_err(analytic, numeric) < 1e-6

    def test_cosine_code_matrix_gradient(self):
        rng = np.random.default_rng(3)
        r = rng.normal(0, 1, (3, 4))
        s = rng.normal(0, 1, (3, 4))
        analytic = distance_subgradient(COSINE, r, s)
        numeric = central_difference(lambda x: distance(COSINE, x, s), r)
        assert rel_err(analytic, numeric) < 1e-5


class TestShapes:
    def test_vector_shape(self):
        assert VectorShape(4).array_shape() == (4,)
        with pytest.raises(ValueError):
            VectorShape(0)

    def test_code_shape(self):
        assert CodeShape(4, 16).array_shape() == (4, 16)
        with pytest.raises(ValueError):
            CodeShape(4, 0)


# Settings that were once misread: accepted, or left to fail later with a
# bare TypeError, as each of them names.
SQL2 = DistanceSpec("squared_l2")
MISREAD_SETTINGS = {
    "learning_rate=True": (lambda: FitConfig(distance=SQL2, learning_rate=True),
                           "learning_rate"),
    "convergence_tol=False": (lambda: FitConfig(distance=SQL2, convergence_tol=False),
                              "convergence_tol"),
    "learning_rate='0.1'": (lambda: FitConfig(distance=SQL2, learning_rate="0.1"),
                            "learning_rate"),
    "learning_rate=Decimal": (lambda: FitConfig(distance=SQL2, learning_rate=Decimal("0.1")),
                              "learning_rate"),
    "learning_rate=10**400": (lambda: FitConfig(distance=SQL2, learning_rate=10**400),
                              "learning_rate"),
    "noise_sigma=True": (lambda: GenSpec(num_primitives=2, shape=VectorShape(2),
                                         noise_sigma=True), "noise_sigma"),
    "VectorShape(2.5)": (lambda: VectorShape(2.5), "dim"),
    "VectorShape(True)": (lambda: VectorShape(True), "dim"),
    "VectorShape(nan)": (lambda: VectorShape(float("nan")), "dim"),
    "CodeShape(1, 2.0)": (lambda: CodeShape(1, 2.0), "vocab"),
}


class TestNumericSettings:
    @pytest.mark.parametrize("case", MISREAD_SETTINGS)
    def test_misread_setting_raises_naming_it(self, case):
        build, name = MISREAD_SETTINGS[case]
        with pytest.raises(ValueError, match=f"^{name} must be "):
            build()

    def test_shapes_store_numpy_integers_as_int(self):
        shapes = [VectorShape(np.int64(3)), CodeShape(np.int64(2), np.int32(4))]
        assert [type(v) for v in (shapes[0].dim, shapes[1].length, shapes[1].vocab)] == [int] * 3
        assert shapes[0].array_shape() == (3,) and shapes[1].array_shape() == (2, 4)

    def test_float_settings_are_stored_as_python_floats(self):
        config = FitConfig(distance=SQL2, learning_rate=np.float32(0.5), convergence_tol=0)
        spec = GenSpec(num_primitives=2, shape=VectorShape(2), noise_sigma=np.float64(0.25))
        assert (config.learning_rate, config.convergence_tol, spec.noise_sigma) == (0.5, 0.0, 0.25)
        assert {type(config.learning_rate), type(config.convergence_tol),
                type(spec.noise_sigma)} == {float}
