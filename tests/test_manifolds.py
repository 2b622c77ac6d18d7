"""Geometry tests: factory dimensions, worked examples, and the invariant
suite (tangency, projection orthogonality, retraction axioms, constraint
preservation, Hessian conversion consistency, determinism)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemopt import (
    ProblemDef,
    elliptope_factory,
    euclidean_factory,
    fixed_rank_factory,
    get_gradient,
    get_hessian,
    grassmann_factory,
    oblique_factory,
    product_factory,
    rotations_factory,
    spectrahedron_factory,
    sphere_factory,
    stiefel_factory,
)
from riemopt.exceptions import (
    DegenerateStepError,
    DimensionMismatchError,
    RankCollapseError,
)

from _helpers import (
    dense_point,
    dense_tangent,
    make_quadratic_problem,
    manifold_matrix,
    tree_inner,
    tree_scale,
    tree_sub,
)

MATRIX = manifold_matrix()
IDS = [M.name for M in MATRIX]


# --- factory dimensions and parameter validation ---------------------------


def test_factory_dimensions():
    assert sphere_factory(3).dim == 2
    assert sphere_factory(1).dim == 0
    assert oblique_factory(3, 4).dim == 8
    assert stiefel_factory(5, 2).dim == 7
    assert grassmann_factory(4, 2).dim == 4
    assert grassmann_factory(3, 3).dim == 0
    assert rotations_factory(3).dim == 3
    assert fixed_rank_factory(5, 4, 2).dim == 14
    assert elliptope_factory(4, 2).dim == 4
    assert spectrahedron_factory(3, 2).dim == 5
    assert euclidean_factory(3, 2).dim == 6
    assert product_factory([sphere_factory(3), euclidean_factory(2)]).dim == 4


def test_factory_argument_errors():
    with pytest.raises(ValueError):
        sphere_factory(0)
    with pytest.raises(ValueError):
        stiefel_factory(3, 4)
    with pytest.raises(ValueError):
        fixed_rank_factory(4, 3, 5)
    with pytest.raises(ValueError):
        elliptope_factory(3, 4)
    with pytest.raises(ValueError):
        product_factory([])


def test_typical_dist_values():
    assert sphere_factory(7).typical_dist == pytest.approx(math.pi)
    assert oblique_factory(3, 4).typical_dist == pytest.approx(math.pi * 2)
    assert stiefel_factory(5, 4).typical_dist == pytest.approx(math.pi * 2)
    assert rotations_factory(3).typical_dist == pytest.approx(
        math.pi * math.sqrt(3) / 2
    )
    assert euclidean_factory(4).typical_dist == pytest.approx(2.0)
    prod = product_factory([sphere_factory(3), sphere_factory(4)])
    assert prod.typical_dist == pytest.approx(math.pi * math.sqrt(2))


# --- worked examples -------------------------------------------------------


def test_inner_and_norm_examples():
    E = euclidean_factory(2)
    x = np.zeros(2)
    assert E.inner(x, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11)
    assert E.norm(x, np.array([3.0, 4.0])) == pytest.approx(5.0)
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    assert S.inner(e1, np.array([0.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0])) == 2
    assert S.norm(e1, np.array([0.0, 1.0, 1.0])) == pytest.approx(math.sqrt(2))


def test_inner_shape_mismatch():
    S = sphere_factory(3)
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        S.inner(x, np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        S.proj(x, np.zeros(2))
    # The Hessian conversions check the egrad and each ehess output before
    # any arithmetic, where a (1, p) or (n, 1) array would broadcast.
    for M in (stiefel_factory(4, 2), rotations_factory(3), euclidean_factory(4, 2)):
        y = M.rand_point(np.random.default_rng(0))
        n, k = y.shape
        for wrong in (np.zeros((1, k)), np.zeros((n, 1)), np.zeros((n + 1, k))):
            with pytest.raises(DimensionMismatchError, match="ehess2rhess: egrad"):
                M.ehess2rhess(y, wrong)
            with pytest.raises(DimensionMismatchError, match="ehess2rhess: ehess"):
                M.ehess2rhess(y, np.zeros_like(y))(wrong, np.zeros_like(y))


@pytest.mark.parametrize(
    "M, wrong",
    [
        (oblique_factory(4, 3), (1, 3)),
        (elliptope_factory(5, 2), (5, 1)),
        (grassmann_factory(5, 2), (5, 1)),
        (grassmann_factory(5, 2), (1, 2)),
        (spectrahedron_factory(4, 2), (4, 1)),
        (sphere_factory(4), (1,)),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_hessian_conversion_checks_the_egrad_shape(M, wrong):
    # A (1, m) or (n, 1) egrad would broadcast through <x, egrad> per slice
    # (or raise numpy's ValueError in x' egrad) instead of failing here.
    p = ProblemDef(
        manifold=M,
        cost=lambda x: 0.0,
        egrad=lambda x: np.ones(wrong),
        ehess=lambda x, u: np.zeros_like(u),
    )
    x = M.rand_point(np.random.default_rng(0))
    u = M.rand_tangent(x, np.random.default_rng(1))
    with pytest.raises(DimensionMismatchError, match="ehess2rhess: egrad"):
        get_hessian(p, x, u)
    with pytest.raises(DimensionMismatchError, match="ehess2rhess: egrad"):
        M.ehess2rhess(x, np.ones(wrong))
    # A wrong-shaped ehess output fails in the conversion's projection.
    with pytest.raises(DimensionMismatchError):
        M.ehess2rhess(x, np.zeros_like(x))(np.ones(wrong), u)


def test_proj_examples():
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(S.proj(e1, np.array([1.0, 1.0, 0.0])), [0, 1, 0])

    # Hand-applied z - X sym(X'z) for X = [e1 e2], z all ones.
    St = stiefel_factory(3, 2)
    X = np.eye(3)[:, :2]
    z = np.ones((3, 2))
    expected = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(St.proj(X, z), expected, atol=1e-15)


def test_retract_examples():
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(
        S.retract(e1, u, 1.0), np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    )
    with pytest.raises(DegenerateStepError):
        S.retract(e1, -e1, 1.0)


def test_egrad2rgrad_examples():
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(S.egrad2rgrad(e1, np.array([3.0, 4.0, 0.0])), [0, 4, 0])

    # Circle, f(x) = -x'Ax with A = diag(2, 1): e2 is a critical point.
    C = sphere_factory(2)
    e2 = np.array([0.0, 1.0])
    np.testing.assert_allclose(C.egrad2rgrad(e2, np.array([0.0, -2.0])), [0, 0])


def test_ehess2rhess_examples():
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    egrad = np.array([3.0, 4.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(
        S.ehess2rhess(e1, egrad)(np.zeros(3), u), [0.0, -3.0, 0.0]
    )
    E = euclidean_factory(3)
    h = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(E.ehess2rhess(np.zeros(3), h)(h, h), h)


def test_fixed_rank_ehess_unsupported():
    FR = fixed_rank_factory(5, 4, 2)
    assert FR.ehess2rhess is None
    zero = np.zeros((5, 4))
    p = ProblemDef(manifold=FR, cost=lambda x: 0.0, egrad=lambda x: zero,
                   ehess=lambda x, u: zero)
    assert p.hessian_source == "fd-fallback"


def test_transport_examples():
    S = sphere_factory(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(S.transport(e1, e2, u), np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(S.transport(e1, e1, u), u)


def test_fixed_rank_factored_ambient():
    FR = fixed_rank_factory(6, 5, 2)
    rng = np.random.default_rng(3)
    x = FR.rand_point(rng)
    a = rng.standard_normal((6, 2))
    b = rng.standard_normal((5, 2))
    c = rng.standard_normal((6, 1))
    d = rng.standard_normal((5, 1))
    dense = a @ b.T + c @ d.T
    p_dense = FR.proj(x, dense)
    p_fact = FR.proj(x, [(a, b), (c, d)])
    np.testing.assert_allclose(p_fact.m, p_dense.m, atol=1e-12)
    np.testing.assert_allclose(p_fact.up, p_dense.up, atol=1e-12)
    np.testing.assert_allclose(p_fact.vp, p_dense.vp, atol=1e-12)


def test_fixed_rank_rank_collapse():
    FR = fixed_rank_factory(4, 4, 2)
    x = FR.rand_point(np.random.default_rng(0))
    # Stepping along -S in the core drives the singular values to zero.
    u = type(FR.rand_tangent(x, np.random.default_rng(0)))(
        m=-x.s, up=np.zeros((4, 2)), vp=np.zeros((4, 2))
    )
    with pytest.raises(RankCollapseError):
        FR.retract(x, u, 1.0)


def test_stiefel_p1_matches_sphere():
    St = stiefel_factory(5, 1)
    S = sphere_factory(5)
    rng = np.random.default_rng(4)
    x = S.rand_point(rng)
    z = rng.standard_normal(5)
    np.testing.assert_allclose(
        St.proj(x[:, None], z[:, None])[:, 0], S.proj(x, z), atol=1e-14
    )
    u = S.proj(x, z)
    np.testing.assert_allclose(
        St.retract(x[:, None], u[:, None], 0.3)[:, 0],
        S.retract(x, u, 0.3),
        atol=1e-14,
    )


def test_rotations_rand_point_is_rotation():
    R = rotations_factory(4)
    x = R.rand_point(np.random.default_rng(5))
    assert np.max(np.abs(x.T @ x - np.eye(4))) < 1e-12
    assert abs(np.linalg.det(x) - 1.0) < 1e-12
    # Tangent characterization: X'u is skew.
    u = R.rand_tangent(x, np.random.default_rng(6))
    xu = x.T @ u
    assert np.max(np.abs(xu + xu.T)) < 1e-12


def test_elliptope_k1_rows_are_signs():
    E = elliptope_factory(5, 1)
    y = E.rand_point(np.random.default_rng(7))
    np.testing.assert_allclose(np.abs(y), np.ones((5, 1)))


def test_fixed_rank_rand_point_structure():
    FR = fixed_rank_factory(6, 5, 3)
    x = FR.rand_point(np.random.default_rng(8))
    s = np.diagonal(x.s)
    assert np.all(s > 0)
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(x.s - np.diag(s))) == 0
    assert np.max(np.abs(x.u.T @ x.u - np.eye(3))) < 1e-12
    assert np.max(np.abs(x.v.T @ x.v - np.eye(3))) < 1e-12


# --- invariant suite over the full manifold matrix -------------------------


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_point_membership_and_determinism(M):
    x1 = M.rand_point(np.random.default_rng(42))
    x2 = M.rand_point(np.random.default_rng(42))
    assert M.constraint_violation(x1) <= 1e-12
    assert tree_inner(
        tree_sub(dense_point(x1), dense_point(x2)),
        tree_sub(dense_point(x1), dense_point(x2)),
    ) == 0.0
    if M.dim > 0:
        v1 = M.rand_tangent(x1, np.random.default_rng(7))
        v2 = M.rand_tangent(x1, np.random.default_rng(7))
        d = tree_sub(dense_tangent(x1, v1), dense_tangent(x1, v2))
        assert tree_inner(d, d) == 0.0
        assert M.norm(x1, v1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_projection_idempotent(M):
    rng = np.random.default_rng(1)
    x = M.rand_point(rng)
    z = M.rand_ambient(x, rng)
    v = M.proj(x, z)
    w = M.proj(x, dense_tangent(x, v)) if _needs_densify(M) else M.proj(x, v)
    diff = tree_sub(dense_tangent(x, w), dense_tangent(x, v))
    scale = max(1.0, math.sqrt(tree_inner(dense_tangent(x, v), dense_tangent(x, v))))
    assert math.sqrt(tree_inner(diff, diff)) <= 1e-12 * scale


def _needs_densify(M):
    # proj consumes ambient representations; fixed-rank tangents (and any
    # product containing one) must be densified first.
    return "FixedRank" in M.name


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_projection_orthogonality(M):
    if "FixedRank" in M.name:
        pytest.skip("factored ambient form; orthogonality covered via idempotence")
    rng = np.random.default_rng(2)
    x = M.rand_point(rng)
    if M.dim == 0:
        pytest.skip("no tangent directions")
    z = M.rand_ambient(x, rng)
    residual = tree_sub(z, M.proj(x, z))
    for _ in range(20):
        v = M.rand_tangent(x, rng)
        assert abs(tree_inner(residual, dense_tangent(x, v))) < 1e-10


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_retraction_axioms(M):
    rng = np.random.default_rng(3)
    x = M.rand_point(rng)
    zero = M.zero_tangent(x)
    x_back = M.retract(x, zero, 1.0)
    diff = tree_sub(dense_point(x_back), dense_point(x))
    assert tree_inner(diff, diff) == 0.0

    if M.dim == 0:
        return
    u = M.rand_tangent(x, rng)
    xd = dense_point(x)
    ud = dense_tangent(x, u)

    def err(t):
        moved = dense_point(M.retract(x, u, t))
        lin = tree_add_scaled(xd, ud, t)
        d = tree_sub(moved, lin)
        return math.sqrt(tree_inner(d, d))

    e3, e4 = err(1e-3), err(1e-4)
    if e3 < 1e-14:
        return  # retraction is exactly linear (Euclidean blocks)
    assert e3 / max(e4, 1e-300) >= 50.0  # order >= 2 decay


# Every factory of the matrix; the name is that of the QR-retracted
# factories the test first covered.
@pytest.mark.parametrize("M", MATRIX, ids=IDS)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(1e-8, 1e2))
def test_qr_retraction_properties(M, seed, t):
    rng = np.random.default_rng(seed)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    back = M.retract(x, u, 0)
    if isinstance(x, tuple):
        assert all(b is c for b, c in zip(back, x))
    else:
        assert back is x
    y = M.retract(x, u, t)
    assert M.constraint_violation(y) <= 1e-10
    if M.name.startswith("Rotations"):
        assert abs(np.linalg.det(y) - 1.0) <= 1e-10


def tree_add_scaled(a, b, t):
    if isinstance(a, tuple):
        return tuple(tree_add_scaled(ac, bc, t) for ac, bc in zip(a, b))
    return a + t * b


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_constraint_preservation_under_retraction(M):
    rng = np.random.default_rng(4)
    x = M.rand_point(rng)
    if M.dim == 0:
        return
    for _ in range(100):
        u = M.rand_tangent(x, rng)
        t = 0.5 * rng.random() + 1e-3
        try:
            x = M.retract(x, u, t)
        except (DegenerateStepError, RankCollapseError):
            continue
        assert M.constraint_violation(x) <= 1e-12


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_transport_linearity_and_tangency(M):
    if M.dim == 0:
        pytest.skip("no tangent directions")
    rng = np.random.default_rng(5)
    x = M.rand_point(rng)
    y = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    v = M.rand_tangent(x, rng)
    a, b = 0.3, -1.7
    lhs = M.transport(x, y, M.lincomb(x, a, u, b, v))
    rhs = M.lincomb(y, a, M.transport(x, y, u), b, M.transport(x, y, v))
    d = tree_sub(dense_tangent(y, lhs), dense_tangent(y, rhs))
    assert math.sqrt(tree_inner(d, d)) < 1e-12
    # Output is tangent at y.
    back = M.proj(y, dense_tangent(y, lhs))
    d2 = tree_sub(dense_tangent(y, back), dense_tangent(y, lhs))
    assert math.sqrt(tree_inner(d2, d2)) < 1e-12


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_metric_positive_definite(M):
    if M.dim == 0:
        pytest.skip("no tangent directions")
    rng = np.random.default_rng(6)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    assert M.inner(x, u, u) > 0
    zero = M.zero_tangent(x)
    assert M.inner(x, zero, zero) == 0.0


# --- properties at hypothesis-drawn points, over the whole matrix -----------

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def _dense_norm(x, v):
    dv = dense_tangent(x, v)
    return math.sqrt(tree_inner(dv, dv))


def _off_tangent(M, x, v):
    """||proj_x(v) - v|| in the ambient norm: 0 exactly when v is tangent at x."""
    dv = dense_tangent(x, v)
    d = tree_sub(dense_tangent(x, M.proj(x, dv)), dv)
    return math.sqrt(tree_inner(d, d))


def _draw_tangent(M, x, rng, log_scale):
    """A tangent at x: the projection of an ambient draw scaled by 10**log_scale."""
    return M.proj(x, tree_scale(M.rand_ambient(x, rng), 10.0**log_scale))


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_projection_is_idempotent_at_any_point(M, seed, log_scale):
    rng = np.random.default_rng(seed)
    x = M.rand_point(rng)
    v = _draw_tangent(M, x, rng, log_scale)
    assert _off_tangent(M, x, v) <= 1e-12 * _dense_norm(x, v)


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), log_scales=st.tuples(
    st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)))
def test_inner_is_symmetric_at_any_point(M, seed, log_scales):
    rng = np.random.default_rng(seed)
    x = M.rand_point(rng)
    u, v = (_draw_tangent(M, x, rng, s) for s in log_scales)
    uv, vu = M.inner(x, u, v), M.inner(x, v, u)
    assert abs(uv - vu) <= 1e-12 * _dense_norm(x, u) * _dense_norm(x, v)


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_transport_lands_in_the_tangent_space(M, seed, log_scale):
    rng = np.random.default_rng(seed)
    x, y = M.rand_point(rng), M.rand_point(rng)
    w = M.transport(x, y, _draw_tangent(M, x, rng, log_scale))
    assert _off_tangent(M, y, w) <= 1e-12 * _dense_norm(y, w)


EXACT_HESSIAN = [M for M in MATRIX if M.ehess2rhess is not None and M.dim > 0]


@pytest.mark.parametrize("M", EXACT_HESSIAN, ids=[M.name for M in EXACT_HESSIAN])
def test_hessian_conversion_against_finite_differences(M):
    """<Hess u, u> must match the second derivative of t -> f(R_x(tu)),
    minus <grad, P_x R''(0)>: the tangential acceleration of the retraction
    curve contributes a first-order term that vanishes only for second-order
    retractions (it is large for the QR retractions).  The FD step is 1e-4:
    at 1e-5 the roundoff floor eps*|f|/h^2 of a double-precision second
    difference already exceeds the 1e-6 tolerance."""
    p = make_quadratic_problem(M, seed=11)
    rng = np.random.default_rng(12)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    g = get_gradient(p, x)
    hu = get_hessian(p, x, u)
    hval = M.inner(x, u, hu)

    h = 1e-4
    from riemopt import get_cost

    xp, xm = M.retract(x, u, h), M.retract(x, u, -h)
    d2f = (get_cost(p, xp) - 2.0 * get_cost(p, x) + get_cost(p, xm)) / h**2
    acc = tree_scale_sub2(dense_point(xp), dense_point(xm), dense_point(x), h)
    corr = M.inner(x, g, M.proj(x, acc))
    assert abs(hval - (d2f - corr)) <= 1e-6 * max(1.0, abs(hval))


def tree_scale_sub2(ap, am, a0, h):
    if isinstance(ap, tuple):
        return tuple(
            tree_scale_sub2(p_, m_, z_, h) for p_, m_, z_ in zip(ap, am, a0)
        )
    return (ap + am - 2.0 * a0) / h**2


@pytest.mark.parametrize("M", EXACT_HESSIAN, ids=[M.name for M in EXACT_HESSIAN])
def test_hessian_against_gradient_field_derivative(M):
    """Full-vector oracle: Hess u = P_x d/dt grad f(R(tu)) |_0, which holds
    for any retraction (only c'(0) = u matters)."""
    p = make_quadratic_problem(M, seed=11)
    rng = np.random.default_rng(12)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    hu = get_hessian(p, x, u)

    h = 1e-6
    xp, xm = M.retract(x, u, h), M.retract(x, u, -h)
    gp = dense_tangent(xp, get_gradient(p, xp))
    gm = dense_tangent(xm, get_gradient(p, xm))
    fd = M.proj(x, tree_central_diff(gp, gm, h))
    d = tree_sub(dense_tangent(x, fd), dense_tangent(x, hu))
    err = math.sqrt(tree_inner(d, d)) / max(1.0, M.norm(x, hu))
    assert err <= 1e-6


def tree_central_diff(a, b, h):
    if isinstance(a, tuple):
        return tuple(tree_central_diff(ac, bc, h) for ac, bc in zip(a, b))
    return (a - b) / (2.0 * h)


@pytest.mark.parametrize("M", EXACT_HESSIAN, ids=[M.name for M in EXACT_HESSIAN])
def test_hessian_symmetry(M):
    p = make_quadratic_problem(M, seed=13)
    rng = np.random.default_rng(14)
    x = M.rand_point(rng)
    u = M.rand_tangent(x, rng)
    v = M.rand_tangent(x, rng)
    hu = get_hessian(p, x, u)
    hv = get_hessian(p, x, v)
    a = M.inner(x, hu, v)
    b = M.inner(x, u, hv)
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@pytest.mark.parametrize("M", MATRIX, ids=IDS)
def test_gradient_tangency(M):
    p = make_quadratic_problem(M, seed=15)
    x = M.rand_point(np.random.default_rng(16))
    g = get_gradient(p, x)
    g_dense = dense_tangent(x, g)
    back = M.proj(x, g_dense)
    d = tree_sub(dense_tangent(x, back), g_dense)
    assert math.sqrt(tree_inner(d, d)) <= 1e-12 * max(
        1.0, math.sqrt(tree_inner(g_dense, g_dense))
    )
