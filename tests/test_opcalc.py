import math

import numpy as np
import pytest

from hurwitz import gauge, opcalc
from hurwitz.errors import PolarSingularity
from hurwitz.opcalc import (
    EULER_OPS,
    apply_euler_op,
    casimir,
    casimir_residual,
    commutator_residuals,
    coupled_q,
    fiber_phase_gradients,
    first_derivative,
    identity_residual,
    momentum,
    oscillator_apply,
    pullback,
    radial_duality_residual,
    second_derivative,
    wirtinger_gradients,
    xi_laplacian,
)
from hurwitz.gauge import a_field_closed, a_field_numeric
from hurwitz.harness import _TEST_OFFSETS, _AnglePoly, _XPhiField, _xphi_field
from hurwitz.separation import consistency_residual, wigner
from hurwitz.transform import (
    CASE_A,
    CASE_B,
    _row_norms,
    extra_angles,
    forward,
    invariant_products,
)

rng = np.random.default_rng(11)
# the steps the operators run at: first order, second order or nested,
# and the coarse step of the comparisons with scalar stencils
H, H2, H3 = 1e-5, 1e-4, 1e-3


def random_xi(case=CASE_A, floor=0.15):
    while True:
        xi = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2.0
        ia, ib = case.pair
        if min(abs(xi[ia]), abs(xi[ib])) > floor * np.linalg.norm(xi):
            return xi


def xi_stack(n, case=CASE_A, seed=0):
    """n draws like random_xi's from their own generator, as an (n, 4) stack
    (the module generator, and so the other tests' draws, stay untouched)."""
    gen = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        xi = (gen.standard_normal(4) + 1j * gen.standard_normal(4)) / 2.0
        if min(abs(xi[i]) for i in case.pair) > 0.15 * np.linalg.norm(xi):
            out.append(xi)
    return np.array(out)


def random_angles(margin=0.3):
    return np.array([
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, 2 * math.pi),
        rng.uniform(margin, math.pi - margin),
    ])


def trig_field():
    c = rng.uniform(0.2, 0.5, 3)
    n = rng.integers(-2, 3, (3, 3))
    delta = rng.uniform(0, 2 * math.pi, 3)

    def g(phi):
        return 1.0 + sum(
            c[j] * np.cos(np.tensordot(n[j], phi, 1) + delta[j]) for j in range(3)
        )

    return g


# --- angle-chart generators ---------------------------------------------------

def test_plane_wave_eigenfunctions():
    phi = random_angles()
    g1 = lambda p: np.exp(3j * p[0])
    assert abs(apply_euler_op("T1", g1, phi, H) - 3 * g1(phi)) < 1e-9
    g2 = lambda p: np.exp(-2j * p[1])
    assert abs(apply_euler_op("Q1", g2, phi, H) + 2 * g2(phi)) < 1e-9


def test_polar_singularity_raised_for_every_operator():
    phi = np.array([0.3, 0.8, 0.0])
    for which in ("T1", "T2", "T3", "Q1", "Q2", "Q3"):
        with pytest.raises(PolarSingularity):
            apply_euler_op(which, lambda p: 1.0, phi, H)


@pytest.mark.parametrize(
    "a,b,c", [("T1", "T2", "T3"), ("T2", "T3", "T1"), ("T3", "T1", "T2")]
)
def test_left_triple_closure(a, b, c):
    worst = 0.0
    for _ in range(10):
        worst = max(
            worst,
            commutator_residuals([(a, b, (1j, c))], trig_field(), random_angles(), H2)[0],
        )
    assert worst < 1e-5


@pytest.mark.parametrize(
    "a,b,c", [("Q1", "Q2", "Q3"), ("Q2", "Q3", "Q1"), ("Q3", "Q1", "Q2")]
)
def test_right_triple_closure(a, b, c):
    worst = 0.0
    for _ in range(10):
        worst = max(
            worst,
            commutator_residuals([(a, b, (1j, c))], trig_field(), random_angles(), H2)[0],
        )
    assert worst < 1e-5


def test_left_and_right_triples_commute():
    f = trig_field()
    phi = random_angles()
    for ti in ("T1", "T2", "T3"):
        for qj in ("Q1", "Q2", "Q3"):
            assert commutator_residuals([(ti, qj, (0.0, None))], f, phi, H2)[0] < 1e-5


def test_shared_casimir_on_basis_elements():
    for J, q, p in ((1, 1, 0), (2, -1, 2), (1, 0, -1)):
        f = lambda ph: wigner(J, q, p, ph)
        assert casimir_residual(f, random_angles(), H2) < 1e-4


# --- the shared operators against hand-written stencil sums ---------------------

def test_casimir_matches_nested_unshared_applications_exactly():
    for _ in range(3):
        f = trig_field()
        phi = random_angles()
        for family in ("T", "Q"):
            # reference: each nested application on fresh, unshared wrappers
            want = sum(
                apply_euler_op(w, lambda p, w=w: apply_euler_op(w, f, p, H3), phi, H3)
                for w in (f"{family}1", f"{family}2", f"{family}3")
            )
            assert casimir(family, f, phi, H3) == want


def test_coupled_q_matches_unshared_applications_exactly():
    for _ in range(3):
        f = trig_field()
        phi = random_angles()
        row = rng.uniform(-1.0, 1.0, 3)
        want = sum(
            row[k] * apply_euler_op(f"Q{k + 1}", f, phi, H3) for k in range(3)
        )
        assert coupled_q(row, apply_euler_op(EULER_OPS, f, phi, H3)) == want


def test_momentum_matches_hand_written_stencils_exactly():
    x = np.array([0.4, -0.7, 0.2, 0.5, 0.3])
    potential = lambda y: a_field_closed(y, CASE_A)
    phi = random_angles()
    for f in (field_gaussian, field_poly):
        for lam in range(5):
            e = np.zeros(5)
            e[lam] = 1.0
            der = first_derivative(lambda t: f(x + t * e, phi), H)
            q = sum(
                potential(x)[lam, k]
                * apply_euler_op(f"Q{k + 1}", lambda p: f(x, p), phi, H)
                for k in range(3)
            )
            got = momentum(lam, f, potential(x), x, phi, H)
            assert got.shape == ()
            assert got == -1j * der + q


# --- the batched engine against scalar stencils ----------------------------------
# The reference is the scalar route: one first_derivative per angle and
# point, with the generator coefficients written out at scalar angles.
# Nested stencils at step 1e-3 amplify roundoff by ~1e6, hence 1e-9 there.

FIRST_ORDER_BOUND = 1e-11
NESTED_BOUND = 1e-9
GENERATORS = ("T1", "T2", "T3", "Q1", "Q2", "Q3")


def _scalar_coefficients(phi, which):
    (c1, c2, c3), (s1, s2, s3) = map(math.cos, phi), map(math.sin, phi)
    return {
        "T1": (-1j, 0.0, 0.0),
        "T2": (-1j * c1 * c3 / s3, 1j * c1 / s3, -1j * s1),
        "T3": (-1j * s1 * c3 / s3, 1j * s1 / s3, 1j * c1),
        "Q1": (0.0, -1j, 0.0),
        "Q2": (-1j * c2 / s3, 1j * c2 * c3 / s3, 1j * s2),
        "Q3": (-1j * s2 / s3, 1j * s2 * c3 / s3, -1j * c2),
    }[which]


def _shifted(phi, k, t):
    v = phi.copy()
    v[k] += t
    return v


def scalar_op(which, f, h):
    """The generator ``which`` applied to f, as a field of scalar angles."""

    def g(phi):
        return sum(
            c * first_derivative(lambda t, k=k: f(_shifted(phi, k, t)), h)
            for k, c in enumerate(_scalar_coefficients(phi, which))
        )

    return g


def test_apply_euler_op_matches_scalar_stencils():
    for _ in range(3):
        f = trig_field()
        phis = [random_angles() for _ in range(4)]
        batch = np.stack(phis, axis=-1)
        for which in GENERATORS:
            want = np.array([scalar_op(which, f, H3)(p) for p in phis])
            got = apply_euler_op(which, f, batch, H3)
            assert got.shape == (4,)
            assert np.abs(got - want).max() < FIRST_ORDER_BOUND
            assert abs(apply_euler_op(which, f, phis[0], H3) - want[0]) < FIRST_ORDER_BOUND


def test_casimir_matches_scalar_nested_stencils():
    for _ in range(3):
        f = trig_field()
        phi = random_angles()
        for family in ("T", "Q"):
            want = sum(
                scalar_op(w, scalar_op(w, f, H3), H3)(phi)
                for w in (f"{family}1", f"{family}2", f"{family}3")
            )
            assert abs(casimir(family, f, phi, H3) - want) < NESTED_BOUND


def test_coupled_q_matches_scalar_stencils():
    for _ in range(3):
        f = trig_field()
        phi = random_angles()
        row = rng.uniform(-1.0, 1.0, 3)
        want = sum(row[k] * scalar_op(f"Q{k + 1}", f, H3)(phi) for k in range(3))
        got = coupled_q(row, apply_euler_op(EULER_OPS, f, phi, H3))
        assert abs(got - want) < FIRST_ORDER_BOUND


def test_momentum_matches_scalar_stencils():
    xs = np.array([[0.4, -0.7, 0.2, 0.5, 0.3], [-0.3, 0.6, 0.9, -0.2, 0.1]])
    potential = lambda ys: a_field_closed(ys, CASE_A)
    phi = random_angles()
    for f in (field_gaussian, field_poly):
        got = momentum(np.arange(5), f, potential(xs), xs, phi, H3)
        assert got.shape == (5, 2)
        for i, x in enumerate(xs):
            A = a_field_closed(x, CASE_A)
            for lam in range(5):
                e = np.eye(5)[lam]
                der = first_derivative(lambda t: f(x + t * e, phi), H3)
                q = sum(
                    A[lam, k] * scalar_op(f"Q{k + 1}", lambda p: f(x, p), H3)(phi)
                    for k in range(3)
                )
                assert abs(got[lam, i] - (-1j * der + q)) < FIRST_ORDER_BOUND


def test_nested_momentum_matches_scalar_stencils():
    # P_lam P_lam f, the operator of laplacian_split, against nested scalar stencils
    x = np.array([0.4, -0.7, 0.2, 0.5, 0.3])
    potential = lambda ys: a_field_closed(ys, CASE_A)
    phi = random_angles()
    f = field_gaussian

    def scalar_p(lam, g):
        # P_lam of a scalar field g(y, angles), as a scalar field
        e = np.eye(5)[lam]

        def pg(y, p):
            der = first_derivative(lambda t: g(y + t * e, p), H3)
            A = a_field_closed(y, CASE_A)
            return -1j * der + sum(
                A[lam, k] * scalar_op(f"Q{k + 1}", lambda pp: g(y, pp), H3)(p)
                for k in range(3)
            )

        return pg

    for lam in (0, 4):
        inner = lambda ys, ang: momentum(lam, f, potential(ys), ys, ang, H3)
        got = momentum(lam, inner, potential(x), x, phi, H3)
        want = scalar_p(lam, scalar_p(lam, field_gaussian))(x, phi)
        assert abs(got - want) < NESTED_BOUND


# --- the complex-space engine against scalar stencils ----------------------------
# The reference loops over the 8 real directions with the scalar stencils,
# one field call per displaced point; the engine makes one call on the stack
# and sums in the same order.  A field need not round alike on a stack and on
# one point (the angle polynomial's matrix product does not), and a second
# difference amplifies that by ~1/h^2, so these steps are coarse enough to
# keep the difference far below the 1e-10 bound.

XI_BOUND = 1e-10
XI_H2 = 1e-2


def scalar_wirtinger(f, xi, h):
    dholo, danti = [], []
    for e in np.eye(4):
        g_re = first_derivative(lambda t: f(xi + t * e), h)
        g_im = first_derivative(lambda t: f(xi + 1j * t * e), h)
        dholo.append(0.5 * (g_re - 1j * g_im))
        danti.append(0.5 * (g_re + 1j * g_im))
    return np.array(dholo), np.array(danti)


def scalar_xi_laplacian(f, xi, h):
    total = 0.0
    for e in np.eye(4):
        total += second_derivative(lambda t: f(xi + t * e), h)
        total += second_derivative(lambda t: f(xi + 1j * t * e), h)
    return 0.25 * total


def complex_space_fields():
    omega = 0.7
    return {
        "constant": lambda z: 2.5 - 0.5j,
        "monomial": lambda z: z[..., 0],
        "gaussian": lambda z: np.exp(-omega * np.vecdot(z, z).real),
        "pullback": pullback(_xphi_field(np.random.default_rng(5), "gaussian"), CASE_A),
    }


@pytest.mark.parametrize("name", ["constant", "monomial", "gaussian", "pullback"])
def test_wirtinger_gradients_match_scalar_stencils(name):
    f = complex_space_fields()[name]
    xis = xi_stack(3, seed=1)
    dh, da = wirtinger_gradients(f, xis, H3)
    assert dh.shape == da.shape == (3, 4)
    for i, xi in enumerate(xis):
        want_h, want_a = scalar_wirtinger(f, xi, H3)
        assert np.abs(dh[i] - want_h).max() < XI_BOUND
        assert np.abs(da[i] - want_a).max() < XI_BOUND
        one_h, one_a = wirtinger_gradients(f, xi, H3)
        assert np.abs(one_h - dh[i]).max() < XI_BOUND
        assert np.abs(one_a - da[i]).max() < XI_BOUND


@pytest.mark.parametrize("name", ["constant", "monomial", "gaussian", "pullback"])
def test_xi_laplacian_matches_scalar_stencils(name):
    f = complex_space_fields()[name]
    xis = xi_stack(3, seed=2)
    lap = xi_laplacian(f, xis, XI_H2)
    assert np.shape(lap) == (3,)
    for i, xi in enumerate(xis):
        assert abs(lap[i] - scalar_xi_laplacian(f, xi, XI_H2)) < XI_BOUND
        assert abs(xi_laplacian(f, xi, XI_H2) - lap[i]) < XI_BOUND


def scalar_phase_gradients(xi, case, h):
    """The three angle gradients with one scalar exponential per angle."""
    ia, ib = case.pair

    def g(z, k):
        a, b = z[ia], z[ib]
        val = [
            (a / abs(a)) * (b / abs(b)),
            (a / abs(a)) * (np.conj(b) / abs(b)),
            ((abs(a) ** 2 - abs(b) ** 2) + 2j * abs(a) * abs(b))
            / (abs(a) ** 2 + abs(b) ** 2),
        ][k]
        if case.offsets is not None:
            val *= np.exp(1j * float(case.offsets[k](invariant_products(z))))
        return val

    D_, Dbar = np.zeros((3, 4), complex), np.zeros((3, 4), complex)
    for k in range(3):
        dh, da = scalar_wirtinger(lambda z: g(z, k), xi, h)
        D_[k], Dbar[k] = -1j * dh / g(xi, k), -1j * da / g(xi, k)
    return D_, Dbar


@pytest.mark.parametrize(
    "case", [CASE_A, CASE_B, CASE_A.with_offsets(_TEST_OFFSETS)],
    ids=["A", "B", "A_offsets"],
)
def test_fiber_phase_gradients_match_scalar_stencils(case):
    xis = xi_stack(3, CASE_A if case.tag == "A" else CASE_B, seed=3)
    got, got_bar = fiber_phase_gradients(xis, case, H3)
    assert got.shape == got_bar.shape == (3, 3, 4)
    for i, xi in enumerate(xis):
        want, want_bar = scalar_phase_gradients(xi, case, H3)
        assert np.abs(got[i] - want).max() < XI_BOUND
        assert np.abs(got_bar[i] - want_bar).max() < XI_BOUND


# --- cross-picture identities ---------------------------------------------------

@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_phase_constraint(case):
    worst = 0.0
    for _ in range(10):
        worst = max(
            worst,
            identity_residual("phase_constraint", case, random_xi(case), None, H),
        )
    assert worst < 1e-6


def test_phase_constraint_insensitive_to_offsets():
    offsets = (
        lambda m: 0.4 * np.sin(m[..., 0, 0].real - m[..., 1, 1].real),
        lambda m: 0.3 * np.cos(m[..., 2, 2].real),
        lambda m: 0.2 * np.sin(m[..., 0, 1].real),
    )
    case = CASE_A.with_offsets(offsets)
    worst = 0.0
    for _ in range(10):
        worst = max(
            worst,
            identity_residual("phase_constraint", case, random_xi(CASE_A), None, H),
        )
    assert worst < 1e-6


def field_gaussian(x, phi):
    return (
        np.exp(-0.35 * np.vecdot(x, x))
        * (1 + 0.2 * x[..., 0] - 0.1 * x[..., 3])
        * (1 + 0.4 * np.cos(phi[0] + phi[1]) + 0.3 * np.sin(phi[1] - phi[2]))
    )


def field_poly(x, phi):
    return (1 + 0.3 * x[..., 1] - 0.2 * x[..., 4] + 0.1 * x[..., 0] * x[..., 2]) * (
        1 + 0.5 * np.cos(phi[0]) + 0.2 * np.sin(2 * phi[1] + phi[2])
    )


# --- rank padding: momentum against its explicitly broadcast call ---------------

def broadcast_momentum(lam, f, potential, xs, phi, h):
    """momentum with the points, their ``potential`` and the angles
    materialised at the batch shape before the call, so that its rank
    padding has nothing to pad."""
    batch = np.broadcast_shapes(np.shape(xs)[:-1], phi.shape[1:])
    phi = np.broadcast_to(phi.reshape(phi.shape[:1] + (1,) * (len(batch) + 1 - phi.ndim)
                                      + phi.shape[1:]), (3,) + batch)
    xs = np.broadcast_to(xs, batch + (5,))
    return momentum(lam, f, potential(xs), xs, phi, h)


PADDED_XS = np.array([[0.4, -0.7, 0.2, 0.5, 0.3], [-0.3, 0.6, 0.9, -0.2, 0.1],
                      [0.8, 0.1, -0.5, 0.3, 0.6]])


def padded_angles(shape, seed):
    lo, hi = [0.0, 0.0, 0.5], [2 * math.pi, 2 * math.pi, math.pi - 0.5]
    drawn = np.random.default_rng(seed).uniform(lo, hi, shape + (3,))
    return np.moveaxis(drawn, -1, 0)


@pytest.mark.parametrize(
    "f",
    [
        field_gaussian,
        # constant in x
        lambda ys, ang: 1 + 0.4 * np.cos(ang[0] + ang[1]) + 0.3 * np.sin(ang[2]),
        # constant in the angles
        lambda ys, ang: np.exp(-0.35 * np.vecdot(ys, ys)) * (1 + 0.2 * ys[..., 0]),
    ],
    ids=["both", "constant_in_x", "constant_in_angles"],
)
def test_rank_padded_momentum_equals_the_broadcast_call_exactly(f):
    # angles (k, 1) against points (m,), as consistency_residual batches them
    phi = padded_angles((2, 1), seed=3)
    potential = lambda ys: a_field_closed(ys, CASE_A)
    got = momentum(np.arange(5), f, potential(PADDED_XS), PADDED_XS, phi, H3)
    want = broadcast_momentum(np.arange(5), f, potential, PADDED_XS, phi, H3)
    assert got.shape == want.shape == (5, 2, 3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("angle_shape", [(3,), (2, 1)], ids=["per_point", "k_by_1"])
def test_rank_padded_nested_momentum_equals_the_broadcast_call_exactly(angle_shape):
    # P_lam P_lam f as laplacian_split builds it: the inner call sees points
    # (4,) + B + (5,) from the outer stencil against angles of lower rank
    potential = lambda ys: a_field_closed(ys, CASE_A)
    phi = padded_angles(angle_shape, seed=4)
    for lam in (0, 4):
        inner = lambda ys, ang: momentum(lam, field_poly, potential(ys), ys, ang, H3)
        inner_ref = lambda ys, ang: broadcast_momentum(lam, field_poly, potential,
                                                       ys, ang, H3)
        got = momentum(lam, inner, potential(PADDED_XS), PADDED_XS, phi, H3)
        want = broadcast_momentum(lam, inner_ref, potential, PADDED_XS, phi, H3)
        assert got.shape == want.shape == np.broadcast_shapes((3,), angle_shape)
        assert np.array_equal(got, want)


# --- the rows an operator reads, against the full six-row table ----------------
# The references are the formulas with every generator row formed: the full
# coefficient table in the product and the sum, and the full nested table.

def full_images(v, phi, h):
    """All six images from the field's values ``v`` on the angle stencil."""
    coef = opcalc._coefficients(phi)
    der = opcalc._angle_derivatives(v, phi, h)
    nt = der.ndim - coef.ndim + 1
    coef = coef.reshape((6,) + (1,) * nt + coef.shape[1:])
    return 1j * (coef * der).sum(axis=nt + 1)


def on_stencil(field, phi, h):
    return field(opcalc._angle_stencil(phi, h))


def full_nested(field, phi, h):
    st = opcalc._angle_stencil(phi, h)
    return full_images(full_images(on_stencil(field, st, h), st, h), phi, h)


def assert_same_bits(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    got, want = np.ascontiguousarray(got).view(float), np.ascontiguousarray(want).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# fixed draws, so the module generator and the other tests' draws stay
# untouched
ROW_ANGLES = {
    "scalar": lambda: np.array([1.1, 4.2, 0.9]),
    "stack": lambda: padded_angles((7,), seed=5),
    "grid": lambda: padded_angles((2, 3), seed=6),
}


def row_fields():
    g = lambda ph: 1.0 + 0.4 * np.cos(ph[0] - 2 * ph[1] + 0.3) + 0.3 * np.sin(ph[2])
    return {
        "real": g,
        "complex": lambda ph: wigner(1, 1, 0, ph) + 0.3 * g(ph),
        # a field with its own leading output axis, T = (2,)
        "stacked": lambda ph: np.stack([g(ph), wigner(2, -1, 1, ph)]),
    }


@pytest.mark.parametrize("angles", list(ROW_ANGLES))
@pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
def test_image_rows_equal_their_rows_of_the_full_table_bit_for_bit(angles, kind):
    f, phi = row_fields()[kind], ROW_ANGLES[angles]()
    v = on_stencil(f, phi, H3)
    full = full_images(v, phi, H3)
    for rows in ([0], [5], [3, 4, 5], slice(3, 6), slice(0, 3), [0, 3, 4, 5], slice(None)):
        assert_same_bits(opcalc._images(v, phi, H3, rows), full[rows])
    for k, name in enumerate(EULER_OPS):
        assert_same_bits(apply_euler_op(name, f, phi, H3), full[k])
    assert_same_bits(apply_euler_op(("Q3", "T1"), f, phi, H3), full[[5, 0]])


@pytest.mark.parametrize("angles", list(ROW_ANGLES))
@pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
def test_family_casimir_equals_the_full_nested_diagonal_bit_for_bit(angles, kind):
    f, phi = row_fields()[kind], ROW_ANGLES[angles]()
    nested = full_nested(f, phi, H3)
    for family, k in (("T", 0), ("Q", 3)):
        want = nested[k, k] + nested[k + 1, k + 1] + nested[k + 2, k + 2]
        assert_same_bits(casimir(family, f, phi, H3), want)
        assert_same_bits(opcalc._casimir(nested, family), want)


@pytest.mark.parametrize("angles", ["scalar", "stack"])
@pytest.mark.parametrize("family", ["T", "Q"])
def test_one_family_commutators_equal_the_full_table_formula_bit_for_bit(angles, family):
    f, phi = row_fields()["real"], ROW_ANGLES[angles]()
    ops = [f"{family}{k}" for k in (1, 2, 3)]
    relations = [(ops[i], ops[(i + 1) % 3], (1j, ops[(i + 2) % 3])) for i in range(3)]
    nested, images = full_nested(f, phi, H2), full_images(on_stencil(f, phi, H2), phi, H2)
    ix = EULER_OPS.index
    want = np.array([np.abs(nested[ix(a), ix(b)] - nested[ix(b), ix(a)] - c * images[ix(op)])
                     for a, b, (c, op) in relations])
    assert_same_bits(commutator_residuals(relations, f, phi, H2), want)


@pytest.mark.parametrize("f", [field_gaussian, field_poly])
def test_q_only_momentum_equals_the_six_image_formula_bit_for_bit(monkeypatch, f):
    potential = lambda ys: a_field_closed(ys, CASE_A)
    phi = padded_angles((2, 1), seed=3)
    got = momentum(np.arange(5), f, potential(PADDED_XS), PADDED_XS, phi, H3)
    # every angle image formed, as coupled_q read them before: its last three
    monkeypatch.setattr(opcalc, "_images", lambda v, phi, h, rows=None, coef=None: full_images(v, phi, h))
    assert_same_bits(got, momentum(np.arange(5), f, potential(PADDED_XS), PADDED_XS, phi, H3))


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
@pytest.mark.parametrize(
    "which", ["derivative_split", "momentum_equivalence", "laplacian_split"]
)
def test_cross_picture_identities(case, which):
    worst = 0.0
    for f in (field_gaussian, field_poly):
        for _ in range(3):
            worst = max(
                worst, identity_residual(which, case, random_xi(case), f,
                                         H2 if which == "laplacian_split" else H)
            )
    assert worst < 1e-4


# --- laplacian_split: the five axes in one pass ---------------------------------

def laplacian_split_per_axis(case, xi, field, h):
    """The Laplacian split with one outer momentum call per axis on a one-axis
    inner field, summed in axis order: the reference that the five-axis
    evaluation must equal bit for bit."""
    xi = np.asarray(xi, dtype=complex)
    x, phi = forward(xi), extra_angles(xi, case)
    r = _row_norms(x)[()]
    potential = lambda ys: a_field_closed(ys, case)

    def p_squared(lam):
        inner = lambda ys, ang: momentum(lam, field, potential(ys), ys, ang, h)
        return momentum(lam, inner, potential(x), x, phi, h)

    p_sq = sum(p_squared(lam) for lam in range(5))
    lhs = r * p_sq + casimir("Q", lambda ang: field(x, ang), phi, h) / r
    rhs = -xi_laplacian(pullback(field, case), xi, h)
    return opcalc._rel_max(lhs, rhs, xi.ndim - 1)


def _stack(fields):
    """One x-phi field whose parameters hold each field's along a sample
    axis (trailing in the values)."""
    polys = [f.ang for f in fields]
    return _XPhiField(np.array([f.gaussian for f in fields]), np.array([f.coeff for f in fields]),
                      _AnglePoly(*(np.stack([getattr(g, name) for g in polys], axis=-1)
                                   for name in ("amp", "freq", "phase"))))


# each maker takes the number of samples, None for one point
LAPLACIAN_FIELDS = {
    # one field, or one per sample along the trailing axis
    "xphi": lambda n: _xphi_field(np.random.default_rng(5), "gaussian") if n is None
    else _stack([_xphi_field(np.random.default_rng(5 + i), "gaussian" if i % 2 else "poly")
                 for i in range(n)]),
    "constant_in_x": lambda n: (
        lambda ys, ang: 1 + 0.4 * np.cos(ang[0] + ang[1]) + 0.3 * np.sin(ang[2])),
    "constant_in_angles": lambda n: (
        lambda ys, ang: np.exp(-0.35 * np.vecdot(ys, ys)) * (1 + 0.2 * ys[..., 0])),
}


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
@pytest.mark.parametrize("n", [None, 7], ids=["point", "stack"])
@pytest.mark.parametrize("name", list(LAPLACIAN_FIELDS))
def test_laplacian_split_equals_the_per_axis_loop_bit_for_bit(case, n, name):
    xi = xi_stack(7, case, seed=21)
    xi = xi[0] if n is None else xi
    field = LAPLACIAN_FIELDS[name](n)
    for h in (H2, 0.08):
        got = identity_residual("laplacian_split", case, xi, field, h)
        want = laplacian_split_per_axis(case, xi, field, h)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == np.shape(xi)[:-1]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_laplacian_split_evaluates_the_coefficients_once_per_stack(monkeypatch):
    # two tables, one per angle stack: the angles' own, which the inner
    # field at the outer x-stencil, the outer momentum's images and the
    # Casimir's outer images share, and the stencil's, for the Q images there
    # that the inner momentum and the Casimir share; the axes (5, 1) against
    # the points (7,) give each a unit axis; one outer and two inner calls
    # per axis made seventeen, a Casimir of its own five, and a table per
    # image at the angles four; the closed-form potential is evaluated once at
    # the padded points, for the inner momentum on the angle stencil and the
    # outer momentum's rows, and once at the outer x-stencil
    calls, closed = [], []
    coefficients = opcalc._coefficients

    def counted(phi):
        calls.append(phi.shape[1:])
        return coefficients(phi)

    def counted_closed(x, case):
        closed.append(np.shape(x))
        return a_field_closed(x, case)

    monkeypatch.setattr(opcalc, "_coefficients", counted)
    monkeypatch.setattr(gauge, "a_field_closed", counted_closed)
    xi = xi_stack(7, CASE_A, seed=21)
    identity_residual("laplacian_split", CASE_A, xi, LAPLACIAN_FIELDS["xphi"](7), H2)
    assert sorted(calls, key=len) == [(1, 7), (3, 4, 1, 7)]
    assert closed == [(1, 7, 5), (4, 5, 7, 5)]


def test_laplacian_split_displaces_each_axis_along_itself_only():
    # the inner P_lam f at the outer x-stencil of axis lam is displaced along
    # lam alone, (4, 4, 5) + B, never along all five axes, (4, 5, 4, 5) + B
    shapes = []
    field = LAPLACIAN_FIELDS["xphi"](7)

    def counted(ys, ang):
        v = field(ys, ang)
        shapes.append(np.shape(v))
        return v

    xi = xi_stack(7, CASE_A, seed=21)
    identity_residual("laplacian_split", CASE_A, xi, counted, H2)
    assert (4, 4, 5, 7) in shapes
    assert (4, 5, 4, 5, 7) not in shapes
    # the nested angle stencil, (3, 4, 3, 4) + B, is evaluated once: 1,008 of
    # 6,216 points were the Casimir's second evaluation of it
    assert sum(math.prod(s) for s in shapes) <= 5208


def test_derivative_split_constant_field():
    res = identity_residual(
        "derivative_split", CASE_A, random_xi(), lambda x, p: 2.5, H
    )
    assert res < 1e-11


def test_laplacian_split_on_radial_gaussian():
    # the pullback of exp(-|xi|^2) is the angle-independent field exp(-r)
    radial = lambda x, p: np.exp(-np.linalg.norm(x, axis=-1))
    worst = 0.0
    for case in (CASE_A, CASE_B):
        for _ in range(3):
            worst = max(
                worst,
                identity_residual("laplacian_split", case, random_xi(case), radial, H2),
            )
    assert worst < 1e-4


def test_identity_residuals_shrink_at_fourth_order():
    xi = np.array([0.8 + 0.2j, 0.6 - 0.4j, 0.3 + 0.5j, -0.4 + 0.3j])
    ratios = []
    for which, h in (
        ("phase_constraint", 0.05),
        ("derivative_split", 0.04),
        ("laplacian_split", 0.08),
    ):
        big = identity_residual(which, CASE_A, xi, field_gaussian, h)
        small = identity_residual(which, CASE_A, xi, field_gaussian, h / 2)
        ratios.append(big / small)
    assert min(ratios) >= 8.0


# --- the step check ------------------------------------------------------------
# Every array derivative passes through one stencil combination, which
# rejects a step outside (0, inf) before it divides by it.

STEP_XI = np.array([0.8 + 0.2j, 0.6 - 0.4j, 0.3 + 0.5j, -0.4 + 0.3j])
STEP_X, STEP_PHI = forward(STEP_XI), extra_angles(STEP_XI, CASE_A)
STEP_CALLS = {
    "wirtinger_gradients": lambda h: wirtinger_gradients(lambda z: z[..., 0], STEP_XI, h),
    "apply_euler_op": lambda h: apply_euler_op("T1", lambda p: np.cos(p[0]), STEP_PHI, h),
    "momentum": lambda h: momentum(0, field_gaussian, a_field_closed(STEP_X, CASE_A),
                                   STEP_X, STEP_PHI, h),
    "identity_residual[momentum_equivalence]": lambda h: identity_residual(
        "momentum_equivalence", CASE_A, STEP_XI, field_gaussian, h),
    "identity_residual[laplacian_split]": lambda h: identity_residual(
        "laplacian_split", CASE_A, STEP_XI, field_gaussian, h),
    "consistency_residual": lambda h: consistency_residual(
        1, 0, lambda y: np.exp(-_row_norms(y)), STEP_X, CASE_A, "alternating", h,
        n_angles=2),
    "a_field_numeric": lambda h: a_field_numeric(STEP_XI, CASE_A, h),
}


@pytest.mark.parametrize("h", [0.0, -1e-5, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("name", list(STEP_CALLS))
def test_every_operator_rejects_a_step_outside_zero_to_infinity(name, h):
    # the displaced points of an infinite or NaN step are NaN, which only
    # warns on the way to the check
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="step"):
        STEP_CALLS[name](h)


# --- oscillator ----------------------------------------------------------------

def test_gaussian_eigenfunction_all_frequencies():
    for omega in (0.5, 1.0, 2.0):
        f = lambda z: np.exp(-omega * np.vecdot(z, z).real)
        for _ in range(5):
            xi = random_xi(floor=0.0)
            got = oscillator_apply(omega, f, xi, H2)
            # the eigenvalue Z = 2 omega
            assert abs(got - 2.0 * omega * f(xi)) / abs(f(xi)) < 1e-6


def test_wirtinger_convention_matches_analytic_gaussian():
    # independent oracle for the mixed second derivative: the Gaussian obeys
    # sum_s d^2 f / dxi dxi* = (-4 w + w^2 |xi|^2) f
    omega = 1.3
    f = lambda z: np.exp(-omega * np.vecdot(z, z).real)
    xi = random_xi(floor=0.0)
    lap = xi_laplacian(f, xi, H2)
    r = float(np.real(xi @ xi.conj()))
    assert abs(lap - (-4 * omega + omega**2 * r) * f(xi)) < 1e-6


def test_constant_field_sees_potential_only():
    xi = random_xi(floor=0.0)
    r = float(np.real(xi @ xi.conj()))
    got = oscillator_apply(1.5, lambda z: 1.0, xi, H2)
    assert abs(got - 0.5 * 1.5**2 * r) < 1e-7


def test_radial_duality_with_independent_laplacian_oracle():
    from hurwitz.opcalc import second_derivative

    for omega in (0.5, 1.0, 2.0):
        x = rng.standard_normal(5)
        x *= rng.uniform(0.9, 1.8) / np.linalg.norm(x)
        r = float(np.linalg.norm(x))
        # oracle: the radial form of the 5-axis Laplacian on exp(-w r)
        lap5 = 0.0
        psi = lambda y: math.exp(-omega * float(np.linalg.norm(y)))
        for lam in range(5):
            e = np.zeros(5)
            e[lam] = 1.0
            lap5 += second_derivative(lambda t: psi(x + t * e), 1e-4)
        analytic = (omega**2 - 4 * omega / r) * psi(x)
        assert abs(lap5 - analytic) / abs(analytic) < 1e-6
        assert radial_duality_residual(omega, x, H2) < 1e-6


def test_energy_frequency_relation():
    # exp(-omega r) solves the radial equation only with Z = 2 omega and
    # E = -omega^2 / 2: at omega = 2, Z = 4 and E = -2, another Z or E leaves
    # a residual of order one
    x = np.array([0.4, -0.7, 0.2, 0.5, 0.3])
    assert radial_duality_residual(2.0, x, H2) < 1e-6
    assert radial_duality_residual(np.array([2.0]), x[None], H2).shape == (1,)
    xi = np.array([0.3, 0.5j, -0.2, 0.1])
    for omega in (-1.0, 0.0, np.array([1.0, -1.0])):
        with pytest.raises(ValueError):
            oscillator_apply(omega, lambda z: 1.0, xi, H2)
        with pytest.raises(ValueError):
            radial_duality_residual(omega, x, H2)
