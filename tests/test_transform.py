import math

import numpy as np
import pytest

from hurwitz import transform
from hurwitz.errors import DegenerateFiber, SectionFailed, SingularFiber
from hurwitz.transform import (
    CASE_A,
    CASE_B,
    OCTET_CONVENTION,
    extra_angles,
    fiber_section,
    forward,
    forward_octet,
)

rng = np.random.default_rng(7)


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


def test_forward_unit_first_axis():
    x = forward([1, 0, 0, 0])
    assert np.allclose(x, [0, 0, 0, 0, 1], atol=0)
    assert transform._row_norms(x) == 1.0


def test_norm_identity_random():
    for _ in range(200):
        xi = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2.0
        r = transform._row_norms(forward(xi))
        nrm = float(np.real(xi @ xi.conj()))
        assert abs(r - nrm) < 1e-12 * max(nrm, 1e-3)


def test_quadratic_homogeneity():
    xi = random_xi()
    for c in (0.5, 2.0, -1.3):
        assert np.abs(forward(c * xi) - c * c * forward(xi)).max() < 1e-12


def test_forward_on_a_stack_equals_its_rows():
    xis = xi_stack(32, seed=4).reshape(4, 8, 4)
    pts = forward(xis)
    r = transform._row_norms(pts)
    assert pts.shape == (4, 8, 5) and r.shape == (4, 8)
    rows = [forward(xi) for xi in xis.reshape(-1, 4)]
    row_r = [transform._row_norms(p)[()] for p in rows]
    assert np.array_equal(pts.reshape(-1, 5), np.array(rows))
    assert np.array_equal(r.ravel(), np.array(row_r))
    assert isinstance(row_r[0], float)


def test_forward_on_a_stack_raises_when_one_row_is_not_real(monkeypatch):
    # a non-Hermitian first form, xi_1* xi_2, is complex only where xi_2 != 0
    gamma = transform.GAMMA.copy()
    gamma[0] = 0.0
    gamma[0, 0, 1] = 1.0
    cols, units = transform._unit_tables(gamma)
    monkeypatch.setattr(transform, "_UNIT_COLS", cols)
    monkeypatch.setattr(transform, "_UNITS", units)
    xis = np.zeros((5, 4), dtype=complex)
    xis[:, 0] = 1.0 + 0.5j
    forward(xis)
    xis[3, 1] = 0.3j
    with pytest.raises(FloatingPointError):
        forward(xis)


def _per_row_guard(x):
    """The realness guard as one scaled test per row, for the verdict table."""
    scale = np.maximum(1.0, np.abs(x).max(axis=-1))
    return not np.count_nonzero(np.abs(x.imag).max(axis=-1) > 1e-13 * scale)


@pytest.mark.parametrize("x, passes", [
    ([[1.0 + 1e-13j, -3.0 - 1e-13j, 0, 0, 0], [0.5, 0, 0, 0, 1e-14j]], True),
    # within its own scale 1e-13 * 50, above the whole-stack 1e-13
    ([[1.0, 0, 0, 0, 0], [50.0, 4e-12j, 0, 0, 0]], True),
    ([[50.0, 4e-12j, 0, 0, 0], [1.0, 0, 0, 0, 2e-13j]], False),
    ([[1.0, 0, 0, 0, 0], [np.nan, 0, 0, 0, 0], [0, 0, np.nan * 1j, 0, 0]], True),
    (np.zeros((0, 5), dtype=complex), True),
    (np.zeros((2, 0, 5), dtype=complex), True),
], ids=["within_1e-13", "within_own_scale", "above_own_scale", "nan_rows",
        "empty", "empty_batch"])
def test_forward_guard_verdicts_equal_the_per_row_test(monkeypatch, x, passes):
    x = np.asarray(x, dtype=complex)
    assert _per_row_guard(x) == passes
    monkeypatch.setattr(transform, "_forms", lambda xi: x.copy())
    if passes:
        out = forward(np.zeros(x.shape[:-1] + (4,), dtype=complex))
        assert np.array_equal(out, x.real, equal_nan=True)
    else:
        with pytest.raises(FloatingPointError):
            forward(np.zeros(x.shape[:-1] + (4,), dtype=complex))


def _dense_forms(xi):
    """The reference contraction over both indices of the dense gamma."""
    return np.einsum("...s,lst,...t->...l", xi.conj(), transform.GAMMA, xi)


def _awkward(shape, seed, width):
    """Components with exact zeros, magnitudes from 1e-150 to 1e150 and a few
    +-inf and nan entries: complex B + (4,) for width 4, real B + (8,) for 8."""
    gen = np.random.default_rng(seed)
    parts = (gen.standard_normal((8,) + shape)
             * 10.0 ** gen.integers(-150, 151, (8,) + shape))
    parts[gen.random(parts.shape) < 0.15] = 0.0
    special = gen.random(parts.shape) < 0.02
    parts[special] = gen.choice([np.inf, -np.inf, np.nan], np.count_nonzero(special))
    parts = np.moveaxis(parts, 0, -1)
    if width == 8:
        return parts.copy()
    xi = np.empty(shape + (4,), dtype=complex)
    xi.real, xi.imag = parts[..., :4], parts[..., 4:]
    return xi


def _same_bits(a, b):
    """Equal with NaNs in the same places and zeros of the same sign."""
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])))


_SHAPES = {"point": [()] * 40, "stack": [(500,)], "nested": [(3, 4, 5)]}


@pytest.mark.parametrize("shapes", list(_SHAPES.values()), ids=list(_SHAPES))
def test_forward_equals_the_dense_contraction_bit_for_bit(shapes):
    # forward returns under errstate(all="raise") on every awkward input,
    # where the dense reference needs its flags ignored
    for seed, shape in enumerate(shapes):
        xi = _awkward(shape, seed, 4)
        with np.errstate(all="raise"):
            got = forward(xi)
        with np.errstate(all="ignore"):
            assert _same_bits(got, _dense_forms(xi).real)


@pytest.mark.parametrize("shapes", list(_SHAPES.values()), ids=list(_SHAPES))
def test_mapped_complex_x_equals_its_dense_contraction_bit_for_bit(shapes):
    conv = transform.ConventionMap((0, 2, 4, 6), (1, 3, 5, 7), (1, -1, 1, -1),
                                   (1, -1, 1, 1), (4, 0, 3, 1, 2), (1, -1, 1, 1, -1))
    for seed, shape in enumerate(shapes):
        u = _awkward(shape, seed, 8)
        with np.errstate(all="ignore"):
            want = _dense_forms(conv.xi_of(u)).real[..., list(conv.axis_perm)]
            want = np.asarray(conv.axis_sign) * want
            assert _same_bits(conv.mapped_complex_x(u), want)


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_extra_angles_on_a_stack_match_its_rows(case):
    offsets = (
        lambda m: 0.3 * np.sin(m[..., 0, 0].real - m[..., 1, 1].real),
        lambda m: 0.2 * np.cos(m[..., 2, 2].real),
        lambda m: 2.0 * np.sin(m[..., 0, 1].real),  # folds phi3 both ways
    )
    for use in (case, case.with_offsets(offsets)):
        xis = xi_stack(32, case, seed=5).reshape(4, 8, 4)
        got = extra_angles(xis, use)
        rows = [extra_angles(xi, use) for xi in xis.reshape(-1, 4)]
        assert got.shape == (3, 4, 8) and rows[0].shape == (3,)
        for k, stacked in enumerate(got):
            # np.abs of a complex array may differ from a scalar's by 1 ulp
            want = np.array([p[k] for p in rows])
            assert np.abs(stacked.ravel() - want).max() <= 1e-15
            top = math.pi if k == 2 else 2 * math.pi
            assert all(0.0 <= v <= top for v in want)


def test_extra_angles_on_a_stack_raise_on_one_degenerate_row():
    xis = xi_stack(6, seed=6)
    extra_angles(xis, CASE_A)
    xis[4, 1] = 0.0
    with pytest.raises(DegenerateFiber):
        extra_angles(xis, CASE_A)
    xis = xi_stack(6, CASE_B, seed=7)
    xis[2, 2] = 1e-13
    with pytest.raises(DegenerateFiber):
        extra_angles(xis, CASE_B)


def test_octet_basis_vector_and_origin():
    assert np.allclose(forward_octet([1, 0, 0, 0, 0, 0, 0, 0]), [1, 0, 0, 0, 0])
    assert np.allclose(forward_octet(np.zeros(8)), np.zeros(5))


def test_octet_norm_preservation():
    for _ in range(200):
        u = rng.standard_normal(8)
        r = transform._row_norms(forward_octet(u))
        assert abs(r - u @ u) < 1e-12 * (u @ u)


def test_octet_stack_equals_its_rows():
    # a generator of its own, so the module's draws for later tests stay put
    u = np.random.default_rng(41).standard_normal((300, 8))
    stack = forward_octet(u)
    r = transform._row_norms(stack)
    rows = [forward_octet(row) for row in u]
    assert stack.shape == (300, 5) and r.shape == (300,)
    assert np.array_equal(stack, rows)
    assert np.array_equal(r, [transform._row_norms(x) for x in rows])
    # and a (2, 150, 8) stack row for row
    pair = forward_octet(u.reshape(2, 150, 8))
    assert np.array_equal(pair.reshape(300, 5), stack)
    assert np.array_equal(transform._row_norms(pair).reshape(300), r)


def test_octet_third_axis_variant_breaks_norm():
    # swapping the u2 u5 term for u7 u5 (the nearest alternative reading of
    # the historical display) destroys the norm identity; this pins down
    # the coefficient choice used in forward_octet
    def variant(u):
        u1, u2, u3, u4, u5, u6, u7, u8 = u
        x = forward_octet(u)
        x[2] = 2.0 * (u1 * u6 - u7 * u5 + u3 * u8 - u4 * u7)
        return x

    bad = 0.0
    for _ in range(50):
        u = rng.standard_normal(8)
        x = variant(u)
        bad = max(bad, abs(np.linalg.norm(x) - u @ u) / (u @ u))
    assert bad > 1e-3


def test_convention_witness():
    conv = OCTET_CONVENTION
    u = rng.standard_normal((1000, 8))
    assert conv.residual(u) < 1e-12
    assert sorted(conv.axis_perm) == [0, 1, 2, 3, 4]
    assert set(conv.axis_sign) <= {-1, 1}
    # pairs cover all eight coordinates exactly once
    assert sorted(conv.re_idx + conv.im_idx) == list(range(8))


def test_extra_angles_equal_moduli_zero_phases():
    for c in (1.0, 0.3, 2.7):
        phi = extra_angles(np.array([c, c, 0, 0], dtype=complex), CASE_A)
        assert phi[0] == pytest.approx(0.0, abs=1e-15)
        assert phi[1] == pytest.approx(0.0, abs=1e-15)
        assert phi[2] == pytest.approx(math.pi / 2, abs=1e-15)


def test_extra_angles_pure_phases():
    for alpha, beta in ((0.4, 1.9), (5.0, 2.2), (3.3, 4.4)):
        xi = np.array([np.exp(1j * alpha), np.exp(1j * beta), 0.2, 0.1])
        phi = extra_angles(xi, CASE_A)
        assert phi[0] == pytest.approx((alpha + beta) % (2 * math.pi), abs=1e-12)
        assert phi[1] == pytest.approx((alpha - beta) % (2 * math.pi), abs=1e-12)


def test_extra_angles_degenerate_component():
    with pytest.raises(DegenerateFiber):
        extra_angles(np.array([1.0, 0.0, 1.0, 1.0], dtype=complex), CASE_A)
    with pytest.raises(DegenerateFiber):
        extra_angles(np.array([1.0, 1.0, 0.0, 1.0], dtype=complex), CASE_B)


def test_case_b_uses_second_pair():
    xi = np.array([0.2, 0.1, np.exp(0.7j), np.exp(0.2j)])
    phi = extra_angles(xi, CASE_B)
    assert phi[0] == pytest.approx(0.9, abs=1e-12)
    assert phi[1] == pytest.approx(0.5, abs=1e-12)


def test_offsets_shift_angles():
    xi = random_xi()
    base = extra_angles(xi, CASE_A)
    shifted = extra_angles(
        xi, CASE_A.with_offsets((lambda m: 0.3, lambda m: -0.2, lambda m: 0.1))
    )
    assert shifted[0] == pytest.approx((base[0] + 0.3) % (2 * math.pi), abs=1e-12)
    assert shifted[1] == pytest.approx((base[1] - 0.2) % (2 * math.pi), abs=1e-12)
    assert shifted[2] == pytest.approx(base[2] + 0.1, abs=1e-12)


def test_unit_phases_act_on_angles_only():
    # multiplying the angle pair by unit phases shifts phi1/phi2 by the
    # sum/difference, keeps phi3, and leaves the radius and the diagonal
    # axis untouched; the transverse components rotate within their plane
    xi = random_xi()
    base_x = forward(xi)
    base_phi = extra_angles(xi, CASE_A)
    for alpha, beta in ((0.7, 1.3), (2.9, 5.1)):
        rotated = xi.copy()
        rotated[0] *= np.exp(1j * alpha)
        rotated[1] *= np.exp(1j * beta)
        x = forward(rotated)
        phi = extra_angles(rotated, CASE_A)
        assert phi[0] == pytest.approx(
            (base_phi[0] + alpha + beta) % (2 * math.pi), abs=1e-12
        )
        assert phi[1] == pytest.approx(
            (base_phi[1] + alpha - beta) % (2 * math.pi), abs=1e-12
        )
        assert phi[2] == pytest.approx(base_phi[2], abs=1e-12)
        assert transform._row_norms(x) == pytest.approx(
            transform._row_norms(base_x), abs=1e-12)
        assert x[4] == pytest.approx(base_x[4], abs=1e-12)
        # consistency closed via the section rather than a symmetry claim
        xi2 = fiber_section(x, phi, CASE_A)
        assert np.abs(forward(xi2) - x).max() < 1e-10


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_section_round_trip(case):
    for _ in range(30):
        xi = random_xi(case)
        x = forward(xi)
        phi = extra_angles(xi, case)
        xi2 = fiber_section(x, phi, case)
        assert np.abs(forward(xi2) - x).max() < 1e-10 * transform._row_norms(x)
        phi2 = extra_angles(xi2, case)
        for a, b in ((phi[0], phi2[0]), (phi[1], phi2[1])):
            d = abs(a - b) % (2 * math.pi)
            assert min(d, 2 * math.pi - d) < 1e-10
        assert abs(phi[2] - phi2[2]) < 1e-10


def _near_axis(gen, n, t, case):
    """n base points at rho = t r from the case's singular half-axis, radii
    log-uniform in [1e-6, 1e6], and n angles with phi3 in [0.15, pi - 0.15]."""
    r = 10.0 ** gen.uniform(-6.0, 6.0, n)
    v = gen.standard_normal((n, 4))
    x = np.empty((n, 5))
    x[:, :4] = v / np.linalg.norm(v, axis=1)[:, None] * (r * math.sqrt(t * (2.0 - t)))[:, None]
    x[:, 4] = case.axis_sign * r * (t - 1.0)
    phi = np.stack([gen.uniform(0, 2 * math.pi, n), gen.uniform(0, 2 * math.pi, n),
                    gen.uniform(0.15, math.pi - 0.15, n)])
    return x, phi


_GOOD_X = [0.5, -0.6, 0.3, 0.4, 0.35]


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
@pytest.mark.parametrize("x", [[math.inf, 0.0, 0.0, 0.0, 1.0], [1e300, 1e300, 0.0, 0.0, 1.0]],
                         ids=["infinite", "overflowing"])
def test_section_names_a_non_finite_norm(x, case):
    # an infinite coordinate, or a finite point whose squared norm
    # overflows, is a ValueError naming the norm, not a point near the
    # singular half-axis; alone or as one row of a stack
    phi = np.array([0.1, 0.2, 1.0])
    for xs, angles in ((np.array(x), phi), (np.array([_GOOD_X, x]), np.stack([phi, phi], -1))):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite") as exc:
            fiber_section(xs, angles, case)
        assert type(exc.value) is ValueError


def test_section_passes_a_nan_row_through():
    phi = np.array([0.1, 0.2, 1.0])
    xi = fiber_section(np.array([[math.nan, 0.0, 0.0, 0.0, 1.0], _GOOD_X]),
                       np.stack([phi, phi], -1), CASE_A)
    assert np.isnan(xi[0]).all() and np.isfinite(xi[1]).all()


def test_section_singular_half_axis():
    with pytest.raises(SingularFiber):
        fiber_section(np.array([0, 0, 0, 0, -1.0]), np.array([0.1, 0.2, 1.0]), CASE_A)
    with pytest.raises(SingularFiber):
        fiber_section(np.array([0, 0, 0, 0, 1.0]), np.array([0.1, 0.2, 1.0]), CASE_B)
    gen = np.random.default_rng(41)
    for case in (CASE_A, CASE_B):
        # the base-point error is about 1.6e-16 r / rho: at rho = 1e-6 r it
        # would reach 1.6e-10, so the domain ends at 5e-6 r
        x, phi = _near_axis(gen, 1, 1e-6, case)
        with pytest.raises(SingularFiber):
            fiber_section(x, phi, case)
        # just inside the domain every row is within 1e-10 of its base point
        x, phi = _near_axis(gen, 20000, 1.01 * 5e-6, case)
        xi = fiber_section(x, phi, case)
        rel = np.abs(forward(xi) - x).max(axis=-1) / np.linalg.norm(x, axis=1)
        assert rel.max() < 1e-10


def test_section_reproduces_fiber_of_known_point():
    xi = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    x = forward(xi)
    phi = extra_angles(xi, CASE_A)
    xi2 = fiber_section(x, phi, CASE_A)
    assert np.abs(forward(xi2) - x).max() < 1e-12


def test_section_rejects_offset_cases():
    case = CASE_A.with_offsets((lambda m: 0.1, lambda m: 0.0, lambda m: 0.0))
    with pytest.raises(SectionFailed):
        fiber_section(np.array([0, 0, 0, 0, 1.0]), np.array([0.0, 0.0, 1.0]), case)


def test_section_from_arbitrary_base_and_angles():
    for _ in range(20):
        v = rng.standard_normal(5)
        x = v / np.linalg.norm(v) * rng.uniform(0.5, 2.0)
        if np.linalg.norm(x) + x[4] < 0.2 * np.linalg.norm(x):
            continue
        phi = np.array([
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0.2, math.pi - 0.2),
        ])
        xi = fiber_section(x, phi, CASE_A)
        assert np.abs(forward(xi) - x).max() < 1e-10 * np.linalg.norm(x)


def _section_inputs(n, case, seed):
    """n base points off the case's singular half-axis and n angles."""
    gen = np.random.default_rng(seed)
    v = gen.standard_normal((2 * n, 5))
    x = v / np.linalg.norm(v, axis=1)[:, None] * gen.uniform(0.5, 2.0, (2 * n, 1))
    r = np.linalg.norm(x, axis=1)
    x = x[r + case.axis_sign * x[:, 4] > 0.2 * r][:n]
    phi = np.stack([gen.uniform(0, 2 * math.pi, n), gen.uniform(0, 2 * math.pi, n),
                    gen.uniform(0.2, math.pi - 0.2, n)])
    return x, phi


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_section_stack_equals_its_one_point_calls(case):
    x, phi = _section_inputs(600, case, seed=31)
    stack = fiber_section(x, phi, case)
    rows = np.array([fiber_section(xr, angles, case) for xr, angles in zip(x, phi.T)])
    assert stack.shape == (600, 4)
    assert np.array_equal(stack, rows)
    # a forward stack with the angles of its own fiber points
    xi = xi_stack(500, case, seed=32)
    back = fiber_section(forward(xi), extra_angles(xi, case), case)
    rows = np.array([fiber_section(forward(z), extra_angles(z, case), case) for z in xi])
    assert np.array_equal(back, rows)


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_section_stack_raises_if_one_row_would(case):
    x, phi = _section_inputs(10, case, seed=33)
    fiber_section(x, phi, case)
    on_axis = x.copy()
    on_axis[6] = [0.0, 0.0, 0.0, 0.0, -1.0 * case.axis_sign]
    with pytest.raises(SingularFiber):
        fiber_section(on_axis, phi, case)
    # phi3 beyond pi: the section lands on other angles
    bad = phi.copy()
    bad[2, 4] = 4.0
    with pytest.raises(SectionFailed):
        fiber_section(x, bad, case)
