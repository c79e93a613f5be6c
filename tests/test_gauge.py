import tracemalloc

import numpy as np
import pytest

from hurwitz.errors import IllConditionedFrame, SingularAxis
from hurwitz.gauge import (
    CASE_B_REFLECTION,
    a_field_closed,
    a_field_numeric,
    a_tilde,
    b_functions,
    closed_form_singular,
)
from hurwitz.transform import (
    CASE_A,
    CASE_B,
    extra_angles,
    fiber_section,
    forward,
)

rng = np.random.default_rng(13)
# the step of the angle gradients
H = 1e-5


def random_xi(case=CASE_A, floor=0.2):
    while True:
        xi = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / 2.0
        ia, ib = case.pair
        if min(abs(xi[ia]), abs(xi[ib])) > floor * np.linalg.norm(xi):
            return xi


def random_x(case=CASE_A, floor=0.1):
    while True:
        v = rng.standard_normal(5)
        x = v / np.linalg.norm(v) * rng.uniform(0.5, 2.0)
        r = np.linalg.norm(x)
        if r + case.axis_sign * x[4] > floor * r:
            return x


# --- frame functions -----------------------------------------------------------

def test_frame_values_at_quarter_turn():
    # at angles (0, 0, pi/2) the swapped-frame coefficient feeding the
    # first angle derivative of the second right generator is
    # cos(phi2)/sin(phi3) = 1
    xi = np.array([1.0, 1.0, 0.5, 0.0], dtype=complex)
    bplus, bminus = b_functions(xi, CASE_A, H)
    assert np.allclose(bplus, [0.0, -1.0, 0.0], atol=1e-9)
    assert np.allclose(bminus, [0.0, 0.0, -1.0], atol=1e-9)
    parity = np.array([-1.0, -1.0, 1.0])
    beta_plus = parity * bplus
    assert beta_plus[1] == pytest.approx(1.0, abs=1e-9)


def test_frame_depends_only_on_angles():
    xi = random_xi()
    phi = extra_angles(xi, CASE_A)
    bp1, bm1 = b_functions(xi, CASE_A, H)
    x2 = random_x()
    xi2 = fiber_section(x2, phi, CASE_A)
    bp2, bm2 = b_functions(xi2, CASE_A, H)
    assert np.abs(bp1 - bp2).max() < 1e-5
    assert np.abs(bm1 - bm2).max() < 1e-5


def test_constant_offsets_do_not_change_frame():
    xi = random_xi()
    plain_p, plain_m = b_functions(xi, CASE_A, H)
    shifted_case = CASE_A.with_offsets(
        (lambda m: 0.7, lambda m: -0.4, lambda m: 0.2)
    )
    shifted_p, shifted_m = b_functions(xi, shifted_case, H)
    assert np.abs(plain_p - shifted_p).max() < 1e-9
    assert np.abs(plain_m - shifted_m).max() < 1e-9


# --- intermediate coupling -------------------------------------------------------

def test_coupling_is_real():
    a_tilde(random_xi(), CASE_A, H)  # raises if an imaginary residue appears


def test_coupling_scaling():
    xi = random_xi()
    at = a_tilde(xi, CASE_A, H)
    for c in (0.7, 1.9):
        assert np.abs(a_tilde(c * xi, CASE_A, H) - at / c**2).max() < 1e-7


def test_coupling_finite_at_reference_point():
    at = a_tilde(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex), CASE_A, H)
    assert np.all(np.isfinite(at))


# --- potential: numeric pipeline vs closed forms ---------------------------------

@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_numeric_matches_closed(case):
    worst = 0.0
    for _ in range(10):
        xi = random_xi(case)
        got = a_field_numeric(xi, case, H)
        want = a_field_closed(forward(xi), case)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-5


def test_numeric_potential_angle_independent():
    # two fiber points over one base point carry the same potential
    xi = random_xi()
    phi = extra_angles(xi, CASE_A)
    phi2 = np.array([
        (phi[0] + 0.9) % (2 * np.pi),
        (phi[1] + 1.3) % (2 * np.pi),
        0.25 * np.pi + 0.5 * phi[2],
    ])
    xi2 = fiber_section(forward(xi), phi2, CASE_A)
    A1 = a_field_numeric(xi, CASE_A, H)
    A2 = a_field_numeric(xi2, CASE_A, H)
    assert np.abs(A1 - A2).max() < 1e-4


def test_frame_determinant_guard():
    with pytest.raises(IllConditionedFrame):
        a_field_numeric(random_xi(), CASE_A, H, frame_det_eps=1e9)


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_closed_form_properties(case):
    sgn = case.axis_sign
    for _ in range(300):
        x = random_x(case, floor=0.05)
        r = np.linalg.norm(x)
        A = a_field_closed(x, case)
        assert np.abs(x @ A).max() < 1e-12
        scale = (r - sgn * x[4]) / (r * r * (r + sgn * x[4]))
        assert np.abs(A.T @ A - scale * np.eye(3)).max() < 1e-12


def test_closed_form_vanishes_at_pole():
    A = a_field_closed(np.array([0, 0, 0, 0, 2.0]), CASE_A)
    assert np.abs(A).max() == 0.0
    B = a_field_closed(np.array([0, 0, 0, 0, -2.0]), CASE_B)
    assert np.abs(B).max() == 0.0


def test_closed_form_singular_half_axis():
    with pytest.raises(SingularAxis):
        a_field_closed(np.array([0, 0, 0, 0, -1.0]), CASE_A)
    with pytest.raises(SingularAxis):
        a_field_closed(np.array([0, 0, 0, 0, 1.0]), CASE_B)
    with pytest.raises(SingularAxis):
        a_field_closed(np.zeros(5), CASE_A)


# Numerator (source coordinate, sign) per base axis lam, for each generator
# index k, case A; the x5 row is zero.
_CLOSED_PATTERNS = {
    0: ((1, 1.0), (0, -1.0), (3, -1.0), (2, 1.0)),
    1: ((3, -1.0), (2, 1.0), (1, -1.0), (0, 1.0)),
    2: ((2, 1.0), (3, 1.0), (0, -1.0), (1, -1.0)),
}


def _closed_reference(x, case):
    """The closed form one entry at a time, as a scalar loop."""
    r = float(np.linalg.norm(x))
    denom = r + case.axis_sign * x[4]
    pv = x if case.tag == "A" else CASE_B_REFLECTION * x
    A = np.zeros((5, 3))
    for k, pattern in _CLOSED_PATTERNS.items():
        for lam, (src, sgn) in enumerate(pattern):
            A[lam, k] = sgn * pv[src]
    if case.tag == "B":
        A = CASE_B_REFLECTION[:, None] * A
    return A / (r * denom)


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_closed_form_stack_matches_single_points(case):
    pts = np.array([random_x(case) for _ in range(200)])
    # coordinates on the axes, with both signs of zero, and the regular pole
    pts[:50] = rng.choice([0.0, -0.0, 0.7, -1.3], size=(50, 5))
    pts[50] = [0.0, -0.0, 0.0, -0.0, 2.0 * case.axis_sign]
    pts = pts[~closed_form_singular(pts, case)]
    stack = a_field_closed(pts, case)
    single = np.array([a_field_closed(x, case) for x in pts])
    loop = np.array([_closed_reference(x, case) for x in pts])
    assert stack.shape == (len(pts), 5, 3)
    for got in (stack, single):
        assert np.array_equal(got, loop)
        assert np.array_equal(np.signbit(got), np.signbit(loop))
    # the x5 row is +0.0 for case A and -0.0 for case B
    assert np.all(stack[:, 4] == 0.0)
    assert np.all(np.signbit(stack[:, 4]) == (case.tag == "B"))


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_closed_form_peaks_below_twice_its_output(case):
    pts = np.random.default_rng(5).standard_normal((20000, 5))
    a_field_closed(pts, case)
    tracemalloc.start()
    try:
        A = a_field_closed(pts, case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the signs multiply in place: a second array of the output's size, as
    # the product of the table and the gathered values made, reads 2.57
    assert peak < 1.8 * A.nbytes


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_closed_form_stack_with_singular_point_raises(case):
    pts = np.array([random_x(case) for _ in range(5)])
    pts[3] = [0.0, 0.0, 0.0, 0.0, -1.5 * case.axis_sign]
    assert closed_form_singular(pts, case).tolist() == [False] * 3 + [True, False]
    with pytest.raises(SingularAxis):
        a_field_closed(pts, case)


def test_case_b_is_reflected_case_a():
    P = CASE_B_REFLECTION
    for _ in range(100):
        x = random_x(CASE_B, floor=0.05)
        if np.linalg.norm(x) - abs(x[4]) < 1e-2:
            continue
        ab = a_field_closed(x, CASE_B)
        aa = a_field_closed(P * x, CASE_A)
        assert np.abs(ab - P[:, None] * aa).max() < 1e-12


def _assert_rows_close(stack, rows):
    # rtol 1e-12 of each array's scale: some entries vanish analytically
    # and carry only roundoff, which no relative bound covers
    np.testing.assert_allclose(stack, rows, rtol=1e-12,
                               atol=1e-12 * np.abs(rows).max())


@pytest.mark.parametrize("case", [CASE_A, CASE_B], ids=["A", "B"])
def test_numeric_stacks_agree_with_one_point_calls(case):
    xi = np.array([random_xi(case, floor=0.15) for _ in range(12)])
    bplus, bminus = b_functions(xi, case, H)
    A = a_field_numeric(xi, case, H)
    assert bplus.shape == bminus.shape == (12, 3)
    assert A.shape == (12, 5, 3)
    ones = [b_functions(x, case, H) for x in xi]
    _assert_rows_close(bplus, np.array([o[0] for o in ones]))
    _assert_rows_close(bminus, np.array([o[1] for o in ones]))
    _assert_rows_close(A, np.array([a_field_numeric(x, case, H) for x in xi]))


def test_frame_determinant_guard_on_a_stack():
    xi = np.array([random_xi() for _ in range(4)])
    with pytest.raises(IllConditionedFrame):
        a_field_numeric(xi, CASE_A, H, frame_det_eps=1e9)
