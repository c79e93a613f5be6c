import math

import numpy as np
import pytest

from hurwitz import harness, opcalc, separation
from hurwitz.gauge import a_field_closed
from hurwitz.harness import SuiteConfig, _result
from hurwitz.opcalc import (
    EULER_OPS,
    _stencil,
    apply_euler_op,
    casimir,
    coupled_q,
    momentum,
)
from hurwitz.separation import (
    _continuant,
    _null_vector,
    angular_factor,
    axis_solution,
    build_h,
    consistency_residual,
    det_bisection_roots,
    effective_terms,
    ladder_apply,
    potential_columns,
    resolve_branch,
    separation_roots,
    wigner,
    wigner_d,
    wigner_d_prime,
)
from hurwitz.transform import CASE_A, CASE_B, _row_norms

rng = np.random.default_rng(17)
# the steps the operators run at: the consistency residual's (second
# order and nested) and the generators' in the eigenrelation tests
H2, H3 = 1e-4, 1e-3


def random_angles(margin=0.3):
    return np.array([
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, 2 * math.pi),
        rng.uniform(margin, math.pi - margin),
    ])


def random_column():
    a = rng.uniform(-1.2, 1.2, 3)
    return (float(a[0]), 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))


def random_x(case=CASE_A, floor=0.15, rmin=0.8, rmax=2.0):
    while True:
        v = rng.standard_normal(5)
        x = v / np.linalg.norm(v) * rng.uniform(rmin, rmax)
        r = np.linalg.norm(x)
        if r + case.axis_sign * x[4] > floor * r:
            return x


# --- angular basis ---------------------------------------------------------------

def test_spin_zero_is_constant():
    for _ in range(5):
        assert wigner(0, 0, 0, random_angles()) == pytest.approx(1.0)


def test_small_d_against_spin_one_table():
    b = 0.9
    table = {
        (1, 1): (1 + math.cos(b)) / 2,
        (1, 0): -math.sin(b) / math.sqrt(2),
        (1, -1): (1 - math.cos(b)) / 2,
        (0, 1): math.sin(b) / math.sqrt(2),
        (0, 0): math.cos(b),
        (0, -1): -math.sin(b) / math.sqrt(2),
        (-1, 1): (1 - math.cos(b)) / 2,
        (-1, 0): math.sin(b) / math.sqrt(2),
        (-1, -1): (1 + math.cos(b)) / 2,
    }
    for (q, p), val in table.items():
        assert wigner_d(1, q, p, b) == pytest.approx(val, abs=1e-14)


def test_small_d_derivative_matches_differencing():
    for J in (1, 2, 3):
        for _ in range(5):
            q = int(rng.integers(-J, J + 1))
            p = int(rng.integers(-J, J + 1))
            b = rng.uniform(0.2, math.pi - 0.2)
            fd = (wigner_d(J, q, p, b + 1e-6) - wigner_d(J, q, p, b - 1e-6)) / 2e-6
            assert wigner_d_prime(J, q, p, b) == pytest.approx(fd, abs=1e-8)


def _factorial_terms(J, q, p):
    # the closed factorial sum, spelled out term by term
    f = math.factorial
    pref = math.sqrt(f(J + q) * f(J - q) * f(J + p) * f(J - p))
    terms = []
    for k in range(max(0, p - q), min(J + p, J - q) + 1):
        denom = f(J + p - k) * f(k) * f(q - p + k) * f(J - q - k)
        terms.append(((-1.0) ** (q - p + k) / denom, 2 * J + p - q - 2 * k, q - p + 2 * k))
    return pref, terms


# The references run on numpy arrays, as the library does: Python's float
# power (libm pow) rounds unlike numpy's array power in a few percent of
# c ** a for a >= 3, so a float reference would not be bit-comparable.

def _d_reference(J, q, p, betas):
    pref, terms = _factorial_terms(J, q, p)
    c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
    total = 0.0
    for coef, a, b in terms:
        total += coef * c ** a * s ** b
    return pref * total


def _d_prime_reference(J, q, p, betas):
    pref, terms = _factorial_terms(J, q, p)
    c, s = np.cos(betas / 2.0), np.sin(betas / 2.0)
    total = np.zeros_like(betas)
    for coef, a, b in terms:
        term = 0.0
        if a > 0:
            term -= 0.5 * a * c ** (a - 1) * s ** (b + 1)
        if b > 0:
            term += 0.5 * b * c ** (a + 1) * s ** (b - 1)
        total += coef * term
    return pref * total


def test_small_d_table_matches_factorial_formula_exactly():
    betas = np.linspace(0.0, math.pi, 40)
    for J in range(4):
        for q in range(-J, J + 1):
            for p in range(-J, J + 1):
                ref = _d_reference(J, q, p, betas)
                ref_prime = _d_prime_reference(J, q, p, betas)
                for b, want, want_prime in zip(betas, ref, ref_prime):
                    assert wigner_d(J, q, p, float(b)) == want
                    assert wigner_d_prime(J, q, p, float(b)) == want_prime


def test_small_d_rejects_bad_spins_on_every_call():
    for _ in range(2):
        for args in ((4, 0, 0), (1, 2, 0), (1, 0, -2), (-1, 0, 0)):
            with pytest.raises(ValueError):
                wigner_d(*args, 0.5)
            with pytest.raises(ValueError):
                wigner_d_prime(*args, 0.5)


def test_eigenrelations_by_differencing():
    for J in (1, 2):
        for q in range(-J, J + 1):
            for p in range(-J, J + 1):
                f = lambda ph: wigner(J, q, p, ph)
                phi = random_angles()
                v = f(phi)
                assert abs(apply_euler_op("Q1", f, phi, H3) - q * v) < 1e-6
                assert abs(apply_euler_op("T1", f, phi, H3) - p * v) < 1e-6


def test_ladder_relations_analytic():
    worst = 0.0
    for J in (0, 1, 2):
        for q in range(-J, J + 1):
            for p in range(-J, J + 1):
                for sign in (1, -1):
                    phi = random_angles(margin=0.15)
                    lhs = ladder_apply(sign, J, q, p, phi)
                    if abs(q + sign) <= J:
                        coef = math.sqrt((J - sign * q) * (J + sign * q + 1))
                        rhs = coef * wigner(J, q + sign, p, phi)
                    else:
                        rhs = 0.0
                    worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_ladder_annihilates_extremes():
    for J in (1, 2):
        phi = random_angles()
        assert abs(ladder_apply(1, J, J, 0, phi)) < 1e-12
        assert abs(ladder_apply(-1, J, -J, 1 if J > 0 else 0, phi)) < 1e-12


def per_q_basis(J, qs, p, phi):
    """The basis with one complex exponential per q: the reference for the
    conjugate-paired phases."""
    shape = np.broadcast(*phi).shape
    phi1, phi2, phi3 = np.atleast_1d(*phi)
    c, s = np.cos(phi3 / 2.0), np.sin(phi3 / 2.0)
    e1 = np.exp(1j * p * phi1)
    return [(np.exp(1j * q * phi2) * separation._d_value(J, q, p, c, s) * e1).reshape(shape)[()]
            for q in qs]


def stencil_angles(phi, nested):
    """The angles an operator's field meets around ``phi``: the 12-point
    first-order stencil, or the 144-point nested one."""
    seen = []

    def field(ang):
        seen.append(ang)
        return np.zeros(ang.shape[1:])

    if nested:
        casimir("Q", field, phi, H3)
    else:
        apply_euler_op("Q1", field, phi, H3)
    return seen[0]


CONJUGATE_ANGLES = {
    "phi2_zero": np.array([1.3, 0.0, 0.8]),
    # phi2 = 0 displaced by -2h, as a stencil displaces it
    "phi2_negative": np.array([1.3, 0.0 + (-2.0 * H2), 0.8]),
    "phi2_below_two_pi": np.array([1.3, 2 * math.pi - 1e-12, 0.8]),
    "stencil_12": stencil_angles(np.array([[0.4, 5.9], [0.0, 3.1], [0.7, 2.2]]),
                                 nested=False),
    "stencil_144": stencil_angles(np.array([[0.4, 5.9], [0.0, 3.1], [0.7, 2.2]]),
                                  nested=True),
}


def assert_same_bits(got, want):
    got = np.ascontiguousarray(np.atleast_1d(got)).view(float)
    want = np.ascontiguousarray(np.atleast_1d(want)).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("at", list(CONJUGATE_ANGLES))
def test_conjugate_paired_basis_equals_one_exponential_per_q_bit_for_bit(at):
    phi = CONJUGATE_ANGLES[at]
    phi2 = np.atleast_1d(phi[1])
    for q in range(1, 4):
        # the assumption the pairing rests on: the complex exponential's
        # sine is odd and its cosine even, to the bit
        assert_same_bits(np.conj(np.exp(1j * -q * phi2)), np.exp(1j * q * phi2))
    for J in range(1, 4):
        qs = range(-J, J + 1)
        for p in qs:
            for got, want in zip(separation._basis(J, qs, p, phi), per_q_basis(J, qs, p, phi)):
                assert_same_bits(got, want)


# --- tridiagonal coupling matrix ---------------------------------------------------

def test_potential_column_split():
    A = np.zeros((5, 3))
    A[0] = [0.3, 0.4, -0.5]
    a1, ap, am = [c[0] for c in potential_columns(A)]
    assert a1 == pytest.approx(0.3)
    assert ap == pytest.approx(0.2 + 0.25j)
    assert am == pytest.approx(0.2 - 0.25j)


def test_spin_one_matrix_layout():
    a1, ap, am = 0.7, 0.2 - 0.1j, 0.2 + 0.1j
    h = build_h(1, (a1, ap, am), 0.3)
    s2 = math.sqrt(2.0)
    want = np.array(
        [
            [-0.3 - a1, s2 * am, 0],
            [s2 * ap, -0.3, s2 * am],
            [0, s2 * ap, -0.3 + a1],
        ]
    )
    assert np.abs(h - want).max() < 1e-15


def test_spin_zero_matrix():
    h = build_h(0, (0.4, 0.1 + 0.2j, 0.1 - 0.2j), 0.9)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-0.9)


def test_diagonal_collapse_without_ladder_terms():
    h = build_h(2, (0.5, 0.0, 0.0), 0.1)
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() == 0.0
    assert np.allclose(np.diag(h), [-0.1 + m * 0.5 for m in (-2, -1, 0, 1, 2)])


def test_spin_one_root_factorization():
    for _ in range(20):
        col = random_column()
        s = math.sqrt(
            col[0] ** 2
            + (col[1] + col[2]).real ** 2
            + (1j * (col[1] - col[2])).real ** 2
        )
        roots = separation_roots(1, col)
        assert np.abs(roots - np.array([-s, 0.0, s])).max() < 1e-12


def test_roots_are_ladder_multiples_and_symmetric():
    for J in range(4):
        col = random_column()
        s = math.sqrt(
            col[0] ** 2
            + (col[1] + col[2]).real ** 2
            + (1j * (col[1] - col[2])).real ** 2
        )
        roots = separation_roots(J, col)
        assert np.abs(roots - s * np.arange(-J, J + 1)).max() < 1e-10
        assert np.abs(roots + roots[::-1]).max() < 1e-10


@pytest.mark.parametrize("J", [0, 1, 2, 3])
def test_build_h_stack_matches_per_a_loop(J):
    col = random_column()
    grid = np.linspace(-2.0, 2.0, 101)
    stack = build_h(J, col, grid)
    loop = np.array([build_h(J, col, a) for a in grid])
    assert stack.shape == (101, 2 * J + 1, 2 * J + 1)
    assert np.array_equal(stack, loop)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(stack)), np.signbit(part(loop)))
    # a column stack, at one a and at one a per column, against its columns;
    # a generator of its own, so the module's draws for later tests stay put
    a = np.random.default_rng(31 + J).uniform(-1.2, 1.2, (7, 3))
    cols = [(float(a1), 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)) for a1, a2, a3 in a]
    cols += [(0.0, 0j, 0j), (-0.5, 0j, 0j)]
    stacked_cols = tuple(map(np.array, zip(*cols)))
    grid = np.linspace(-1.0, 1.0, len(cols))
    for at, per_col in ((0.0, [0.0] * len(cols)), (grid, grid)):
        stack = build_h(J, stacked_cols, at)
        loop = np.array([build_h(J, col, ai) for col, ai in zip(cols, per_col)])
        assert stack.shape == (len(cols), 2 * J + 1, 2 * J + 1)
        assert np.array_equal(stack, loop)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(stack)), np.signbit(part(loop)))


def _diagonals(J, col):
    """The diagonal and the coupling products h_{k,k-1} h_{k-1,k} of h(0)."""
    h0 = build_h(J, col, 0.0)
    return np.diagonal(h0), np.diagonal(h0, -1) * np.diagonal(h0, 1)


def _scan_grid(J, col):
    a1, ap, am = col
    s = math.sqrt(a1 * a1 + abs(ap + am) ** 2 + abs(1j * (ap - am)) ** 2)
    span = max(1.0, (J + 1.0) * s)
    return np.linspace(-span, span, 4001)


@pytest.mark.parametrize("J", [0, 1, 2, 3])
def test_stacked_det_matches_per_matrix_det(J):
    # the full 4001-point scan grid of det_bisection_roots, as one stack and
    # one one-element array at a time
    col = random_column()
    diag, couple = _diagonals(J, col)
    grid = _scan_grid(J, col)
    stacked = _continuant(diag, couple, grid)
    per_point = np.array([_continuant(diag, couple, np.array([a]))[0] for a in grid])
    assert np.array_equal(stacked, per_point)


@pytest.mark.parametrize("J", [0, 1, 2, 3])
def test_continuant_matches_lu_determinant(J):
    draws = np.random.default_rng(41 + J).uniform(-1.2, 1.2, (8, 3))
    cols = [(float(a1), 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3))
            for a1, a2, a3 in draws]
    for col in cols:
        grid = _scan_grid(J, col)
        lu = np.linalg.det(build_h(J, col, grid)).real
        rec = _continuant(*_diagonals(J, col), grid)
        assert np.abs(rec - lu).max() <= 1e-12 * np.abs(lu).max()
    # diagonal columns: both determinants vanish on the same grid points
    for a1 in (0.0, 0.25, 1.1):
        col = (a1, 0j, 0j)
        grid = _scan_grid(J, col)
        lu = np.linalg.det(build_h(J, col, grid)).real
        rec = _continuant(*_diagonals(J, col), grid)
        assert np.array_equal(rec == 0.0, lu == 0.0)


def _scalar_bisection_roots(J, col):
    """The one-bracket-at-a-time bisection that det_bisection_roots batches:
    the column's grid is scanned in one recurrence call (a stack equals its
    one-element calls, tests/test_array_path.py), and each midpoint goes to
    the recurrence as a one-element array."""
    diag, couple = _diagonals(J, col)
    det = lambda a: _continuant(diag, couple, np.array([a]))[0]
    grid_a = _scan_grid(J, col)
    dets = _continuant(diag, couple, grid_a)
    roots = []
    for i in range(len(grid_a) - 1):
        d0, d1 = dets[i], dets[i + 1]
        if d0 == 0.0:
            roots.append(grid_a[i])
            continue
        if d0 * d1 < 0.0:
            lo, hi, flo = grid_a[i], grid_a[i + 1], d0
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                fm = det(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if dets[-1] == 0.0:
        roots.append(grid_a[-1])
    return np.array(sorted(roots))


def test_batched_bisection_equals_scalar_bisection():
    grid = np.linspace(-1.0, 1.0, 4001)
    # a generator of its own, so the module's draws for later tests stay put
    a = np.random.default_rng(29).uniform(-1.2, 1.2, (48, 3))
    cols = [
        (i % 4, (float(a1), 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)))
        for i, (a1, a2, a3) in enumerate(a)
    ]
    # the first eight again, 15 times wider: spans from 1 to about 85 in one
    # stack, so its brackets close up to six steps apart
    cols += [(J, (15.0 * a1, 15.0 * ap, 15.0 * am)) for J, (a1, ap, am) in cols[:8]]
    # diagonal columns: roots on grid points (exact zeros of the scan) and,
    # for the last one, at the first midpoint of grid cell 2100, where a
    # bracket closes on an exact zero
    cols += [(J, (a1, 0j, 0j)) for J in range(4) for a1 in (0.0, 0.25, 1.1)]
    cols.append((1, (float(0.5 * (grid[2100] + grid[2101])), 0j, 0j)))
    wants = [_scalar_bisection_roots(J, col) for J, col in cols]
    for (J, col), want in zip(cols, wants):
        got = det_bisection_roots(J, col)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (J, col)
    # each spin's columns as one stack: one bisection loop over all brackets
    for J in range(4):
        spin = [(col, want) for (j, col), want in zip(cols, wants) if j == J]
        got = det_bisection_roots(J, tuple(map(np.array, zip(*(c for c, _ in spin)))))
        assert len(got) == len(spin)
        for roots, (col, want) in zip(got, spin):
            assert roots.dtype == want.dtype
            assert np.array_equal(roots, want), (J, col)


@pytest.mark.parametrize("J", [0, 1, 2, 3])
def test_separation_roots_stack_equals_its_rows(J):
    a = np.random.default_rng(37 + J).uniform(-1.2, 1.2, (30, 3))
    cols = [(float(a1), 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)) for a1, a2, a3 in a]
    cols.append((0.7, 0j, 0j))
    stack = separation_roots(J, tuple(map(np.array, zip(*cols))))
    assert stack.shape == (len(cols), 2 * J + 1)
    assert np.array_equal(stack, [separation_roots(J, col) for col in cols])


def test_bisection_oracle_calls_no_linear_algebra_routine(monkeypatch):
    a = np.random.default_rng(43).uniform(-1.2, 1.2, (3, 3))
    cols = [(float(a1), 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)) for a1, a2, a3 in a]
    want = [separation_roots(3, col) for col in cols]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called numpy.linalg")

    for name in ("det", "eig", "eigh", "eigvals", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = det_bisection_roots(3, tuple(map(np.array, zip(*cols))))
    assert all(np.abs(g - w).max() < 1e-10 for g, w in zip(got, want))


@pytest.mark.parametrize("J", [2, 3])
def test_bisection_oracle_agrees_with_eigensolver(J):
    for _ in range(5):
        col = random_column()
        eig = separation_roots(J, col)
        bis = det_bisection_roots(J, col)
        assert len(bis) == 2 * J + 1
        assert np.abs(eig - bis).max() < 1e-10


def test_null_vector_diagonal_case():
    g = _null_vector(1, (0.5, 0.0, 0.0), 0.5)
    # root +A1 pins the top ladder component (last in ascending order)
    assert np.allclose(g, [0, 0, 1])
    g = _null_vector(1, (0.5, 0.0, 0.0), -0.5)
    assert np.allclose(g, [1, 0, 0])


def test_null_vector_residuals():
    for _ in range(50):
        J = int(rng.integers(0, 4))
        col = random_column()
        roots = separation_roots(J, col)
        root = float(roots[int(rng.integers(0, 2 * J + 1))])
        g = _null_vector(J, col, root)
        assert np.linalg.norm(build_h(J, col, root) @ g) < 1e-10
        assert np.linalg.norm(g) == pytest.approx(1.0)


def test_spin_zero_coefficients():
    assert np.allclose(_null_vector(0, (0.3, 0.1, 0.1), -0.0), [1.0])


def test_degenerate_root_returns_first_null_vector():
    # a vanishing column makes every vector null
    col = (0.0, 0.0, 0.0)
    g = _null_vector(1, col, 0.0)
    assert g.shape == (3,)
    assert np.linalg.norm(g) == pytest.approx(1.0)
    assert np.linalg.norm(build_h(1, col, 0.0) @ g) < 1e-12


def test_not_a_root_raises():
    with pytest.raises(ValueError):
        _null_vector(1, (0.5, 0.0, 0.0), 0.123)


# --- per-axis solutions on the closed potential --------------------------------------

def test_angular_factor_eigenrelations():
    x = random_x()
    A = a_field_closed(x, CASE_A)
    for J in (1, 2):
        _, root, g = axis_solution(J, A, "m=1")
        for lam in (0, 2, 4):
            G = lambda ph: angular_factor(J, 0, g[lam], ph)
            for _ in range(2):
                phi = random_angles()
                gv = G(phi)
                coupled = sum(
                    A[lam, k] * apply_euler_op(f"Q{k + 1}", G, phi, H3)
                    for k in range(3)
                )
                assert abs(coupled - root[lam] * gv) < 1e-4
                qsq = sum(
                    apply_euler_op(
                        f"Q{k}",
                        lambda pp: apply_euler_op(f"Q{k}", G, pp, H3),
                        phi,
                        H3,
                    )
                    for k in (1, 2, 3)
                )
                assert abs(qsq - J * (J + 1) * gv) < 1e-4


def test_plane_wave_index_preserved():
    x = random_x()
    A = a_field_closed(x, CASE_A)
    _, _, g = axis_solution(1, A, "alternating")
    for p in (-1, 0, 1):
        phi = random_angles()
        G = lambda ph: angular_factor(1, p, g[1], ph)
        assert abs(apply_euler_op("T1", G, phi, H3) - p * G(phi)) < 1e-6


def test_spin_zero_angular_factor_constant():
    x = random_x()
    A = a_field_closed(x, CASE_A)
    _, _, g = axis_solution(0, A, "alternating")
    vals = [angular_factor(0, 0, g[0], random_angles()) for _ in range(4)]
    assert np.abs(np.diff(vals)).max() < 1e-14


@pytest.mark.parametrize("J", range(4))
def test_angular_factor_equals_its_wigner_sum_exactly(J):
    # one basis evaluation shared by every q rounds as 2J+1 wigner calls do
    gen = np.random.default_rng(40 + J)
    lo, hi = [0.0, 0.0, 0.3], [2 * math.pi, 2 * math.pi, math.pi - 0.3]
    n = 2 * J + 1
    cases = [
        (gen.uniform(lo, hi),
         gen.standard_normal(n) + 1j * gen.standard_normal(n)),
        # angles (k, 1) against one coefficient vector per sample (m,)
        (gen.uniform(lo, hi, (4, 3)).T[:, :, None],
         gen.standard_normal((n, 3)) + 1j * gen.standard_normal((n, 3))),
    ]
    for p in range(-J, J + 1):
        for phi, g in cases:
            want = sum(g[i] * wigner(J, i - J, p, phi) for i in range(n))
            got = angular_factor(J, p, g, phi)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


# --- effective per-axis terms -----------------------------------------------------

def test_effective_terms_at_pole():
    a, cent = effective_terms(1, np.array([0, 0, 0, 0, 1.5]), CASE_A, "alternating")
    assert np.abs(a).max() == 0.0
    assert cent == pytest.approx(1.0 / 1.5**2)


def test_effective_terms_alternating_pattern():
    x = random_x()
    r = np.linalg.norm(x)
    a, cent = effective_terms(1, x, CASE_A, "alternating")
    denom = r * (r + x[4])
    assert a[1] == pytest.approx(
        math.sqrt(x[0] ** 2 + x[2] ** 2 + x[3] ** 2) / denom, rel=1e-12
    )
    assert a[0] == pytest.approx(
        -math.sqrt(x[1] ** 2 + x[2] ** 2 + x[3] ** 2) / denom, rel=1e-12
    )
    assert a[4] == 0.0
    signs = np.sign(a[:4])
    assert list(signs) == [-1, 1, -1, 1]


def test_effective_terms_spin_zero():
    x = random_x()
    a, cent = effective_terms(0, x, CASE_A, "alternating")
    assert np.abs(a).max() == 0.0
    assert cent == 0.0


def test_branch_selectors():
    sel = resolve_branch("alternating")
    assert [sel(2, lam) for lam in range(5)] == [-2, 2, -2, 2, 0]
    sel = resolve_branch("m=-1")
    assert sel(3, 0) == -1
    with pytest.raises(ValueError):
        resolve_branch("nope")


# --- operator-level separation consistency ------------------------------------------

def test_consistency_spin_zero():
    psi = lambda y: np.exp(-np.linalg.norm(y, axis=-1))
    for case in (CASE_A, CASE_B):
        x = random_x(case)
        res = consistency_residual(0, 0, psi, x, case, "alternating", H2)
        assert res < 1e-4


def test_consistency_spin_one():
    psi = lambda y: np.exp(-np.linalg.norm(y, axis=-1))
    for case in (CASE_A, CASE_B):
        for _ in range(2):
            x = random_x(case)
            res = consistency_residual(1, 0, psi, x, case, "alternating", H2)
            assert res < 1e-3


def test_consistency_zero_field():
    x = random_x()
    res = consistency_residual(1, 0, lambda y: 0.0, x, CASE_A, "alternating", H2)
    assert res == 0.0


def test_consistency_shrinks_under_refinement():
    psi = lambda y: np.exp(-np.linalg.norm(y, axis=-1))
    x = np.array([0.5, -0.6, 0.3, 0.4, 0.35])
    res = [
        consistency_residual(
            1, 0, psi, x, CASE_A, "alternating",
            h, n_angles=2,
        )
        for h in (0.04, 0.02)
    ]
    assert res[1] < 0.5 * res[0]


def test_consistency_nan_field_fails():
    # a NaN residual must survive the worst-of and fail the check
    x = random_x()
    res = consistency_residual(
        1, 0, lambda y: float("nan"), x, CASE_A, "alternating", H2, n_angles=2
    )
    assert math.isnan(res)
    rec = _result(SuiteConfig(), "separation_consistency_J1", "-", 1, res, 1e-3)
    assert not rec.passed


def test_consistency_null_vectors_are_one_stack_of_the_axis_solves():
    # the five axes' columns (5, m) in one solve, row lam bit for bit that
    # axis's own (m,) solve
    x = np.array([[0.5, -0.6, 0.3, 0.4, 0.35], [-0.7, 0.2, 0.9, -0.1, 0.4]])
    for J in range(4):
        a_vec, _ = effective_terms(J, x, CASE_A, "alternating")
        cols = potential_columns(a_field_closed(x, CASE_A))
        stack = _null_vector(J, cols, -a_vec.T)
        for lam in range(5):
            row = _null_vector(J, [c[lam] for c in cols], -a_vec[:, lam])
            assert np.array_equal(stack[lam], row)


def test_consistency_evaluates_the_basis_once_per_angle_stack(monkeypatch):
    # the drawn angles, their 12-point stencil and the 144-point nested
    # stencil: three evaluations shared by the five axes and every operator;
    # the angles (n, 1, 1) meet the five axes' arrays over the points (5, m)
    shapes = []
    basis = separation._basis

    def counted(J, qs, p, phi):
        shapes.append(phi.shape[1:])
        return basis(J, qs, p, phi)

    monkeypatch.setattr(separation, "_basis", counted)
    psi = lambda y: np.exp(-np.linalg.norm(y, axis=-1))
    x = np.array([[0.5, -0.6, 0.3, 0.4, 0.35], [-0.7, 0.2, 0.9, -0.1, 0.4]])
    res = consistency_residual(1, 0, psi, x, CASE_A, "alternating", H2)
    assert np.all(res < 1e-3)
    assert sorted(shapes, key=len) == [(4, 1, 1), (3, 4, 4, 1, 1), (3, 4, 3, 4, 4, 1, 1)]


# --- consistency_residual: the five axes in one pass ---------------------------------

def consistency_per_axis(J, p, test_psi, x, case, branch, h, n_angles=4):
    """The consistency residual with one momentum, Casimir and reduced-operator
    evaluation per axis, each axis with its own angular factor: the
    reference that the five-axis evaluation must equal bit for bit."""
    xv = np.atleast_2d(np.asarray(x, dtype=float))
    r0 = _row_norms(xv)
    a_vec, centrifugal = effective_terms(J, xv, case, branch)
    drawn = np.random.default_rng(7).uniform(
        [0.0, 0.0, 0.5], [2 * math.pi, 2 * math.pi, math.pi - 0.5], (n_angles, 3))
    angles = drawn.T[:, :, None]
    omega = 1.0
    coulomb = 2.0 * omega / r0 - 0.5 * omega * omega
    potential = lambda ys: a_field_closed(ys, case)
    A0 = potential(xv)
    psi0 = test_psi(xv)
    gs = _null_vector(J, potential_columns(A0), -a_vec.T)
    residuals = []
    for lam in range(5):
        e = np.eye(5)[lam]
        g = gs[lam].T
        G = lambda ang: separation._weighted(g, separation._basis(J, range(-J, J + 1), p, ang))

        def inner(ys, ang):
            images = apply_euler_op(EULER_OPS, G, ang, h)
            q = coupled_q(potential(ys)[..., lam, :], images)
            dpsi_ys = _stencil(test_psi, ys, e, h)
            return -1j * (dpsi_ys * G(ang)) + test_psi(ys) * q

        outer = momentum(lam, inner, potential(xv), xv, angles, h)
        qsq = casimir("Q", G, angles, h)
        g0 = G(angles)
        a_at = lambda y: separation._branch_roots(J, potential(y), branch)[..., lam]

        def chi(y):
            return -1j * _stencil(test_psi, y, e, h) - a_at(y) * test_psi(y)

        reduced = -1j * _stencil(chi, xv, e, h) - a_at(xv) * chi(xv)
        lhs = 0.5 * outer + (qsq / (2.0 * r0 * r0) - coulomb * g0) * psi0 / 5.0
        rhs = g0 * (0.5 * reduced + (centrifugal - coulomb) * psi0 / 5.0)
        residuals.append(np.abs(lhs - rhs))
    worst = np.max(residuals, axis=(0, 1), initial=0.0)
    return float(worst[0]) if np.ndim(x) == 1 else worst


CONSISTENCY_XS = np.array([[0.5, -0.6, 0.3, 0.4, 0.35], [-0.7, 0.2, 0.9, -0.1, 0.4],
                           [1.1, 0.4, -0.3, 0.6, -0.2]])


@pytest.mark.parametrize("J, p", [(J, p) for J in range(4) for p in sorted({-J, 0, J})])
def test_consistency_equals_the_per_axis_loop_bit_for_bit(J, p):
    # a radial field of either kind per point, one kind for the one point
    kinds = np.array([0, 1, 0])
    psis = {"stack": harness._radial_field(kinds), "point": harness._radial_field(1),
            "constant": lambda y: 0.7}
    # every branch with both angle counts, the three inputs in turn
    pairs = [(b, n) for b in ("alternating", "m=1", "m=-2") for n in (2, 4)]
    for k, (branch, n_angles) in enumerate(pairs):
        name = ("stack", "point", "constant")[k % 3]
        x = CONSISTENCY_XS[1] if name == "point" else CONSISTENCY_XS
        args = (J, p, psis[name], x, CASE_A if k % 2 else CASE_B, branch, H2)
        got = consistency_residual(*args, n_angles=n_angles)
        want = consistency_per_axis(*args, n_angles=n_angles)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, branch)


def test_consistency_evaluates_each_table_once_per_stack(monkeypatch):
    # the generator coefficients, one table per angle stack: the drawn
    # angles' (the angular factors' images there, the outer images of the
    # five-axis inner field and of the stencil's images, the Casimir's
    # nested pair) and their stencil's, twenty-five with one pass per axis
    # and four with one table per image; the closed form: once at the points (the branch
    # roots, the null vectors' columns and the rows of the inner field and
    # the outer momentum there), the inner field at the outer x-stencil and
    # the reduced operator's stencil, thirty-one with one pass per axis
    coefficients, closed = [], []
    real_coefficients, real_closed = opcalc._coefficients, separation.a_field_closed

    def counted_coefficients(phi):
        coefficients.append(phi.shape[1:])
        return real_coefficients(phi)

    def counted_closed(x, case):
        closed.append(np.shape(x))
        return real_closed(x, case)

    monkeypatch.setattr(opcalc, "_coefficients", counted_coefficients)
    monkeypatch.setattr(separation, "a_field_closed", counted_closed)
    res = consistency_residual(1, 0, harness._radial_field(0), CONSISTENCY_XS, CASE_A,
                               "alternating", H2)
    assert np.all(res < 1e-3)
    assert sorted(coefficients, key=len) == [(4, 1, 1), (3, 4, 4, 1, 1)]
    assert closed == [(3, 5), (4, 1, 5, 3, 5), (4, 5, 3, 5)]
