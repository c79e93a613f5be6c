"""Every public primitive has one array path: row i of a stack equals the
one-row call and the one-point call on that row, bit for bit.  A
structural guard keeps the scalar branches from coming back."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import gauge, harness, opcalc, separation, transform
from hurwitz.opcalc import DiffStrategy, OscillatorParams
from hurwitz.transform import CASE_A, CASE_B, EulerAngles

D = DiffStrategy()
SRC = pathlib.Path(harness.__file__).parent


def _angles(rng, n, margin=0.3):
    return (rng.uniform(0.0, 2 * math.pi, n), rng.uniform(0.0, 2 * math.pi, n),
            rng.uniform(margin, math.pi - margin, n))


def _xi(rng, n, case, eps=0.15):
    return np.array([harness.sample_xi(rng, case, eps) for _ in range(n)])


def _spin(rng):
    J = int(rng.integers(0, separation.J_CAP + 1))
    return J, int(rng.integers(-J, J + 1)), int(rng.integers(-J, J + 1))


# Each entry draws the inputs of n samples and returns (call, axis): call(sel)
# evaluates the primitive on the inputs indexed by ``sel`` (a slice for a
# stack or one row, an int for one point) and gives its output arrays, whose
# sample axis is ``axis``.

def _forward(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: tuple(vars(transform.forward(xi[s])).values()), 0


def _extra_angles(rng, n, case):
    xi = _xi(rng, n, case)
    off = case.with_offsets(harness._TEST_OFFSETS)
    return lambda s: (*vars(transform.extra_angles(xi[s], case)).values(),
                      *vars(transform.extra_angles(xi[s], off)).values()), 0


def _invariant_products(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (transform.invariant_products(xi[s]),), 0


def _fiber_section(rng, n, case):
    x = harness.sample_x(rng, case, 0.1, size=n)
    phi = _angles(rng, n, margin=0.15)
    return lambda s: (transform.fiber_section(
        x[s], EulerAngles(*(c[s] for c in phi)), case),), 0


def _a_field_closed(rng, n, case):
    x = harness.sample_x(rng, case, 0.05, size=n)
    return lambda s: (gauge.a_field_closed(x[s], case).A,), 0


def _a_field_numeric(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (gauge.a_field_numeric(xi[s], case, D).A,), 0


def _a_tilde(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (gauge.a_tilde(xi[s], case, D),), 0


def _b_functions(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: tuple(vars(gauge.b_functions(xi[s], case, D)).values()), 0


def _wigner_d(rng, n, case):
    (J, q, p), beta = _spin(rng), rng.uniform(0.0, math.pi, n)
    return lambda s: (separation.wigner_d(J, q, p, beta[s]),
                      separation.wigner_d_prime(J, q, p, beta[s])), 0


def _ladder_apply(rng, n, case):
    (J, q, p), phi = _spin(rng), _angles(rng, n)
    sign = int(rng.choice([-1, 1]))
    return lambda s: (separation.ladder_apply(
        sign, J, q, p, EulerAngles(*(c[s] for c in phi))),), 0


def _build_h(rng, n, case):
    J = int(rng.integers(0, separation.J_CAP + 1))
    a = rng.uniform(-1.2, 1.2, (4, n))
    col = (a[0], 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))
    return lambda s: (separation.build_h(J, tuple(c[s] for c in col), a[3][s]),), 0


def _column(rng, n):
    a = rng.uniform(-1.2, 1.2, (3, n))
    return (a[0], 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))


def _separation_roots(rng, n, case):
    J, col = int(rng.integers(0, separation.J_CAP + 1)), _column(rng, n)
    return lambda s: (separation.separation_roots(J, tuple(c[s] for c in col)),), 0


def _null_vector(rng, n, case):
    """One root per column, a random rung of each column's ladder."""
    J, col = int(rng.integers(0, separation.J_CAP + 1)), _column(rng, n)
    roots = separation.separation_roots(J, col)
    root = roots[np.arange(n), rng.integers(0, 2 * J + 1, n)]
    return lambda s: (separation._null_vector(J, tuple(c[s] for c in col), root[s]),), 0


def _axis_solution(rng, n, case):
    """The five axes of one potential: the stack is one axis_solution call,
    a row (or a one-row slice) the one-column solves of that axis, with its
    root m * np.linalg.norm(A[lam]) as a per-axis solve takes it."""
    J = int(rng.integers(0, separation.J_CAP + 1))
    branch = "alternating" if rng.integers(2) else "m=1"
    A = gauge.a_field_closed(harness.sample_x(rng, case, 0.05), case).A
    sel = separation.resolve_branch(branch)
    root = np.array([sel(J, lam) * np.linalg.norm(row) for lam, row in enumerate(A)])
    cols = separation.potential_columns(A)

    def call(s):
        if s == slice(None):
            sol = separation.axis_solution(J, A, branch)
            return sol.roots, sol.root, sol.g
        col = [c[s] for c in cols]
        return (separation.separation_roots(J, col), root[s],
                separation._null_vector(J, col, root[s]))

    return call, 0


def _apply_euler_op(rng, n, case):
    (J, q, p), phi = _spin(rng), _angles(rng, n)
    field = lambda ang: separation.wigner(J, q, p, ang)
    return lambda s: (opcalc.apply_euler_op(
        opcalc.EULER_OPS, field, EulerAngles(*(c[s] for c in phi)), D),), -1


def _identity(which):
    def draw(rng, n, case):
        xi = _xi(rng, n, case)
        field = harness._xphi_field(rng, "gaussian" if rng.integers(2) else "poly")
        return lambda s: (opcalc.identity_residual(which, case, xi[s], field, D),), 0

    return draw


def _radial_duality(rng, n, case):
    omega = rng.choice([0.5, 1.0, 2.0], n)
    x = harness.sample_x(rng, case, 0.0, rmin=0.8, rmax=2.0, size=n)
    return lambda s: (opcalc.radial_duality_residual(
        OscillatorParams.from_omega(omega[s]), x[s], D),), 0


def _effective_terms(rng, n, case):
    J = int(rng.integers(0, separation.J_CAP + 1))
    x = harness.sample_x(rng, case, 0.05, size=n)
    return lambda s: separation.effective_terms(J, x[s], case, "alternating"), 0


def _consistency(rng, n, case):
    J = int(rng.integers(0, 2))
    x = harness.sample_x(rng, case, 0.15, rmin=0.9, rmax=2.0, size=n)
    psi = harness._radial_field(int(rng.integers(2)))
    return lambda s: (separation.consistency_residual(
        J, 0, psi, x[s], case, "alternating", D, n_angles=2),), 0


_PRIMITIVES = {
    "forward": _forward,
    "extra_angles": _extra_angles,
    "invariant_products": _invariant_products,
    "fiber_section": _fiber_section,
    "a_field_closed": _a_field_closed,
    "a_field_numeric": _a_field_numeric,
    "a_tilde": _a_tilde,
    "b_functions": _b_functions,
    "wigner_d": _wigner_d,
    "ladder_apply": _ladder_apply,
    "build_h": _build_h,
    "separation_roots": _separation_roots,
    "_null_vector": _null_vector,
    "axis_solution": _axis_solution,
    "apply_euler_op": _apply_euler_op,
    **{f"identity_residual[{w}]": _identity(w)
       for w in ("phase_constraint", "derivative_split", "momentum_equivalence",
                 "laplacian_split")},
    "radial_duality_residual": _radial_duality,
    "effective_terms": _effective_terms,
    "consistency_residual": _consistency,
}


@pytest.mark.parametrize("name", list(_PRIMITIVES))
@settings(max_examples=6, deadline=2000, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), tag=st.sampled_from("AB"))
def test_row_of_a_stack_is_its_one_row_and_one_point_call(name, seed, n, tag):
    call, axis = _PRIMITIVES[name](np.random.default_rng(seed), n,
                                   CASE_A if tag == "A" else CASE_B)
    stack = call(slice(None))
    for i in range(n):
        for out, row, point in zip(stack, call(slice(i, i + 1)), call(i)):
            want = np.take(out, i, axis=axis)
            assert np.array_equal(np.take(row, 0, axis=axis), want)
            assert np.shape(point) == np.shape(want)
            assert np.array_equal(point, want)


# --- structural guard ------------------------------------------------------------

def _calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            yield node


def _names(node):
    """Dotted names of an expression or of each element of a tuple of them."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {ast.unparse(e) for e in elts}


def test_no_branch_on_ndarray_in_the_library():
    hits = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path)
        if ast.unparse(call.func) == "isinstance" and len(call.args) == 2
        and _names(call.args[1]) & {"np.ndarray", "numpy.ndarray", "ndarray"}
    ]
    assert hits == []


@pytest.mark.parametrize("module", ["separation.py", "opcalc.py"])
def test_no_scalar_math_functions(module):
    hits = [
        f"{module}:{call.lineno} {ast.unparse(call.func)}"
        for call in _calls(SRC / module)
        if ast.unparse(call.func) in {"math.sin", "math.cos", "math.exp"}
    ]
    assert hits == []
