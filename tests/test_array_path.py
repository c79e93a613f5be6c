"""Every public primitive has one array path: row i of a stack equals the
one-row call and the one-point call on that row, bit for bit.  A
structural guard keeps the scalar branches from coming back."""

import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import gauge, harness, opcalc, separation, transform
from hurwitz.transform import CASE_A, CASE_B

# the steps the operators run at: first order, second order or nested
H, H2 = 1e-5, 1e-4
SRC = pathlib.Path(harness.__file__).parent
TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _angles(rng, n, margin=0.3):
    """n angles, (3, n): phi[:, i] is sample i."""
    return np.array([rng.uniform(0.0, 2 * math.pi, n), rng.uniform(0.0, 2 * math.pi, n),
                     rng.uniform(margin, math.pi - margin, n)])


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

    def call(s):
        # x and its row norms, which equal each row's own one-row norm
        x = transform.forward(xi[s])
        return x, transform._row_norms(x)[()]

    return call, 0


def _extra_angles(rng, n, case):
    xi = _xi(rng, n, case)
    off = case.with_offsets(harness._TEST_OFFSETS)
    return lambda s: (transform.extra_angles(xi[s], case),
                      transform.extra_angles(xi[s], off)), -1


def _invariant_products(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (transform.invariant_products(xi[s]),), 0


def _fiber_section(rng, n, case):
    x = harness.sample_x(rng, case, 0.1, size=n)
    phi = _angles(rng, n, margin=0.15)
    return lambda s: (transform.fiber_section(x[s], phi[:, s], case),), 0


def _a_field_closed(rng, n, case):
    x = harness.sample_x(rng, case, 0.05, size=n)
    return lambda s: (gauge.a_field_closed(x[s], case),), 0


def _a_field_numeric(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (gauge.a_field_numeric(xi[s], case, H),), 0


def _a_tilde(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: (gauge.a_tilde(xi[s], case, H),), 0


def _b_functions(rng, n, case):
    xi = _xi(rng, n, case)
    return lambda s: gauge.b_functions(xi[s], case, H), 0


def _wigner_d(rng, n, case):
    (J, q, p), beta = _spin(rng), rng.uniform(0.0, math.pi, n)
    return lambda s: (separation.wigner_d(J, q, p, beta[s]),
                      separation.wigner_d_prime(J, q, p, beta[s])), 0


def _ladder_apply(rng, n, case):
    (J, q, p), phi = _spin(rng), _angles(rng, n)
    sign = int(rng.choice([-1, 1]))
    return lambda s: (separation.ladder_apply(sign, J, q, p, phi[:, s]),), 0


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
    A = gauge.a_field_closed(harness.sample_x(rng, case, 0.05), case)
    sel = separation.resolve_branch(branch)
    root = np.array([sel(J, lam) * np.linalg.norm(row) for lam, row in enumerate(A)])
    cols = separation.potential_columns(A)

    def call(s):
        if s == slice(None):
            return separation.axis_solution(J, A, branch)
        col = [c[s] for c in cols]
        return (separation.separation_roots(J, col), root[s],
                separation._null_vector(J, col, root[s]))

    return call, 0


def _axis_solution_stack(rng, n, case):
    """The potentials of n base points: the stack is one axis_solution call
    on (n, 5, 3), a row the call on that point's (5, 3)."""
    J = int(rng.integers(0, separation.J_CAP + 1))
    branch = "alternating" if rng.integers(2) else "m=1"
    A = gauge.a_field_closed(harness.sample_x(rng, case, 0.05, size=n), case)

    return lambda s: separation.axis_solution(J, A[s], branch), 0


def _apply_euler_op(rng, n, case):
    (J, q, p), phi = _spin(rng), _angles(rng, n)
    field = lambda ang: separation.wigner(J, q, p, ang)
    return lambda s: (opcalc.apply_euler_op(opcalc.EULER_OPS, field, phi[:, s], H),), -1


def _identity(which):
    def draw(rng, n, case):
        xi = _xi(rng, n, case)
        field = harness._xphi_field(rng, "gaussian" if rng.integers(2) else "poly")
        h = H2 if which == "laplacian_split" else H
        return lambda s: (opcalc.identity_residual(which, case, xi[s], field, h),), 0

    return draw


def _radial_duality(rng, n, case):
    omega = rng.choice([0.5, 1.0, 2.0], n)
    x = harness.sample_x(rng, case, 0.0, rmin=0.8, rmax=2.0, size=n)
    return lambda s: (opcalc.radial_duality_residual(omega[s], x[s], H2),), 0


def _effective_terms(rng, n, case):
    J = int(rng.integers(0, separation.J_CAP + 1))
    x = harness.sample_x(rng, case, 0.05, size=n)
    return lambda s: separation.effective_terms(J, x[s], case, "alternating"), 0


def _consistency(rng, n, case):
    J = int(rng.integers(0, 2))
    x = harness.sample_x(rng, case, 0.15, rmin=0.9, rmax=2.0, size=n)
    psi = harness._radial_field(int(rng.integers(2)))
    return lambda s: (separation.consistency_residual(
        J, 0, psi, x[s], case, "alternating", H2, n_angles=2),), 0


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
    "axis_solution[stack]": _axis_solution_stack,
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


@pytest.mark.parametrize("J", range(separation.J_CAP + 1))
def test_continuant_stack_equals_its_one_element_calls(J):
    # 20 columns at 300 values each: the columns-by-values stack, each
    # column's own stack and every one-element call agree bit for bit
    rng = np.random.default_rng(53 + J)
    h0 = separation.build_h(J, _column(rng, 20), 0.0)
    diag = np.diagonal(h0, 0, -2, -1)
    couple = np.diagonal(h0, -1, -2, -1) * np.diagonal(h0, 1, -2, -1)
    a = rng.uniform(-4.0, 4.0, (20, 300))
    stack = separation._continuant(diag[:, None], couple[:, None], a)
    for i in range(20):
        column = separation._continuant(diag[i], couple[i], a[i])
        assert column.tobytes() == stack[i].tobytes()
        for j in range(300):
            one = separation._continuant(diag[i], couple[i], a[i, j:j + 1])
            assert one.shape == (1,)
            assert one.tobytes() == stack[i, j:j + 1].tobytes()


# --- structural guard ------------------------------------------------------------

def _calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            yield node


def _names(node):
    """Dotted names of an expression or of each element of a tuple of them."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {ast.unparse(e) for e in elts}


_RECORD_TYPES = re.compile(r"\b(EulerAngles|OscillatorParams|SeparationSolution|DiffStrategy"
                           r"|GammaSet|gamma_tilde_origin|step2)\b")


def test_no_angle_or_parameter_record_types():
    # the angles are one (3,) + S array, omega a float or an array, an axis
    # solution a tuple, a finite-difference step one float and the Dirac
    # matrices two arrays: no library or tool file names the record types
    # they replaced or their fields, or reads a named angle attribute
    paths = sorted(SRC.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    assert len(paths) > len(list(SRC.glob("*.py")))
    hits = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in {"phi1", "phi2", "phi3"}
    ] + [
        f"{path.name}:{n} {m.group()}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for m in _RECORD_TYPES.finditer(line)
    ]
    assert hits == []


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


# The operators that evaluate a field over a whole stencil; a loop around one
# of them, over the five axes say, repeats work that one stacked call shares.
_ENGINE = {"momentum", "casimir", "apply_euler_op", "_images", "_nested"}
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _called(node):
    """Names of the functions called anywhere inside ``node``."""
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def _engine_callers(tree):
    """The engine's names and those of the module's functions and assigned
    names (a lambda, a wrapped function) that call it, directly or through
    one another."""
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append(node.value)
    reach = set(_ENGINE)
    while new := {name for name, nodes in defs.items()
                  if name not in reach and any(_called(n) & reach for n in nodes)}:
        reach |= new
    return reach


@pytest.mark.parametrize("module", ["opcalc.py", "separation.py"])
def test_no_engine_call_inside_a_loop(module):
    tree = ast.parse((SRC / module).read_text())
    reach = _engine_callers(tree)
    hits = [
        f"{module}:{node.lineno} {sorted(_called(node) & reach)}"
        for node in ast.walk(tree)
        if isinstance(node, _LOOPS) and _called(node) & reach
    ]
    assert hits == []


def test_no_uniform_call_in_the_library():
    # _uniform draws rng.uniform's bits at the cost of rng.random
    hits = [
        f"{path.name}:{call.lineno} {ast.unparse(call.func)}"
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "uniform"
    ]
    assert hits == []


def test_one_value_draws_go_through_the_scalar_helper():
    # a one-value uniform or integer draw is transform._scalar_draws' C call:
    # no module calls rng.integers, and every _uniform call names its size
    hits = [
        f"{path.name}:{call.lineno} {ast.unparse(call)}"
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "integers"
        or ast.unparse(call.func) in ("_uniform", "transform._uniform")
        and len(call.args) + len(call.keywords) < 4
    ]
    assert hits == []


def test_stencil_layout_stays_in_opcalc():
    # the stencil offsets and their combination are opcalc's alone: another
    # module builds no displaced-point stack of its own
    private = {"_OFFSETS", "_OFFSETS2", "_combine", "_SHIFTS"}
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "opcalc.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & private
        or isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert hits == []


def test_no_memo_keyed_on_array_bytes():
    # an operator that needs one stencil level twice is handed its values:
    # no module keeps a table keyed on the bytes of an array
    hits = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for call in _calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "tobytes"
    ]
    assert hits == []


_LAYERS = {"transform", "gauge", "separation", "opcalc"}


def _own_scope(loop):
    """The nodes of ``loop`` outside the loops nested in it: what runs once
    per iteration of ``loop`` itself."""
    todo = list(ast.iter_child_nodes(loop))
    while todo:
        node = todo.pop()
        if not isinstance(node, _LOOPS):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _layer_calls(nodes):
    """The library-layer functions (``gauge.a_field_closed``) called among
    ``nodes``."""
    return {
        ast.unparse(call.func)
        for call in nodes
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name) and call.func.value.id in _LAYERS
    }


def test_no_primitive_call_per_draw():
    # a row's draws function draws first and evaluates after: no loop both
    # draws from the generator and calls a library layer in its own
    # iterations (a nested loop's body counts as that loop's), which would
    # run the layer once per draw
    tree = ast.parse((SRC / "harness.py").read_text())
    draws = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name.startswith("_") and node.name.endswith("draws")]
    assert "_angular_factor_draws" in {fn.name for fn in draws}
    own = [(fn, loop, list(_own_scope(loop)))
           for fn in draws for loop in ast.walk(fn) if isinstance(loop, _LOOPS)]
    hits = [
        f"{fn.name}:{loop.lineno} {sorted(_layer_calls(nodes))}"
        for fn, loop, nodes in own
        if _layer_calls(nodes)
        and any(isinstance(n, ast.Name) and n.id == "rng" for n in nodes)
    ]
    assert hits == []


# A test field made per sample: the object, or the helpers that made one
_PER_SAMPLE_FIELDS = {"_AnglePoly", "_XPhiField", "_angle_poly", "_xphi_field"}


def test_no_test_field_object_per_draw():
    # a row's draws write each field's parameters into the row's flat lists
    # and build the stacked field once: no loop of a _*draws function makes
    # a test field object per sample, to be stacked after the draws
    tree = ast.parse((SRC / "harness.py").read_text())
    draws = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name.startswith("_") and node.name.endswith("draws")]
    assert {"_rotor_draws", "_casimir_draws", "_identity_draws"} <= {fn.name for fn in draws}
    hits = [
        f"{fn.name}:{loop.lineno} {sorted(_called(loop) & _PER_SAMPLE_FIELDS)}"
        for fn in draws for loop in ast.walk(fn)
        if isinstance(loop, _LOOPS) and _called(loop) & _PER_SAMPLE_FIELDS
    ]
    assert hits == []
