"""Spin-J angle separation.

The angular basis is the standard rotation-matrix element family

    phi^J_{q,p}(angles) = e^{i q phi2} d^J_{q,p}(phi3) e^{i p phi1},

simultaneous eigenfunctions of the Casimir (J(J+1)), of Q1 (q) and of T1
(p); the ladder combinations Q2 +- i Q3 raise/lower q with the usual
square-root coefficients.  Coupling one base axis to the right generators
through a potential column (A1, A2, A3) produces, on this basis, a
tridiagonal (2J+1) x (2J+1) matrix whose vanishing determinant selects the
per-axis eigenvalues a = m * |A| (m = -J .. J); the null vector supplies
the mixing coefficients g_q.

Roots are computed as eigenvalues of the a-independent tridiagonal part
(dense Hermitian solve at size <= 7), with a determinant-bisection scan
kept as an independent oracle: the determinant comes from the three-term
(continuant) recurrence on the three diagonals, never from an eigen-solver.
Both also solve a column stack (one recurrence scan over every column's
grid, one bisection loop per call).  J is capped at 3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularAxis
from .gauge import a_field_closed
from .opcalc import (
    EULER_OPS,
    DiffStrategy,
    OscillatorParams,
    _stencil,
    apply_euler_op,
    casimir,
    coupled_q,
    momentum,
)
from .transform import AngleCase, EulerAngles, RPoint

__all__ = [
    "J_CAP",
    "SeparationSolution",
    "wigner_d",
    "wigner_d_prime",
    "wigner",
    "ladder_apply",
    "potential_columns",
    "build_h",
    "separation_roots",
    "det_bisection_roots",
    "coefficients",
    "axis_solution",
    "angular_factor",
    "resolve_branch",
    "effective_terms",
    "consistency_residual",
]

J_CAP = 3


def _check_spin(J: int, *qs: int) -> None:
    if not (0 <= J <= J_CAP):
        raise ValueError(f"J must lie in 0..{J_CAP}")
    for q in qs:
        if abs(q) > J:
            raise ValueError(f"index {q} out of range for J={J}")


@functools.lru_cache(maxsize=None)
def _d_terms(J: int, q: int, p: int) -> tuple[float, tuple]:
    """Prefactor and (coef, a, b) terms of d^J_{q,p}: sum coef c^a s^b."""
    _check_spin(J, q, p)
    pref = math.sqrt(
        math.factorial(J + q)
        * math.factorial(J - q)
        * math.factorial(J + p)
        * math.factorial(J - p)
    )
    terms = []
    for k in range(max(0, p - q), min(J + p, J - q) + 1):
        denom = (
            math.factorial(J + p - k)
            * math.factorial(k)
            * math.factorial(q - p + k)
            * math.factorial(J - q - k)
        )
        terms.append(
            ((-1.0) ** (q - p + k) / denom, 2 * J + p - q - 2 * k, q - p + 2 * k)
        )
    return pref, tuple(terms)


def wigner_d(J: int, q: int, p: int, beta):
    """Small rotation-matrix element d^J_{q,p}(beta) (real convention),
    elementwise over an array of angles; a float angle is a one-element
    array, so it gives exactly the value it has in any stack.
    """
    pref, terms = _d_terms(J, q, p)
    half = np.atleast_1d(beta) / 2.0
    c, s = np.cos(half), np.sin(half)
    total = 0.0
    for coef, a, b in terms:
        total += coef * c**a * s**b
    return (pref * total).reshape(np.shape(beta))[()]


def wigner_d_prime(J: int, q: int, p: int, beta):
    """Analytic d/dbeta of the small rotation-matrix element, elementwise
    (as :func:`wigner_d`)."""
    pref, terms = _d_terms(J, q, p)
    half = np.atleast_1d(beta) / 2.0
    c, s = np.cos(half), np.sin(half)
    total = np.zeros_like(c)
    for coef, a, b in terms:
        term = 0.0
        if a > 0:
            term -= 0.5 * a * c ** (a - 1) * s ** (b + 1)
        if b > 0:
            term += 0.5 * b * c ** (a + 1) * s ** (b - 1)
        total += coef * term
    return (pref * total).reshape(np.shape(beta))[()]


def _angle_arrays(phi: EulerAngles):
    """The three angles as arrays of at least one dimension (float angles
    are a one-element batch), and the broadcast shape of the given ones."""
    vals = (phi.phi1, phi.phi2, phi.phi3)
    return [np.atleast_1d(v) for v in vals], np.broadcast(*vals).shape


def wigner(J: int, q: int, p: int, phi: EulerAngles):
    """Angular basis element phi^J_{q,p} at the given angles (or batch,
    whose attributes broadcast); float angles are a one-element batch."""
    (phi1, phi2, phi3), shape = _angle_arrays(phi)
    out = np.exp(1j * q * phi2) * wigner_d(J, q, p, phi3) * np.exp(1j * p * phi1)
    return out.reshape(shape)[()]


def ladder_apply(sign: int, J: int, q: int, p: int, phi: EulerAngles):
    """Analytic (Q2 +- i Q3) applied to a basis element (no differencing),
    at the given angles (or batch, as :func:`wigner`).

    Returns e^{i(q+-1)phi2} e^{ip phi1} [+-d' - (q cos(phi3) - p)/sin(phi3) d];
    with the conventions above this equals
    sqrt((J -+ q)(J +- q + 1)) * phi^J_{q+-1,p}.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_spin(J, q, p)
    (phi1, phi2, b), shape = _angle_arrays(phi)
    d = wigner_d(J, q, p, b)
    dp = wigner_d_prime(J, q, p, b)
    radial = sign * dp - (q * np.cos(b) - p) / np.sin(b) * d
    out = np.exp(1j * (q + sign) * phi2) * np.exp(1j * p * phi1) * radial
    return out.reshape(shape)[()]


def potential_columns(A: np.ndarray) -> tuple:
    """The column stack (A1, A+, A-) of the five base axes, with
    A+- = (A2 -+ i A3)/2: three arrays (5,) + B for potentials B + (5, 3),
    whose entry lam is the column of axis lam."""
    a1, a2, a3 = np.moveaxis(np.asarray(A, dtype=float), (-1, -2), (0, 1))
    return a1, 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)


def build_h(J: int, col: tuple[float, complex, complex], a) -> np.ndarray:
    """The tridiagonal coupling matrix at spectral parameter a.

    Rows/columns are ordered q = -J .. J.  Only three diagonals are
    nonzero: for row k = 1 .. 2J+1 (1-based),

        (h)_{k,k-1} = sqrt((2J+2-k)(k-1)) A+,
        (h)_{k,k}   = -a - (J+1-k) A1,
        (h)_{k,k+1} = sqrt(k(2J+1-k)) A-.

    ``a`` is a float, giving one (2J+1, 2J+1) matrix, or a 1-D array,
    giving a (len(a), 2J+1, 2J+1) stack with one matrix per value.  The
    column's entries may be arrays of shape (m,) as well (a column stack),
    which broadcast against ``a``.
    """
    _check_spin(J)
    a1, ap, am = col
    n = 2 * J + 1
    h = np.zeros(np.broadcast(a, *col).shape + (n, n), dtype=complex)
    for k in range(1, n + 1):
        h[..., k - 1, k - 1] = -a - (J + 1 - k) * a1
        if k >= 2:
            h[..., k - 1, k - 2] = math.sqrt((2 * J + 2 - k) * (k - 1)) * ap
        if k <= n - 1:
            h[..., k - 1, k] = math.sqrt(k * (2 * J + 1 - k)) * am
    return h


def separation_roots(J: int, col) -> np.ndarray:
    """All real a with det h(a) = 0, ascending: (2J+1,) for one column,
    (m, 2J+1) for a column stack (one row per column).

    h(a) = h(0) - a I with h(0) Hermitian, so the roots are the (real)
    eigenvalues of h(0); they form the ladder {m |A| : m = -J .. J}.
    """
    h0 = build_h(J, col, 0.0)
    return np.sort(np.linalg.eigvalsh(h0), axis=-1)


def _continuant(diag, couple, a):
    """det(h(0) - a I) of a tridiagonal h(0), real part, by the three-term
    recurrence

        p_0 = 1,  p_1 = h_11 - a,  p_k = (h_kk - a) p_{k-1} - h_{k,k-1} h_{k-1,k} p_{k-2}

    (Wilkinson 1965, sec. 5.36).  ``diag`` (..., n) holds the h_kk and
    ``couple`` (..., n - 1) the products h_{k,k-1} h_{k-1,k}, both
    broadcasting against ``a``; the arithmetic is complex, as a
    determinant of the complex matrix is.
    """
    p_prev, p = 1.0, diag[..., 0] - a
    for k in range(1, diag.shape[-1]):
        p_prev, p = p, (diag[..., k] - a) * p - couple[..., k - 1] * p_prev
    return p.real


def det_bisection_roots(J: int, col):
    """Independent root oracle: scan det h(a) on a 4001-point grid and
    bisect each sign change to a width of 1e-13.

    Stays clear of the eigenvalue route entirely: the determinant is the
    three-term recurrence (:func:`_continuant`) on the diagonals of one
    ``build_h(J, col, 0.0)`` call.  One recurrence runs over the grids of
    every column; then one bisection loop runs over the brackets of every
    column, each step evaluating one midpoint per open bracket with that
    bracket's own column.  A grid point where the determinant is exactly
    zero is a root; a bracket stops at a midpoint where it is.  Intended
    for columns with distinct roots; multiple roots collapse to one
    sign-change each.  A column whose h(0) has a nonzero entry off the
    three diagonals (which the recurrence would not read) gets no roots.

    One column gives its sorted roots; a column stack gives a list with
    the sorted roots of each column.
    """
    single = np.ndim(col[0]) == 0
    cols = [np.atleast_1d(c) for c in col]
    h0 = build_h(J, cols, 0.0)
    diag = np.diagonal(h0, 0, -2, -1)
    couple = np.diagonal(h0, -1, -2, -1) * np.diagonal(h0, 1, -2, -1)
    k = np.arange(2 * J + 1)
    banded = ~np.any(h0[:, np.abs(k[:, None] - k) > 1] != 0.0, axis=-1)
    a1, ap, am = cols
    s = np.sqrt(a1 * a1 + np.abs(ap + am) ** 2 + np.abs(1j * (ap - am)) ** 2)
    span = np.maximum(1.0, (J + 1.0) * s)
    grid_a = np.linspace(-span, span, 4001, axis=-1)
    dets = _continuant(diag[:, None, :], couple[:, None, :], grid_a)
    cells = (dets[:, :-1] * dets[:, 1:] < 0.0) & banded[:, None]
    owner, cell = np.nonzero(cells)
    lo, hi, flo = grid_a[owner, cell], grid_a[owner, cell + 1], dets[owner, cell]
    open_ = hi - lo > 1e-13
    while open_.any():
        idx = np.flatnonzero(open_)
        mid = 0.5 * (lo[idx] + hi[idx])
        fm = _continuant(diag[owner[idx]], couple[owner[idx]], mid)
        left = flo[idx] * fm < 0.0
        # an exact zero closes its bracket at the midpoint: lo = hi = mid
        hi[idx] = np.where(left | (fm == 0.0), mid, hi[idx])
        lo[idx] = np.where(left, lo[idx], mid)
        flo[idx] = np.where(left, flo[idx], fm)
        open_[idx] = hi[idx] - lo[idx] > 1e-13
    mids = 0.5 * (lo + hi)
    roots = [np.sort(np.concatenate([grid[(det == 0.0) & ok], mids[owner == i]]))
             for i, (grid, det, ok) in enumerate(zip(grid_a, dets, banded))]
    return roots[0] if single else roots


def _null_vector(J: int, col, root, basis: bool = False) -> np.ndarray:
    """The unit null vector of h(root), the first one if the root is
    degenerate, phased so that its first component above 1e-8 of the max
    is real positive: (2J+1,) for one column, (m, 2J+1) for a column stack
    (m,) with one root per column, from one eigen-solve of the stack.  With
    ``basis``, a degenerate root of one column gives the orthonormal basis
    (2J+1, nullity) of its null space instead.  Raises ``ValueError`` where
    no eigenvalue lies within 1e-8 of the root."""
    evals, evecs = np.linalg.eigh(build_h(J, col, 0.0))
    root = np.asarray(root, dtype=float)
    close = np.abs(evals - root[..., None]) <= 1e-8
    found = close.any(axis=-1)
    if not found.all():
        i = np.unravel_index(np.argmin(found), found.shape)
        raise ValueError(
            f"{float(root[i])!r} is not a root within 1e-08 "
            f"(spectrum {np.sort(evals[i])})"
        )
    if basis and close.sum() > 1:
        return evecs[:, close].copy()
    first = np.argmax(close, axis=-1)[..., None, None]
    g = np.take_along_axis(evecs, first, axis=-1)[..., 0]
    mag = np.abs(g)
    lead = np.argmax(mag > 1e-8 * mag.max(axis=-1, keepdims=True), axis=-1)
    ph = np.take_along_axis(g, lead[..., None], axis=-1)
    g = g / (ph / np.abs(ph))
    return g / _norms(g)[..., None]


def _norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each complex vector v[..., :], summed as it sums one."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def coefficients(J: int, col, a_root: float) -> np.ndarray:
    """Unit null vector of h(a_root), ordered q = -J .. J, for one column.

    For a simple root the vector is unique up to phase; the phase is fixed
    by making the first component above 1e-8 of the max real positive, as
    the column stacks of :func:`_null_vector` do.  If the numerical nullity
    exceeds one, an orthonormal basis of the null space is returned instead
    (shape (2J+1, nullity)); the realistic trigger is a vanishing potential
    column, where every vector is null.  Raises ``ValueError`` when a_root
    is not within 1e-8 of an eigenvalue.
    """
    return _null_vector(J, col, a_root, basis=True)


@dataclass(frozen=True)
class SeparationSolution:
    """Spin-J separation data of the five base axes, one row per axis: root
    ladders (5, 2J+1), branch roots (5,) and their null vectors (5, 2J+1)."""

    J: int
    roots: np.ndarray
    root: np.ndarray
    g: np.ndarray


def resolve_branch(branch) -> Callable[[int, int], int]:
    """Turn a branch spec into a per-axis ladder index m(J, lam).

    Strings: "alternating" is (-J, +J, -J, +J, 0) across the five axes
    (the sign pattern of the closed case-A eigenvalue display); "m=<k>"
    picks the constant ladder index k (clipped into -J..J).
    """
    if branch == "alternating":
        return lambda J, lam: [-J, J, -J, J, 0][lam]
    if isinstance(branch, str) and branch.startswith("m="):
        k = int(branch[2:])
        return lambda J, lam: max(-J, min(J, k))
    raise ValueError(f"unknown branch selector {branch!r}")


def axis_solution(J: int, A: np.ndarray, branch="alternating") -> SeparationSolution:
    """Roots and the branch null vectors of the five base axes, solved as
    one column stack: row lam is the solution of axis lam, bit-identical to
    a one-column solve of that axis."""
    col = potential_columns(A)
    root = _branch_roots(J, A, branch)
    return SeparationSolution(J, separation_roots(J, col), root,
                              _null_vector(J, col, root))


def _branch_roots(J: int, A: np.ndarray, branch) -> np.ndarray:
    """m(J, lam) * |A_lam.| per axis: B + (5,) for potentials B + (5, 3)."""
    sel = resolve_branch(branch)
    m = np.array([sel(J, lam) for lam in range(5)])
    # unit-stride dots round as np.linalg.norm does on one row
    return m * np.sqrt(np.vecdot(A, A))


def angular_factor(J: int, p: int, g: np.ndarray, phi: EulerAngles):
    """sum_q g_q phi^J_{q,p} at ``phi`` for coefficients ``g`` ordered
    q = -J .. J.  ``g`` of shape (2J+1,) + N holds one vector per sample
    (N broadcasts against the trailing axes of the angles)."""
    return sum(g[J_plus_q] * wigner(J, J_plus_q - J, p, phi)
               for J_plus_q in range(2 * J + 1))


def effective_terms(
    J: int, x, case: AngleCase, branch="alternating"
) -> tuple[np.ndarray, float]:
    """Selected per-axis eigenvalue vector and the centrifugal scalar.

    The eigenvalue for axis lam is m(J, lam) * |A_lam.|, evaluated on the
    closed-form potential; the scalar is J(J+1)/(2 r^2).  ``x`` is one
    point, giving (5,) and a float, or a stack (m, 5), giving (m, 5) and
    (m,).  Raises :class:`SingularAxis` through the closed form on the
    singular half-axis.
    """
    _check_spin(J)
    A = a_field_closed(x, case).A
    xv = np.asarray(x.x if isinstance(x, RPoint) else x, dtype=float)
    # unit-stride dots round as np.linalg.norm does on one row
    r = np.sqrt(np.vecdot(xv, xv))
    return _branch_roots(J, A, branch), (J * (J + 1) / (2.0 * r * r))[()]


def consistency_residual(
    J: int,
    p: int,
    test_psi: Callable[[np.ndarray], np.ndarray],
    x,
    case: AngleCase,
    branch,
    d: DiffStrategy,
    n_angles: int = 4,
):
    """Operator-level check that the angle separation succeeded.

    Applies the transformed-equation operator (momentum square, Casimir
    over 2r^2, Coulomb term) to Psi(x) * G(angles) and subtracts
    G * (reduced radial operator applied to Psi), where the reduced
    operator carries the per-axis eigenvalue with the sign of the printed
    reduced equation, (-i d_lam - a_lam)^2.  The angular factor for each
    axis is the null vector for the root -a_lam, which makes every term
    vanish identically; the returned max over axes and ``n_angles`` angles
    (drawn from a fixed seed) is pure finite-difference error and shrinks
    under step refinement.  The oscillator constants are those of omega = 1.

    ``x`` is one base point (5,), giving a float, or a stack (m, 5), giving
    one residual per point from one evaluation of each operator per axis
    (the angles form the axis in front of the points').  ``test_psi`` maps
    base points B + (5,) to B (a constant may return a scalar); parameters
    of shape (m,) broadcast against the points' trailing axis.
    """
    _check_spin(J, p)
    xv = np.asarray(x.x if isinstance(x, RPoint) else x, dtype=float)
    single = xv.ndim == 1
    xv = np.atleast_2d(xv)
    r0 = np.sqrt(np.vecdot(xv, xv))
    a_vec, centrifugal = effective_terms(J, xv, case, branch)
    sel = resolve_branch(branch)
    dn = d.nested()
    # (phi1, phi2, phi3) per angle, drawn in that order
    drawn = np.random.default_rng(7).uniform(
        [0.0, 0.0, 0.5], [2 * math.pi, 2 * math.pi, math.pi - 0.5], (n_angles, 3))
    # one batch of n_angles angles, (n_angles, 1) against the points (m,)
    angles = EulerAngles(*drawn.T[:, :, None])
    params = OscillatorParams.from_omega(1.0)
    coulomb = params.Z / r0 + params.E
    potential = lambda ys: a_field_closed(ys, case).A
    A0 = potential(xv)
    psi0 = test_psi(xv)
    columns = potential_columns(A0)

    residuals = []
    for lam in range(5):
        e = np.eye(5)[lam]
        g = _null_vector(J, [c[lam] for c in columns], -a_vec[:, lam]).T
        G = lambda ang: angular_factor(J, p, g, ang)

        def inner(ys: np.ndarray, ang: EulerAngles) -> np.ndarray:
            # P_lam (Psi G), a field over (x, angles)
            images = apply_euler_op(EULER_OPS, G, ang, dn)
            q = coupled_q(potential(ys)[..., lam, :], images)
            dpsi_ys = _stencil(test_psi, ys, e, dn.step)
            return -1j * (dpsi_ys * G(ang)) + test_psi(ys) * q

        outer = momentum(lam, inner, potential, xv, angles, dn)
        qsq = casimir("Q", G, angles, dn)
        g0 = G(angles)

        # the reduced radial operator on Psi
        def a_at(y: np.ndarray) -> np.ndarray:
            # the branch eigenvalue re-evaluated at displaced base points
            row = potential(y)[..., lam, :]
            return sel(J, lam) * np.sqrt(np.vecdot(row, row))

        def chi(y: np.ndarray) -> np.ndarray:
            return -1j * _stencil(test_psi, y, e, dn.step) - a_at(y) * test_psi(y)

        reduced = -1j * _stencil(chi, xv, e, dn.step) - a_at(xv) * chi(xv)

        # one fifth of the shared (Casimir/centrifugal + Coulomb + energy)
        # terms rides along with each axis; summed over the five axes this
        # is exactly "transformed operator minus reduced operator"
        lhs = 0.5 * outer + (qsq / (2.0 * r0 * r0) - coulomb * g0) * psi0 / 5.0
        rhs = g0 * (0.5 * reduced + (centrifugal - coulomb) * psi0 / 5.0)
        residuals.append(np.abs(lhs - rhs))
    # np.max keeps a NaN residual (the builtin max would drop it after a
    # finite one) and picks the same float as max on finite values
    worst = np.max(residuals, axis=(0, 1), initial=0.0)
    return float(worst[0]) if single else worst
