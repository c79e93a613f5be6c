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
from typing import Callable

import numpy as np

from . import opcalc
from .errors import SingularAxis
from .gauge import a_field_closed
from .opcalc import (
    _FAMILY,
    _angle_stencil,
    _casimir,
    _images,
    _stencil,
    coupled_q,
    momentum,
)
from .transform import AngleCase, _row_norms, _uniform

__all__ = [
    "J_CAP",
    "wigner_d",
    "wigner_d_prime",
    "wigner",
    "ladder_apply",
    "potential_columns",
    "build_h",
    "separation_roots",
    "det_bisection_roots",
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


def _d_value(J: int, q: int, p: int, c, s):
    """d^J_{q,p} from the cosine and sine of the half angle."""
    pref, terms = _d_terms(J, q, p)
    total = 0.0
    for coef, a, b in terms:
        total += coef * c**a * s**b
    return pref * total


def wigner_d(J: int, q: int, p: int, beta):
    """Small rotation-matrix element d^J_{q,p}(beta) (real convention),
    elementwise over an array of angles; a float angle is a one-element
    array, so it gives exactly the value it has in any stack.
    """
    half = np.atleast_1d(beta) / 2.0
    return _d_value(J, q, p, np.cos(half), np.sin(half)).reshape(np.shape(beta))[()]


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


def _basis(J: int, qs, p: int, phi) -> list:
    """phi^J_{q,p} for each q of ``qs`` at the angles ``phi`` (3,) + S (or
    three broadcastable arrays phi1, phi2, phi3), from one cos/sin of
    phi3/2 and one e^{ip phi1} shared by every q; one point's angles are a
    one-element batch.

    A q whose -q came first takes the conjugate of that phase: the argument
    1j * (-q) * phi2 is exactly (+-0, -(q phi2)), so the conjugate is
    e^{iq phi2} bit for bit wherever the complex exponential's sine is odd
    and its cosine even (as libm's are; a test pins it).  The one exception
    is phi2 = -0.0, where the zero imaginary part takes the other sign.
    """
    shape = np.broadcast(*phi).shape
    phi1, phi2, phi3 = np.atleast_1d(*phi)
    half = phi3 / 2.0
    c, s = np.cos(half), np.sin(half)
    e1 = np.exp(1j * p * phi1)
    phase = {}
    for q in qs:
        phase[q] = np.conj(phase[-q]) if q and -q in phase else np.exp(1j * q * phi2)
    return [(phase[q] * _d_value(J, q, p, c, s) * e1).reshape(shape)[()] for q in qs]


def wigner(J: int, q: int, p: int, phi):
    """Angular basis element phi^J_{q,p} at the angles ``phi``, as
    :func:`_basis` takes them."""
    return _basis(J, (q,), p, phi)[0]


def ladder_apply(sign: int, J: int, q: int, p: int, phi):
    """Analytic (Q2 +- i Q3) applied to a basis element (no differencing),
    at the angles ``phi``, as :func:`wigner` takes them.

    Returns e^{i(q+-1)phi2} e^{ip phi1} [+-d' - (q cos(phi3) - p)/sin(phi3) d];
    with the conventions above this equals
    sqrt((J -+ q)(J +- q + 1)) * phi^J_{q+-1,p}.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_spin(J, q, p)
    shape = np.broadcast(*phi).shape
    phi1, phi2, b = np.atleast_1d(*phi)
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
    b_diag, b_couple = diag[owner], couple[owner]
    open_ = hi - lo > 1e-13
    while open_.any():
        mid = 0.5 * (lo + hi)
        fm = _continuant(b_diag, b_couple, mid)
        left = flo * fm < 0.0
        right = open_ & ~left
        # an exact zero closes its bracket at the midpoint: lo = hi = mid
        hi = np.where(open_ & (left | (fm == 0.0)), mid, hi)
        lo = np.where(right, mid, lo)
        flo = np.where(right, fm, flo)
        open_ &= hi - lo > 1e-13
    mids = 0.5 * (lo + hi)
    roots = [np.sort(np.concatenate([grid[(det == 0.0) & ok], mids[owner == i]]))
             for i, (grid, det, ok) in enumerate(zip(grid_a, dets, banded))]
    return roots[0] if single else roots


def _null_vector(J: int, col, root) -> np.ndarray:
    """The unit null vector of h(root), ordered q = -J .. J: (2J+1,) for one
    column, (m, 2J+1) for a column stack (m,) with one root per column, from
    one eigen-solve of the stack.  A degenerate root (a vanishing column,
    say) gives its first eigenvector within 1e-8.  The phase makes the first
    component above 1e-8 of the max real positive.  Raises ``ValueError``
    where no eigenvalue lies within 1e-8 of the root."""
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


def axis_solution(J: int, A: np.ndarray, branch="alternating") -> tuple:
    """(roots, root, g) of the five base axes, one row per axis: the root
    ladders B + (5, 2J+1), the branch roots B + (5,) and their null vectors
    B + (5, 2J+1), for one potential (B empty) or a stack B + (5, 3) of
    them.  Solved as one column stack: row lam is the solution of axis lam,
    bit-identical to a one-column solve of that axis, and each potential's
    rows are those of its own call."""
    col = tuple(np.moveaxis(c, 0, -1) for c in potential_columns(A))
    root = _branch_roots(J, A, branch)
    return separation_roots(J, col), root, _null_vector(J, col, root)


def _branch_roots(J: int, A: np.ndarray, branch) -> np.ndarray:
    """m(J, lam) * |A_lam.| per axis: B + (5,) for potentials B + (5, 3)."""
    sel = resolve_branch(branch)
    m = np.array([sel(J, lam) for lam in range(5)])
    return m * _row_norms(A)


def angular_factor(J: int, p: int, g: np.ndarray, phi: np.ndarray):
    """sum_q g_q phi^J_{q,p} at ``phi`` for coefficients ``g`` ordered
    q = -J .. J, from one evaluation of the 2J+1 basis elements.  ``g`` of
    shape (2J+1,) + N holds one vector per sample (N broadcasts against the
    trailing axes of the angles)."""
    return _weighted(g, _basis(J, range(-J, J + 1), p, phi))


def _weighted(g: np.ndarray, basis: list):
    """sum_q g_q phi_q over a basis of :func:`_basis`, in q order."""
    return sum(g[J_plus_q] * b for J_plus_q, b in enumerate(basis))


def _centrifugal(J: int, r):
    """The centrifugal term J(J+1)/(2 r^2) at radii ``r``."""
    return J * (J + 1) / (2.0 * r * r)


def effective_terms(
    J: int, x, case: AngleCase, branch="alternating"
) -> tuple[np.ndarray, np.ndarray | float]:
    """Selected per-axis eigenvalue vector and the centrifugal scalar.

    The eigenvalue for axis lam is m(J, lam) * |A_lam.|, evaluated on the
    closed-form potential; the scalar is J(J+1)/(2 r^2).  ``x`` is one
    point, giving (5,) and a float, or a stack (m, 5), giving (m, 5) and
    (m,).  Raises :class:`SingularAxis` through the closed form on the
    singular half-axis.
    """
    _check_spin(J)
    A = a_field_closed(x, case)
    r = _row_norms(np.asarray(x, dtype=float))
    return _branch_roots(J, A, branch), _centrifugal(J, r)[()]


def consistency_residual(
    J: int,
    p: int,
    test_psi: Callable[[np.ndarray], np.ndarray],
    x,
    case: AngleCase,
    branch,
    h: float,
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
    one residual per point.  The five axes run in one pass: the angles
    (3, n_angles, 1, 1) meet arrays (5, m) of the axes at the points.  The
    five null vectors come from one column-stack solve, and the five
    angular factors are one field G of shape S + (5, m), evaluated once
    each on the drawn angles, their 12-point stencil and the 144-point
    nested stencil, whose values give its Q images at the first two.  The
    outer P_lam is one :func:`momentum` call, handed its angle side and the
    potential at the points, over the product-form inner field P_lam
    (Psi G), with the axes broadcast against the points, and the reduced
    side takes Psi' by the same rule: each point displaced along its own
    axis.
    ``test_psi`` maps base points B + (5,) to B (a constant may return a
    scalar); parameters of shape (m,) broadcast against the points'
    trailing axis.  ``h`` is the step of every stencil.
    """
    _check_spin(J, p)
    xv = np.asarray(x, dtype=float)
    single = xv.ndim == 1
    xv = np.atleast_2d(xv)
    r0 = _row_norms(xv)
    # (phi1, phi2, phi3) per angle, drawn in that order
    drawn = _uniform(np.random.default_rng(7), np.array([0.0, 0.0, 0.5]),
                     np.array([2 * math.pi, 2 * math.pi, math.pi - 0.5]), (n_angles, 3))
    # one batch of n_angles angles, (3, n_angles, 1, 1) against the five
    # axes' arrays over the points, (5, m)
    angles = drawn.T[:, :, None, None]
    # Z / r + E, with Z = 2 omega and E = -omega^2 / 2 at omega = 1
    coulomb = 2.0 / r0 - 0.5
    potential = lambda ys: a_field_closed(ys, case)
    A0 = potential(xv)
    # effective_terms' two values from A0 and r0: no second closed-form call
    a_vec = _branch_roots(J, A0, branch)
    centrifugal = _centrifugal(J, r0)
    psi0 = test_psi(xv)
    # the five axes' null vectors as one column stack, g (2J+1, 5, m)
    g = np.moveaxis(_null_vector(J, potential_columns(A0), -a_vec.T), -1, 0)

    # the five angular factors as one field, axis lam in slice lam, on the
    # angles, their stencil and the nested stencil, and its Q images at the
    # first two
    stencil = _angle_stencil(angles, h)
    g0, g1, g2 = (_weighted(g, _basis(J, range(-J, J + 1), p, ang))
                  for ang in (angles, stencil, _angle_stencil(stencil, h)))
    q = _FAMILY["Q"]
    # one coefficient table of the drawn angles for their three images
    coef = opcalc._coefficients(angles)
    q0, q1 = _images(g1, angles, h, q, coef), _images(g2, stencil, h, q)
    # the axes (5, 1) against the points (m,): each point is displaced along
    # its own axis, as momentum displaces it, and reads its own row of the
    # potential and its own branch root
    axes = np.arange(5)[:, None]
    dirs = np.eye(5)[axes]
    dpsi = lambda y: _stencil(test_psi, y, dirs, h)
    dpsi0 = dpsi(xv)

    def inner(psi, dpsi_y, A, G, images):
        # P_lam (Psi G) in product form: Psi's derivative times G, and Psi
        # times G's images coupled through the potential row of axis lam
        row = np.choose(axes[..., None], np.moveaxis(A, -2, 0))
        return -1j * (dpsi_y * G) + psi * coupled_q(row, images)

    outer = momentum(axes, lambda ys, _: inner(test_psi(ys), dpsi(ys), potential(ys), g0, q0),
                     A0, xv, angles, h,
                     _images(inner(psi0, dpsi0, A0, g1, q1), angles, h, q, coef))
    # the Q Casimir from the nested pair: the Q images of G's Q images
    qsq = _casimir(_images(q1, angles, h, q, coef), "Q")

    # the reduced radial operator (-i d_lam - a_lam)^2 on Psi, with each
    # axis's branch eigenvalue at every point of its stencil
    a_at = lambda y: np.choose(axes, np.moveaxis(_branch_roots(J, potential(y), branch), -1, 0))
    chi = lambda dpsi_y, a, psi: -1j * dpsi_y - a * psi
    reduced = (-1j * _stencil(lambda y: chi(dpsi(y), a_at(y), test_psi(y)), xv, dirs, h)
               - a_vec.T * chi(dpsi0, a_vec.T, psi0))

    # one fifth of the shared (Casimir/centrifugal + Coulomb + energy)
    # terms rides along with each axis; summed over the five axes this
    # is exactly "transformed operator minus reduced operator"
    lhs = 0.5 * outer + (qsq / (2.0 * r0 * r0) - coulomb * g0) * psi0 / 5.0
    rhs = g0 * (0.5 * reduced + (centrifugal - coulomb) * psi0 / 5.0)
    # np.max keeps a NaN residual (the builtin max would drop it after a
    # finite one) and picks the same float as max on finite values
    worst = np.max(np.abs(lhs - rhs), axis=(0, 1), initial=0.0)
    return float(worst[0]) if single else worst
