"""Monopole-type gauge potentials of the fibered map.

Two routes produce the 5x3 potential coupling base-space momentum to the
right rotor generators:

* the numeric pipeline differentiates the angle functions to get the frame
  functions B_k+- and the intermediate coupling (``b_functions``,
  ``a_tilde``) and converts through a 3x3 linear solve in the swapped-angle
  frame (``a_field_numeric``);
* the closed forms (``a_field_closed``) evaluate the known expressions,
  singular on one half of the x5 axis (negative half for case A, positive
  for case B).

The two routes are compared against each other by the suite; the closed
case-B form is the image of the case-A form under the reflection
P = diag(-1,-1,-1,+1,-1):  A_B(x) = P . A_A(P x) componentwise.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedFrame, SingularAxis
from .opcalc import fiber_phase_gradients
from .transform import (
    GAMMA_TILDE,
    AngleCase,
    _gamma_xi,
    _row_norms,
    extra_angles,
    fiber_section,
    forward,
)

__all__ = [
    "CASE_B_REFLECTION",
    "b_functions",
    "a_tilde",
    "a_field_numeric",
    "a_field_closed",
    "closed_form_singular",
]

# Reflection conjugating case B into case A (applies to points and to the
# base index of the potential alike).
CASE_B_REFLECTION = np.array([-1.0, -1.0, -1.0, 1.0, -1.0])

# Parity of each frame function under phi3 -> -phi3; realizes the formal
# argument swap (phi1 <-> phi2, phi3 -> -phi3) from values at a reachable
# fiber point.
_FRAME_PARITY = np.array([-1.0, -1.0, 1.0])


def b_functions(xi, case: AngleCase, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the frame functions (B_k+, B_k-) from derivatives of the
    angle maps.

    B_k+ = -Re z_k and B_k- = -Im z_k with
    z_k = (tilde xi) . conj(grad f_k); both are real by construction and
    depend on the point only through its angles (the suite's
    ``frame_x_independence`` checks measure this).  ``xi`` is one point
    (4,) or a stack B + (4,), giving B + (3,) each; ``h`` is the step of
    the angle gradients.
    """
    xi = np.asarray(xi, dtype=complex)
    D, Dbar = fiber_phase_gradients(xi, case, h)
    # einsum, not @: a matrix product on a batch may go through BLAS, which
    # sums in another order for one row than for many
    w = np.einsum("st,...t->...s", GAMMA_TILDE, xi)
    wbar = np.einsum("...ks,...s->...k", Dbar, w)
    wcd = np.einsum("...ks,...s->...k", D, np.conj(w))
    bp = (-0.5 * (wbar + wcd)).real
    # The minus component carries the antisymmetric half of the same
    # contraction: (i/2)(w.Dbar - wc.D).
    bm = (0.5j * (wbar - wcd)).real
    return bp, bm


def a_tilde(xi, case: AngleCase, h: float) -> np.ndarray:
    """The 5x3 intermediate coupling from first derivatives of the angles.

    Component (l, k) is Re[(gamma_l xi).grad f_k] / r up to the
    antiholomorphic partner; the imaginary part is asserted below 1e-10
    (on every row of a stack).  Scales as 1/|xi|^2 under xi -> c xi.
    ``xi`` is one point (4,) or a stack B + (4,), giving B + (5, 3); ``h``
    is the step of the angle gradients.
    """
    xi = np.asarray(xi, dtype=complex)
    D, Dbar = fiber_phase_gradients(xi, case, h)
    v = _gamma_xi(xi)
    tr = lambda m: np.swapaxes(m, -1, -2)
    vals = 0.5 * (v @ tr(D) + np.conj(v) @ tr(Dbar))
    vals /= np.vecdot(xi, xi).real[..., None, None]
    # realness holds up to truncation, which grows like step^4
    imag_tol = max(1e-10, 100.0 * h**4)
    if np.abs(vals.imag).max() > imag_tol:
        raise FloatingPointError(
            f"coupling matrix has imaginary residue {np.abs(vals.imag).max():.3e}"
        )
    return vals.real.copy()


def a_field_numeric(
    xi,
    case: AngleCase,
    h: float,
    frame_det_eps: float = 1e-8,
) -> np.ndarray:
    """Convert the intermediate coupling into the potential numerically.

    The conversion runs in the swapped-angle frame: the frame functions are
    evaluated (by finite differences) at a fiber point whose angles are
    (phi2, phi1, phi3) and carried to (phi2, phi1, -phi3) by their phi3
    parity; the three potential components per axis then solve

        At_1 = A_2 b2+ + A_3 b2-,
        At_2 = A_1 + A_2 b1+ + A_3 b1-,
        At_3 = -A_2 b3+ - A_3 b3-.

    The result depends on the point only through its base point (the
    suite's ``gauge_angle_independence`` checks measure this).  ``xi`` is
    one point (4,) or a stack B + (4,), giving A of shape B + (5, 3); ``h``
    is the step of every angle gradient.  Raises
    :class:`IllConditionedFrame` when the 2x2 determinant b3+ b2- - b2+ b3-
    of any row falls below ``frame_det_eps``, and propagates
    :class:`DegenerateFiber` (angles) and :class:`SingularFiber` (section).
    """
    xi = np.asarray(xi, dtype=complex)
    x = forward(xi)
    phi = extra_angles(xi, case)
    at = a_tilde(xi, case, h)
    return _convert(at, x, phi, case, h, frame_det_eps)


def _convert(at, x, phi, case, h, frame_det_eps):
    bplus, bminus = b_functions(fiber_section(x, phi[[1, 0, 2]], case), case, h)
    # component k of each frame triple, with a trailing axis for the 5 rows
    bp = np.moveaxis(_FRAME_PARITY * bplus, -1, 0)[..., None]
    bm = np.moveaxis(_FRAME_PARITY * bminus, -1, 0)[..., None]
    det = bp[2] * bm[1] - bp[1] * bm[2]
    if np.count_nonzero(np.abs(det) < frame_det_eps):
        raise IllConditionedFrame(f"frame determinant {np.min(np.abs(det)):.3e}")
    A = np.empty(at.shape)
    A[..., 1] = -(bm[2] * at[..., 0] + bm[1] * at[..., 2]) / det
    A[..., 2] = (bp[2] * at[..., 0] + bp[1] * at[..., 2]) / det
    A[..., 0] = at[..., 1] - A[..., 1] * bp[0] - A[..., 2] * bm[0]
    return A


# Closed-form numerators: entry (lam, k) of the potential is
# sign * x[src] / (r (r + s x5)).  Index 5 is a zero coordinate padded onto
# the point, which makes the x5 row.
_CLOSED_SRC = np.array([[1, 3, 2], [0, 2, 3], [3, 1, 0], [2, 0, 1], [5, 5, 5]])
_CLOSED_SIGN_A = np.array(
    [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, 1.0, -1.0],
     [1.0, 1.0, 1.0]]
)
# Case B's table is stated, not derived: the gauge_reflection_map check
# compares it with case A under CASE_B_REFLECTION.  Its x5 row is -0.0.
_CLOSED_SIGN = {
    "A": _CLOSED_SIGN_A,
    "B": np.array(
        [[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0],
         [-1.0, -1.0, -1.0]]
    ),
}


def _closed_scale(x, case: AngleCase):
    """The point or stack padded with a zero sixth coordinate, r, the
    denominator r + s x5, and where the closed form is undefined: at the
    origin or within 1e-9 r of the case's singular half-axis."""
    xp = np.zeros(np.shape(x)[:-1] + (6,))
    xp[..., :5] = x
    r = _row_norms(xp[..., :5])
    denom = r + case.axis_sign * xp[..., 4]
    return xp, r, denom, denom <= 1e-9 * r


def closed_form_singular(x, case: AngleCase) -> np.ndarray:
    """Where :func:`a_field_closed` raises: a bool, or one per point of a
    (m, 5) stack."""
    return _closed_scale(x, case)[3]


def a_field_closed(x, case: AngleCase) -> np.ndarray:
    """Closed-form potential, singular on one half of the x5 axis.

    Case A divides by r(r + x5); case B is its image under the reflection
    ``CASE_B_REFLECTION`` and divides by r(r - x5).  Satisfies
    x . A_k = 0 and A_k . A_j = (r - s x5) / (r^2 (r + s x5)) delta_kj
    with s = +1 (case A) / -1 (case B).

    ``x`` is one point (5,), giving A of shape (5, 3), or a (m, 5) stack,
    giving (m, 5, 3); each point's values are those of its own single-point
    call.  Raises :class:`SingularAxis` if any point is singular (see
    :func:`closed_form_singular`).
    """
    xp, r, denom, singular = _closed_scale(x, case)
    if np.count_nonzero(singular):
        if np.count_nonzero(r <= 0.0):
            raise SingularAxis("potential undefined at the origin")
        half = "negative" if case.tag == "A" else "positive"
        raise SingularAxis(
            f"case {case.tag} potential diverges on the {half} x5 half-axis"
        )
    xp /= (r * denom)[..., None]
    # take, not xp[..., _CLOSED_SRC]: the fancy index lays its result out
    # batch-fastest, and fields_cmd's batched @ then rounds differently; the
    # signs multiply in place, so no second array of the result's size
    A = xp.take(_CLOSED_SRC, axis=-1)
    A *= _CLOSED_SIGN[case.tag]
    return A
