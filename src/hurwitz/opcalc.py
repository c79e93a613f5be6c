"""Numerical differential-operator engine.

Evaluates the two su(2) rotor triples (left and right generators on the
fiber angles), the momentum operator, and the oscillator Hamiltonian on
sample scalar fields, entirely through central finite differences, and
measures residuals of the operator identities tying the complex-space and
base-space pictures together.

Derivatives with respect to a complex coordinate use the Wirtinger
convention throughout:

    d/dxi  = (d/dRe - i d/dIm) / 2,      d/dxi* = (d/dRe + i d/dIm) / 2.

Every operator takes one step ``h`` that all of its stencils use, nested
ones included, and raises ``ValueError`` unless 0 < h < inf.

Fields take stacks, with numpy broadcasting: a complex-space field maps xi
B + (4,) to B + T, a field over (x, angles) maps x B + (5,) and angles
(3,) + S (rows phi1, phi2, phi3) to broadcast(B, S), and a field over the
angle chart maps angles (3,) + S to T + S (T is empty for a scalar field;
a constant may return a scalar).  One axis rule: every stencil puts its
displacement axes in front, (offsets,) + D + B for points, (3, 4) + S for
angles (behind their component axis: (3, 3, 4) + S), so the batch axes
trail and a field whose parameters carry a sample axis (one test field per
sample) broadcasts it against the batch's last axis on both sides.  An
operator calls its field once on all of its stencil points, and the angle
side works on values, so a caller that needs one stencil level twice
evaluates it once: ``_images`` turns a field's values on
``_angle_stencil`` (12 copies of each angle) into the generator images
read (a nested pair is one call on 144 copies); ``_stencil`` displaces
points along the 8 real directions of C^4 or the base axes, a stack of
directions in front of the points or one direction per point.
There is one momentum operator P_lam: its axes go in front of the batch or
broadcast against it, each point displaced along its own axis, so
P_lam P_lam is a momentum of a momentum, and one angle side (coefficient
table, Q images, or the caller's Q images) serves every axis.  Angle
fields are functions on R^3 (no folding), so angle-periodic test fields
are expected.  Phase-type fiber functions are differentiated via their
unit-modulus exponentials, which keeps stencils off branch cuts.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import PolarSingularity
from .transform import (
    AngleCase,
    _gamma_xi,
    _row_norms,
    extra_angles,
    forward,
    invariant_products,
)

__all__ = [
    "first_derivative",
    "second_derivative",
    "wirtinger_gradients",
    "xi_laplacian",
    "fiber_phase_gradients",
    "apply_euler_op",
    "casimir",
    "coupled_q",
    "momentum",
    "commutator_residuals",
    "casimir_residual",
    "identity_residual",
    "oscillator_apply",
    "radial_duality_residual",
    "pullback",
    "EULER_OPS",
]


def first_derivative(f: Callable[[float], complex], h: float) -> complex:
    """Fourth-order central difference of f at 0 with step h."""
    # symmetric grouping keeps the stencil exact on constants
    return ((f(-2 * h) - f(2 * h)) + 8.0 * (f(h) - f(-h))) / (12.0 * h)


def second_derivative(f: Callable[[float], complex], h: float) -> complex:
    """Fourth-order central second difference of f at 0 with step h."""
    return (
        -(f(-2 * h) + f(2 * h)) + 16.0 * (f(-h) + f(h)) - 30.0 * f(0.0)
    ) / (12.0 * h * h)


# stencil offsets in steps (first and second order) and the base-space axes
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_OFFSETS2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_AXES = np.eye(5)


def _combine(values, h: float, order: int = 1):
    """The reference stencil of the order (:func:`first_derivative`, ...) on
    arrays of the values at the offsets -2h, -h, (0,) h, 2h.  Every array
    derivative passes through here, so this is where a step is checked:
    raises ``ValueError`` unless 0 < h < inf."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"finite-difference step must be positive and finite, got {h!r}")
    at = dict(zip((_OFFSETS if order == 1 else _OFFSETS2) * h, values))
    return (first_derivative if order == 1 else second_derivative)(at.__getitem__, h)


def _stencil(fn, pts, dirs, h: float, order: int = 1):
    """Derivatives of ``fn`` of the given order at ``pts`` B + (n,) along
    ``dirs`` D + (n,), from one call of ``fn`` on the displaced stack
    (offsets,) + broadcast(D, B) + (n,).  A stack of directions (k, n) goes
    in front of the points, giving (k,) + B + T; any other D broadcasts
    against B, each point displaced along its own direction, giving
    broadcast(D, B) + T."""
    offsets = _OFFSETS if order == 1 else _OFFSETS2
    if np.ndim(dirs) == 2:
        dirs = np.reshape(dirs, dirs.shape[:1] + (1,) * (np.ndim(pts) - 1) + dirs.shape[1:])
    rank = max(np.ndim(dirs), np.ndim(pts))
    ys = pts + (offsets * h).reshape((-1,) + (1,) * rank) * dirs
    v = fn(ys)
    if np.ndim(v) < ys.ndim - 1:  # constant along the stencil (a constant field)
        v = np.broadcast_to(v, np.broadcast_shapes(ys.shape[:-1], np.shape(v)))
    return _combine(v, h, order)


# the 8 real directions of C^4: Re xi_1, Im xi_1, Re xi_2, ...
_XI_DIRS = np.kron(np.eye(4), [[1.0], [1.0j]])


def wirtinger_gradients(
    field: Callable[[np.ndarray], np.ndarray], xi: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic and antiholomorphic gradients of a complex-space field,
    each of shape B + T + (4,) for ``xi`` B + (4,) and a field output B + T;
    one field call on the 32 displaced copies of every point."""
    der = _stencil(field, np.asarray(xi, dtype=complex), _XI_DIRS, h)
    g_re, g_im = der[0::2], der[1::2]
    return (
        np.moveaxis(0.5 * (g_re - 1j * g_im), 0, -1),
        np.moveaxis(0.5 * (g_re + 1j * g_im), 0, -1),
    )


def xi_laplacian(
    field: Callable[[np.ndarray], np.ndarray], xi: np.ndarray, h: float
) -> np.ndarray:
    """sum_s d^2 f / dxi_s dxi_s* via the 8 real second derivatives, B + T;
    one field call on the 40 displaced copies of every point."""
    der = _stencil(field, np.asarray(xi, dtype=complex), _XI_DIRS, h, order=2)
    # summed in direction order, as a running total
    return 0.25 * sum(der)


def fiber_phase_gradients(
    xi: np.ndarray, case: AngleCase, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger gradients of the three angle functions at a point or stack.

    Each angle f_k is differentiated through its unit-modulus exponential
    g_k = exp(i f_k), which is smooth wherever the fiber is non-degenerate:
    grad f_k = -i (grad g_k) / g_k.  Returns (D, Dbar) of shape B + (3, 4)
    for ``xi`` B + (4,), with D[..., k, s] = df_k/dxi_s and
    Dbar[..., k, s] = df_k/dxi_s*.  A point (4,) is evaluated as a one-row
    stack, so its values are that row's.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim == 1:
        return tuple(v[0] for v in fiber_phase_gradients(xi[None], case, h))
    ia, ib = case.pair

    def g(z: np.ndarray) -> np.ndarray:
        # the three exponentials, B + (4,) -> B + (3,), each finished before
        # stacking: a product on a strided view rounds unlike a batch's
        a, b = z[..., ia], z[..., ib]
        ma, mb = np.abs(a), np.abs(b)
        u, v = ma**2, mb**2
        val = [(a / ma) * (b / mb), (a / ma) * (np.conj(b) / mb),
               ((u - v) + 2j * np.sqrt(u * v)) / (u + v)]
        if case.offsets is not None:
            m = invariant_products(z)
            val = [e * np.exp(1j * offset(m)) for e, offset in zip(val, case.offsets)]
        return np.stack(val, axis=-1)

    dh, da = wirtinger_gradients(g, xi, h)
    g0 = g(xi)[..., None]
    return -1j * dh / g0, -1j * da / g0


# --- rotor generators -------------------------------------------------------

# Generator names in the row order of the coefficient table.
EULER_OPS = ("T1", "T2", "T3", "Q1", "Q2", "Q3")


def _coefficients(phi: np.ndarray) -> np.ndarray:
    """Closed-form first-order coefficients of the six generators, (6, 3) + S.

    Row g, column k holds r with X_g = sum_k i r d/dphi_k.  The left triple
    (T*) is the image of the right triple (Q*) under the involution
    phi1 <-> phi2, phi3 -> -phi3; both triples close with structure
    constants +i eps and commute with each other (suite-verified).  Raises
    :class:`PolarSingularity` where |sin(phi3)| < 1e-8 at any angle.
    """
    (c1, c2, c3), (s1, s2, s3) = np.cos(phi), np.sin(phi)
    if np.any(np.abs(s3) < 1e-8):
        raise PolarSingularity("sin(phi3) below 1e-08")
    out = np.zeros((6, 3) + s3.shape)
    out[0, 0] = out[3, 1] = -1.0
    out[1, 0], out[1, 1], out[1, 2] = -(c1 * c3) / s3, c1 / s3, -s1
    out[2, 0], out[2, 1], out[2, 2] = -(s1 * c3) / s3, s1 / s3, c1
    out[4, 0], out[4, 1], out[4, 2] = -c2 / s3, c2 * c3 / s3, s2
    out[5, 0], out[5, 1], out[5, 2] = -s2 / s3, s2 * c3 / s3, -c2
    return out


# _SHIFTS[j, k, o]: displacement of angle j at stencil offset o along axis k
_SHIFTS = np.eye(3)[:, :, None] * _OFFSETS


def _angle_stencil(phi: np.ndarray, h: float) -> np.ndarray:
    """The displaced angles (3, 3, 4) + S of ``phi`` (3,) + S, four along
    each axis."""
    return phi[:, None, None] + (_SHIFTS * h).reshape((3, 3, 4) + (1,) * (phi.ndim - 1))


def _angle_derivatives(v, phi: np.ndarray, h: float) -> np.ndarray:
    """d field / d phi_k for k = 1..3, T + (3,) + S, from the field's values
    ``v`` on ``_angle_stencil(phi, h)``, T + (3, 4) + S (fewer axes for a
    field constant in the angles)."""
    nd = phi.ndim - 1
    if np.ndim(v) < nd + 2:  # a field constant in the angles
        v = np.broadcast_to(v, np.broadcast_shapes((3, 4) + phi.shape[1:], np.shape(v)))
    return _combine([v[(..., o) + (slice(None),) * nd] for o in range(4)], h)


def _images(v, phi: np.ndarray, h: float, rows=slice(None), coef=None) -> np.ndarray:
    """The generators of ``rows`` (an index into :data:`EULER_OPS` that
    keeps the row axis) at ``phi``, from a field's values ``v`` on its
    stencil, (R,) + T + S: the coefficient table is sliced before its
    product and sum, whose reduction axis keeps its place, so each row is
    bit for bit that row of all six.  ``coef`` is the caller's
    ``_coefficients`` of the same angles, of any padding, else it is built
    here."""
    coef = (_coefficients(phi) if coef is None
            else np.reshape(coef, coef.shape[:2] + phi.shape[1:]))[rows]
    der = _angle_derivatives(v, phi, h)
    nt = der.ndim - coef.ndim + 1
    coef = coef.reshape(coef.shape[:1] + (1,) * nt + coef.shape[1:])
    return 1j * (coef * der).sum(axis=nt + 1)


def _nested(field, phi: np.ndarray, h: float, rows=slice(None), coef=None) -> np.ndarray:
    """X_a X_b field at ``phi`` for every pair of generators of ``rows``,
    (R, R) + T + S: the outer images of the inner images on the stencil,
    from one field call on the nested stencil, 144 points per angle.
    ``coef`` is as :func:`_images` takes it, at ``phi``."""
    st = _angle_stencil(phi, h)
    return _images(_images(field(_angle_stencil(st, h)), st, h, rows), phi, h, rows, coef)


def apply_euler_op(
    which,
    field: Callable[[np.ndarray], np.ndarray],
    phi: np.ndarray,
    h: float,
) -> np.ndarray:
    """Generators applied to a field over the angle chart at ``phi``, from
    one field call on its stencil: ``which`` names one (T + S) or is a
    sequence of names (one row each, in that order; :data:`EULER_OPS` gives
    all six images (6,) + T + S).  Only the named rows are formed.  Raises
    :class:`PolarSingularity` where |sin(phi3)| < 1e-8.
    """
    names = [which] if isinstance(which, str) else which
    images = _images(field(_angle_stencil(phi, h)), phi, h, list(map(EULER_OPS.index, names)))
    return images[0] if isinstance(which, str) else images


# the rows of each triple in EULER_OPS
_FAMILY = {"T": slice(0, 3), "Q": slice(3, 6)}


def _casimir(nested: np.ndarray, family: str):
    """The family's Casimir from the diagonal of a nested table that holds
    all six rows or the family's three alone: the Q rows are the last three
    in either, the T rows the first."""
    k = len(nested) - 3 if family == "Q" else 0
    return nested[k, k] + nested[k + 1, k + 1] + nested[k + 2, k + 2]


def casimir(
    family: str,
    field: Callable[[np.ndarray], np.ndarray],
    phi: np.ndarray,
    h: float,
) -> np.ndarray:
    """(X1 X1 + X2 X2 + X3 X3) field at ``phi`` for the triple X = T or Q,
    T + S: the family's three inner images and their 3 x 3 outer images,
    whose diagonal it sums."""
    return _casimir(_nested(field, phi, h, _FAMILY[family]), family)


def coupled_q(row, images: np.ndarray):
    """(row[..., 0] Q1 + row[..., 1] Q2 + row[..., 2] Q3) field, read from
    the last three rows of the field's images: all six
    (``apply_euler_op(EULER_OPS, ...)``, (6,) + T + S) or the Q rows alone.

    ``row`` has shape R + (3,); the result has the broadcast shape of R and
    T + S (one row per base point of a field over (x, angles), say, or per
    sample of a batch).
    """
    q = images[-3:]
    row = np.asarray(row)
    return row[..., 0] * q[0] + row[..., 1] * q[1] + row[..., 2] * q[2]


def _padded(lam, xs: np.ndarray, phi: np.ndarray):
    """:func:`momentum`'s axes, points and angles, padded to its batch."""
    lam = np.asarray(lam)
    nb = max(np.ndim(xs) - 1, phi.ndim - 1, 0 if lam.ndim == 1 else lam.ndim)
    if lam.ndim == 1:  # the axes in front of the batch
        lam = lam.reshape(lam.shape + (1,) * nb)
    xs = np.reshape(xs, (1,) * (nb + 1 - np.ndim(xs)) + np.shape(xs))
    # the angles' component axis stays in front of their padding
    return lam, xs, phi.reshape(phi.shape[:1] + (1,) * (nb + 1 - phi.ndim) + phi.shape[1:])


def momentum(
    lam,
    field: Callable[[np.ndarray, np.ndarray], np.ndarray],
    potential: np.ndarray,
    xs: np.ndarray,
    phi: np.ndarray,
    h: float,
    q_images: np.ndarray | None = None,
    coef: np.ndarray | None = None,
) -> np.ndarray:
    """P_lam f = -i d f/dx_lam + sum_k A[lam, k] Q_k f at (xs, phi).

    ``xs`` has shape B + (5,) and the angles (3,) + S.  ``lam`` is an axis,
    a 1-D array of axes L, giving L + broadcast(B, S), or an array of axes
    that broadcasts against B and S, giving their broadcast shape: each
    point is displaced along its own axis and meets its own row of the
    potential.  The points and angles (behind their component axis) are
    left-padded with unit axes to the rank of that batch, which trails the
    stencils' axes; the batch itself is never materialised, so x-only work
    (a field's x part) runs at the size of B and angle-only work at the
    size of S, and the two meet by broadcasting inside the field.
    ``field(ys, angles)`` maps base
    points B' + (5,) and angles (3,) + S' to the broadcast shape of B' and S' (a
    field constant in either broadcasts); it is called once on the
    displaced points of all axes and once over the angle stencil, whose
    coefficient table and Q images (the only rows formed) serve every axis,
    unless the caller passes them as ``q_images``: the Q images of
    ``field(xs, .)`` at the padded ``phi``.  ``potential`` holds the
    potential's values at ``xs``, B + (5, 3), and is padded as ``xs`` is.
    ``h`` is the step of every stencil.  ``coef``, the coefficient table of
    the angles (any padding), spares building it for the Q images.
    """
    lam, xs, phi = _padded(lam, xs, phi)
    potential = np.reshape(potential, (1,) * (xs.ndim + 1 - np.ndim(potential))
                           + np.shape(potential))
    der = _stencil(lambda ys: field(ys, phi), xs, _AXES[lam], h)
    row = np.choose(lam[..., None], np.moveaxis(potential, -2, 0))
    if q_images is None:
        q_images = _images(field(xs, _angle_stencil(phi, h)), phi, h, _FAMILY["Q"], coef)
    return -1j * der + coupled_q(row, q_images)


def commutator_residuals(relations, field, phi: np.ndarray, h: float):
    """|([a, b] - coef*op) field| for each relation (a, b, (coef, op_name))
    (op_name None: the commutator itself should vanish), (R,) + T + S, read
    from one nested and one first-order application, both at step ``h``,
    of the generators the relations name (one family's closure: its 3 x 3
    block)."""
    rows = sorted({EULER_OPS.index(n) for a, b, (_, op) in relations for n in (a, b, op) if n})
    coef = _coefficients(phi)
    nested = _nested(field, phi, h, rows, coef)
    images = _images(field(_angle_stencil(phi, h)), phi, h, rows, coef)
    ix = lambda name: rows.index(EULER_OPS.index(name))
    return np.array([
        np.abs(nested[ix(a), ix(b)] - nested[ix(b), ix(a)]
               - (0.0 if op is None else coef * images[ix(op)]))
        for a, b, (coef, op) in relations
    ])


def casimir_residual(
    field: Callable[[np.ndarray], np.ndarray], phi: np.ndarray, h: float
) -> np.ndarray:
    """|(sum_k T_k T_k - sum_k Q_k Q_k) field| at each angle of ``phi``,
    T + S, from one nested application at step ``h``."""
    nested = _nested(field, phi, h)
    return abs(_casimir(nested, "T") - _casimir(nested, "Q"))


# --- identities linking the two pictures ------------------------------------

def pullback(
    field_xphi: Callable[[np.ndarray, np.ndarray], complex], case: AngleCase
) -> Callable[[np.ndarray], complex]:
    """Compose a base-space field with the map: xi -> f(x(xi), phi(xi)), a
    complex-space field over stacks of xi.

    The composition is smooth only for fields 2pi-periodic in phi1/phi2
    (the angle chart wraps); all built-in test fields satisfy this.
    """

    def g(xi: np.ndarray) -> np.ndarray:
        return field_xphi(forward(xi), extra_angles(xi, case))

    return g


def _big_d(xi, dh, da):
    """The five contractions (gamma_l xi).Dholo + conj(gamma_l xi).Danti,
    (5,) + B for ``xi``, ``dh`` and ``da`` of shape B + (4,)."""
    # C-ordered, as the sums over s round by memory order
    v = np.moveaxis(_gamma_xi(xi), -2, 0).copy()
    return (v * dh).sum(axis=-1) + (np.conj(v) * da).sum(axis=-1)


def identity_residual(
    which: str,
    case: AngleCase,
    xi: np.ndarray,
    field,
    h: float,
):
    """Residual of one cross-picture operator identity at each point.

    which:
      "phase_constraint"     max_k |(xi.grad - xi*.grad*) f_k + 2i d_1k|
                             (field argument unused);
      "derivative_split"     both sides of the first-order split of the
                             complex derivative into base + fiber parts,
                             with the fiber coefficients from the numeric
                             pipeline; relative, max over the five axes;
      "momentum_equivalence" the momentum operator written with the
                             closed-form potential and right generators
                             against its complex-space form; relative;
      "laplacian_split"      the second-order split: r p^2 + Casimir/r
                             against minus the complex Laplacian; relative.
                             p^2 = sum_lam P_lam P_lam f in axis order, one
                             momentum of the five-axis momentum, each axis's
                             points displaced along that axis alone.

    ``xi`` is one point (4,), giving a float, or a stack B + (4,), giving one
    residual per point, each scaled by its own point's values.  ``field``
    is a field over (x, angles) for the last three identities.  ``h`` is
    the step of every stencil of the identity.
    """
    from .gauge import a_field_closed, a_tilde  # deferred: gauge imports opcalc

    xi = np.asarray(xi, dtype=complex)
    if which == "phase_constraint":
        D, Dbar = fiber_phase_gradients(xi, case, h)
        lhs = (D * xi[..., None, :] - Dbar * xi.conj()[..., None, :]).sum(axis=-1)
        target = np.array([-2j, 0.0, 0.0])
        return np.abs(lhs - target).max(axis=-1)[()]

    x = forward(xi)
    r = _row_norms(x)[()]
    phi = extra_angles(xi, case)
    g = pullback(field, case)
    potential = lambda ys: a_field_closed(ys, case)

    if which == "derivative_split":
        dh, da = wirtinger_gradients(g, xi, h)
        lhs = 0.5 * _big_d(xi, dh, da)
        at = np.moveaxis(a_tilde(xi, case, h), -2, 0)
        xgrad = _stencil(lambda ys: field(ys, phi), x, _AXES, h)
        pgrad = _angle_derivatives(field(x, _angle_stencil(phi, h)), phi, h)
        rhs = r * (xgrad + sum(at[..., k] * pgrad[k] for k in range(3)))
        return _rel_max(lhs, rhs, xi.ndim - 1)

    if which == "momentum_equivalence":
        lhs = momentum(np.arange(5), field, potential(x), x, phi, h)
        dh, da = wirtinger_gradients(g, xi, h)
        rhs = (-1j / (2.0 * r)) * _big_d(xi, dh, da)
        return _rel_max(lhs, rhs, xi.ndim - 1)

    if which == "laplacian_split":
        q = _FAMILY["Q"]
        # the axes as a batch axis (not 1-D, which would also go in front of
        # the outer stencil): axis lam's points meet only their own P_lam f
        axes = np.arange(5).reshape((5,) + (1,) * max(xi.ndim - 1, 1))
        _, xs, phi = _padded(axes, x, phi)
        # f once on the nested stencil: its Q images on the stencil are the
        # inner momentum's angle side there and the Casimir's inner images
        st = _angle_stencil(phi, h)
        q_st = _images(field(xs, _angle_stencil(st, h)), st, h, q)
        a_xs = potential(xs)  # the rows of both momenta at xs
        # one coefficient table of the angles for every image taken there
        coef = _coefficients(phi)
        inner = lambda ys, ang: momentum(axes, field, potential(ys), ys, ang, h, coef=coef)
        outer = momentum(axes, inner, a_xs, xs, phi, h,
                         _images(momentum(axes, field, a_xs, xs, st, h, q_st), phi, h, q, coef))
        qsq = _casimir(_images(q_st, phi, h, q, coef), "Q")
        # p^2 summed in axis order, as a running total
        lhs = (r * sum(outer) + qsq / r).reshape(np.shape(r))
        rhs = -xi_laplacian(g, xi, h)
        return _rel_max(lhs, rhs, xi.ndim - 1)

    raise ValueError(f"unknown identity {which!r}")


def _rel_max(lhs, rhs, nb: int):
    """max |lhs - rhs| / max(1, max |lhs|, max |rhs|) over the axes in front
    of the ``nb`` batch axes: one scale per sample, not per batch."""
    axes = tuple(range(np.ndim(lhs) - nb))
    big = lambda v: np.abs(v).max(axis=axes)
    return (big(lhs - rhs) / np.maximum(1.0, np.maximum(big(lhs), big(rhs))))[()]


def _check_omega(omega) -> None:
    if not np.all(np.asarray(omega) > 0.0):
        raise ValueError("omega must be positive")


def oscillator_apply(
    omega,
    field: Callable[[np.ndarray], np.ndarray],
    xi: np.ndarray,
    h: float,
) -> np.ndarray:
    """Apply the oscillator Hamiltonian -laplacian/2 + omega^2 |xi|^2 / 2 at
    ``xi`` B + (4,), B + T; ``omega`` is a float or one value per point, B.
    Raises ``ValueError`` unless every omega is positive."""
    _check_omega(omega)
    xi = np.asarray(xi, dtype=complex)
    r = np.vecdot(xi, xi).real
    return -0.5 * xi_laplacian(field, xi, h) + 0.5 * omega**2 * r * field(xi)


def radial_duality_residual(omega, x: np.ndarray, h: float):
    """Residual of the base-space eigenrelation for psi = exp(-omega r).

    For angle-independent fields the transformed equation reduces to
    -laplacian_5/2 - Z/r acting on psi with eigenvalue E, where
    Z = 2 omega and E = -omega^2 / 2; the 5-axis Laplacian is one
    second-order stencil call along the base axes.  Relative to |psi|.
    ``x`` is a stack B + (5,), giving B, with ``omega`` a float or of shape
    B (one per point); a point (5,) is evaluated as a one-row stack, giving
    a float.  Raises ``ValueError`` unless every omega is positive.
    """
    _check_omega(omega)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return radial_duality_residual(omega, x[None], h)[0]
    psi = lambda y: np.exp(-omega * _row_norms(y))
    lap = sum(_stencil(psi, x, _AXES, h, order=2))
    r = _row_norms(x)
    val = -0.5 * lap - (2.0 * omega / r) * psi(x)
    return np.abs(val - (-0.5 * omega * omega) * psi(x)) / psi(x)
