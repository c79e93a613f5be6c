"""Numerical differential-operator engine.

Evaluates the two su(2) rotor triples (left and right generators on the
fiber angles), the momentum operator, and the oscillator Hamiltonian on
sample scalar fields, entirely through central finite differences, and
measures residuals of the operator identities tying the complex-space and
base-space pictures together.

Derivatives with respect to a complex coordinate use the Wirtinger
convention throughout:

    d/dxi  = (d/dRe - i d/dIm) / 2,      d/dxi* = (d/dRe + i d/dIm) / 2.

Fields over the angle chart are treated as functions on R^3 (finite
differences displace angles without folding), so angle-periodic test
fields are expected.  Phase-type fiber functions are differentiated via
their unit-modulus exponentials, which keeps every stencil away from
branch cuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import PolarSingularity
from .transform import (
    GAMMA,
    AngleCase,
    EulerAngles,
    extra_angles,
    forward,
    invariant_products,
)

__all__ = [
    "DiffStrategy",
    "OscillatorParams",
    "first_derivative",
    "second_derivative",
    "wirtinger_gradients",
    "xi_laplacian",
    "fiber_phase_gradients",
    "apply_T",
    "AngleField",
    "point_memo",
    "slices",
    "apply_euler_op",
    "casimir",
    "coupled_q",
    "momentum",
    "commutator_residual",
    "casimir_residual",
    "identity_residual",
    "oscillator_apply",
    "radial_duality_residual",
    "pullback",
    "EULER_OPS",
]


@dataclass(frozen=True)
class DiffStrategy:
    """Finite-difference controls.

    ``step`` drives first derivatives, ``step2`` second derivatives and
    nested applications (where the larger step keeps the roundoff noise of
    the inner evaluation from being amplified by the outer stencil).
    """

    step: float = 1e-5
    step2: float = 1e-4

    def __post_init__(self):
        if self.step <= 0.0 or self.step2 <= 0.0:
            raise ValueError("finite-difference steps must be positive")

    def nested(self) -> "DiffStrategy":
        return replace(self, step=self.step2)


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency, coupling strength and energy of the oscillator side."""

    omega: float
    Z: float
    E: float

    @classmethod
    def from_omega(cls, omega: float) -> "OscillatorParams":
        if omega <= 0.0:
            raise ValueError("omega must be positive")
        return cls(omega=omega, Z=2.0 * omega, E=-0.5 * omega * omega)


def first_derivative(f: Callable[[float], complex], h: float) -> complex:
    """Fourth-order central difference of f at 0 with step h."""
    # symmetric grouping keeps the stencil exact on constants
    return ((f(-2 * h) - f(2 * h)) + 8.0 * (f(h) - f(-h))) / (12.0 * h)


def second_derivative(f: Callable[[float], complex], h: float) -> complex:
    """Fourth-order central second difference of f at 0 with step h."""
    return (
        -(f(-2 * h) + f(2 * h)) + 16.0 * (f(-h) + f(h)) - 30.0 * f(0.0)
    ) / (12.0 * h * h)


def wirtinger_gradients(
    field: Callable[[np.ndarray], complex], xi: np.ndarray, d: DiffStrategy
) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic and antiholomorphic gradients of a complex-space field."""
    xi = np.asarray(xi, dtype=complex)
    dholo = np.zeros(4, dtype=complex)
    danti = np.zeros(4, dtype=complex)
    for s in range(4):
        e = np.zeros(4, dtype=complex)
        e[s] = 1.0
        g_re = first_derivative(lambda t: field(xi + t * e), d.step)
        g_im = first_derivative(lambda t: field(xi + 1j * t * e), d.step)
        dholo[s] = 0.5 * (g_re - 1j * g_im)
        danti[s] = 0.5 * (g_re + 1j * g_im)
    return dholo, danti


def xi_laplacian(
    field: Callable[[np.ndarray], complex], xi: np.ndarray, d: DiffStrategy
) -> complex:
    """sum_s d^2 f / dxi_s dxi_s* via the 8 real second derivatives."""
    xi = np.asarray(xi, dtype=complex)
    total = 0.0 + 0.0j
    for s in range(4):
        e = np.zeros(4, dtype=complex)
        e[s] = 1.0
        total += second_derivative(lambda t: field(xi + t * e), d.step2)
        total += second_derivative(lambda t: field(xi + 1j * t * e), d.step2)
    return 0.25 * total


def fiber_phase_gradients(
    xi: np.ndarray, case: AngleCase, d: DiffStrategy
) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger gradients of the three angle functions at a point.

    Each angle f_k is differentiated through its unit-modulus exponential
    g_k = exp(i f_k), which is smooth wherever the fiber is non-degenerate:
    grad f_k = -i (grad g_k) / g_k.  Returns (D, Dbar) of shape (3, 4) with
    D[k, s] = df_k/dxi_s and Dbar[k, s] = df_k/dxi_s*.
    """
    xi = np.asarray(xi, dtype=complex)
    ia, ib = case.pair
    offsets = case.offsets

    def g_k(k: int) -> Callable[[np.ndarray], complex]:
        def g(z: np.ndarray) -> complex:
            a, b = z[ia], z[ib]
            if k == 0:
                val = (a / abs(a)) * (b / abs(b))
            elif k == 1:
                val = (a / abs(a)) * (np.conj(b) / abs(b))
            else:
                u, v = abs(a) ** 2, abs(b) ** 2
                val = ((u - v) + 2j * math.sqrt(u * v)) / (u + v)
            if offsets is not None:
                val *= np.exp(1j * float(offsets[k](invariant_products(z))))
            return val

        return g

    D = np.zeros((3, 4), dtype=complex)
    Dbar = np.zeros((3, 4), dtype=complex)
    for k in range(3):
        g = g_k(k)
        g0 = g(xi)
        dh, da = wirtinger_gradients(g, xi, d)
        D[k] = -1j * dh / g0
        Dbar[k] = -1j * da / g0
    return D, Dbar


# --- rotor generators -------------------------------------------------------

def apply_T(
    k: int, field: Callable[[np.ndarray], complex], xi: np.ndarray, d: DiffStrategy
) -> complex:
    """Apply the complex-space realization of the k-th left generator.

    T1 is the phase Euler operator (xi.d - xi*.d*)/2; T2 and T3 contract
    the gradients with the antisymmetric companion matrix.
    """
    xi = np.asarray(xi, dtype=complex)
    dh, da = wirtinger_gradients(field, xi, d)
    if k == 1:
        return 0.5 * (xi @ dh - xi.conj() @ da)
    w = GAMMA.gamma_tilde @ xi
    wc = np.conj(w)
    if k == 2:
        return 0.5j * (w @ da + wc @ dh)
    if k == 3:
        return 0.5 * (w @ da - wc @ dh)
    raise ValueError("k must be 1, 2 or 3")


def _t1(phi):
    return (-1j, 0.0, 0.0)


def _t2(phi):
    c1, s3 = math.cos(phi.phi1), math.sin(phi.phi3)
    return (-1j * c1 * math.cos(phi.phi3) / s3, 1j * c1 / s3, -1j * math.sin(phi.phi1))


def _t3(phi):
    s1, s3 = math.sin(phi.phi1), math.sin(phi.phi3)
    return (-1j * s1 * math.cos(phi.phi3) / s3, 1j * s1 / s3, 1j * math.cos(phi.phi1))


def _q1(phi):
    return (0.0, -1j, 0.0)


def _q2(phi):
    c2, s3 = math.cos(phi.phi2), math.sin(phi.phi3)
    return (-1j * c2 / s3, 1j * c2 * math.cos(phi.phi3) / s3, 1j * math.sin(phi.phi2))


def _q3(phi):
    s2, s3 = math.sin(phi.phi2), math.sin(phi.phi3)
    return (-1j * s2 / s3, 1j * s2 * math.cos(phi.phi3) / s3, -1j * math.cos(phi.phi2))


# Closed-form first-order coefficients of the six generators in the angle
# chart.  The left triple (T*) is the image of the right triple (Q*) under
# the involution phi1 <-> phi2, phi3 -> -phi3; both triples close with
# structure constants +i eps and commute with each other (suite-verified).
EULER_OPS = {"T1": _t1, "T2": _t2, "T3": _t3, "Q1": _q1, "Q2": _q2, "Q3": _q3}


class AngleField:
    """A field over the angle chart that evaluates each distinct input once.

    Values are memoized by the exact angles, first derivatives by
    (angles, axis, step), and generator images (``applied``) by
    (generator, step).  Operators applied at one point therefore
    share their stencils, while every stored number comes from the same
    arithmetic as an unmemoized evaluation.  The memo lives as long as the
    object: create one per residual evaluation.
    """

    __slots__ = ("_field", "_values", "_derivs", "_images")

    def __init__(self, field: Callable[[EulerAngles], complex]):
        self._field = field
        self._values: dict = {}
        self._derivs: dict = {}
        self._images: dict = {}

    # keys hold the angles as a plain tuple: hashing it is cheaper than
    # hashing the dataclass, and it compares equal on exactly the same angles
    def __call__(self, phi: EulerAngles) -> complex:
        key = (phi.phi1, phi.phi2, phi.phi3)
        val = self._values.get(key)
        if val is None:
            val = self._values[key] = self._field(phi)
        return val

    def derivative(self, phi: EulerAngles, k: int, d: DiffStrategy) -> complex:
        """First derivative along angle k (0-based) at phi."""
        key = (phi.phi1, phi.phi2, phi.phi3, k, d.step)
        der = self._derivs.get(key)
        if der is None:
            der = self._derivs[key] = first_derivative(
                lambda t: self(phi.shifted(k, t)), d.step
            )
        return der

    def applied(self, which: str, d: DiffStrategy) -> "AngleField":
        """The field ``which`` applied to this one, itself memoized."""
        key = (which, d.step)
        img = self._images.get(key)
        if img is None:
            img = self._images[key] = AngleField(
                lambda p: apply_euler_op(which, self, p, d)
            )
        return img


def _angle_field(field: Callable[[EulerAngles], complex]) -> AngleField:
    """``field`` itself if it is already memoized, else a fresh wrapper."""
    return field if isinstance(field, AngleField) else AngleField(field)


def apply_euler_op(
    which: str,
    field: Callable[[EulerAngles], complex],
    phi: EulerAngles,
    d: DiffStrategy,
) -> complex:
    """Apply one generator to a field over the angle chart at a point.

    Pass an :class:`AngleField` to share derivatives with other generators
    applied to the same field.  Raises :class:`PolarSingularity` where
    |sin(phi3)| < 1e-8.
    """
    if abs(math.sin(phi.phi3)) < 1e-8:
        raise PolarSingularity("sin(phi3) below 1e-08")
    field = _angle_field(field)
    coeffs = EULER_OPS[which](phi)
    out = 0.0 + 0.0j
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        out += c * field.derivative(phi, k, d)
    return out


def casimir(
    family: str,
    field: Callable[[EulerAngles], complex],
    phi: EulerAngles,
    d: DiffStrategy,
) -> complex:
    """(X1 X1 + X2 X2 + X3 X3) field at phi for the triple X = T or Q."""
    field = _angle_field(field)
    return sum(
        apply_euler_op(which, field.applied(which, d), phi, d)
        for which in (f"{family}1", f"{family}2", f"{family}3")
    )


def coupled_q(row, field: AngleField, phi: EulerAngles, d: DiffStrategy) -> complex:
    """(row[0] Q1 + row[1] Q2 + row[2] Q3) field at phi, through field's images."""
    return sum(row[k] * field.applied(f"Q{k + 1}", d)(phi) for k in range(3))


def momentum(
    lam: int,
    slices: Callable[[np.ndarray], AngleField],
    potential: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    phi: EulerAngles,
    d: DiffStrategy,
) -> complex:
    """P_lam f = -i d f/dx_lam + sum_k A[lam, k] Q_k f at (x, phi).

    ``slices`` maps a base point y to the angle field f(y, .) (see
    :func:`slices`) and ``potential`` a base point to its 5x3 potential.
    """
    e = np.zeros(5)
    e[lam] = 1.0
    der = first_derivative(lambda t: slices(x + t * e)(phi), d.step)
    return -1j * der + coupled_q(potential(x)[lam], slices(x), phi, d)


def commutator_residual(
    a: str,
    b: str,
    expected: tuple[complex, str | None],
    field: Callable[[EulerAngles], complex],
    phi: EulerAngles,
    d: DiffStrategy,
) -> float:
    """|([a, b] - coef*op) field| at a point, using nested applications.

    ``expected`` is (coef, op_name); op_name None means the commutator
    itself should vanish.  The nested level reuses ``step2``.
    """
    dn = d.nested()
    base = _angle_field(field)
    val = apply_euler_op(a, base.applied(b, dn), phi, dn) - apply_euler_op(
        b, base.applied(a, dn), phi, dn
    )
    coef, name = expected
    if name is not None:
        val -= coef * apply_euler_op(name, base, phi, dn)
    return abs(val)


def casimir_residual(
    field: Callable[[EulerAngles], complex], phi: EulerAngles, d: DiffStrategy
) -> float:
    """|(sum_k T_k T_k - sum_k Q_k Q_k) field| at a point."""
    dn = d.nested()
    base = _angle_field(field)
    return abs(casimir("T", base, phi, dn) - casimir("Q", base, phi, dn))


# --- identities linking the two pictures ------------------------------------

def pullback(
    field_xphi: Callable[[np.ndarray, EulerAngles], complex], case: AngleCase
) -> Callable[[np.ndarray], complex]:
    """Compose a base-space field with the map: xi -> f(x(xi), phi(xi)).

    The composition is smooth only for fields 2pi-periodic in phi1/phi2
    (the angle chart wraps); all built-in test fields satisfy this.
    """

    def g(xi: np.ndarray) -> complex:
        pt = forward(xi)
        return field_xphi(pt.x, extra_angles(xi, case))

    return g


def _x_gradient(field, x, phi, lam, d: DiffStrategy) -> complex:
    e = np.zeros(5)
    e[lam] = 1.0
    return first_derivative(lambda t: field(x + t * e, phi), d.step)


def _phi_gradient(field, x, phi, k, d: DiffStrategy) -> complex:
    return first_derivative(lambda t: field(x, phi.shifted(k, t)), d.step)


def _big_d(xi, dh, da):
    """The five contractions (gamma_l xi).Dholo + conj(gamma_l xi).Danti."""
    v = np.einsum("lst,t->ls", GAMMA.gamma, xi)
    return v @ dh + np.conj(v) @ da


def identity_residual(
    which: str,
    case: AngleCase,
    xi: np.ndarray,
    field,
    d: DiffStrategy,
) -> float:
    """Residual of one cross-picture operator identity at a point.

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

    ``field`` is a field over (x, angles) for the last three identities.
    """
    from .gauge import a_field_closed, a_tilde  # deferred: gauge imports opcalc

    xi = np.asarray(xi, dtype=complex)
    if which == "phase_constraint":
        D, Dbar = fiber_phase_gradients(xi, case, d)
        lhs = xi @ D.T - xi.conj() @ Dbar.T
        target = np.array([-2j, 0.0, 0.0])
        return float(np.abs(lhs - target).max())

    pt = forward(xi)
    phi = extra_angles(xi, case)
    g = pullback(field, case)
    potential = point_memo(lambda y: a_field_closed(y, case).A)

    if which == "derivative_split":
        dh, da = wirtinger_gradients(g, xi, d)
        lhs = 0.5 * _big_d(xi, dh, da)
        at = a_tilde(xi, case, d)
        xgrad = np.array([_x_gradient(field, pt.x, phi, lam, d) for lam in range(5)])
        pgrad = np.array([_phi_gradient(field, pt.x, phi, k, d) for k in range(3)])
        rhs = pt.r * (xgrad + at @ pgrad)
        return _rel_max(lhs, rhs)

    if which == "momentum_equivalence":
        base = slices(field)
        lhs = np.array(
            [momentum(lam, base, potential, pt.x, phi, d) for lam in range(5)]
        )
        dh, da = wirtinger_gradients(g, xi, d)
        rhs = (-1j / (2.0 * pt.r)) * _big_d(xi, dh, da)
        return _rel_max(lhs, rhs)

    if which == "laplacian_split":
        dn = d.nested()
        base = slices(field)

        def p_field(lam: int):
            # P_lam f as a field over (x, angles), sliced for the outer P_lam
            return slices(lambda y, ph: momentum(lam, base, potential, y, ph, dn))

        p_sq = sum(
            momentum(lam, p_field(lam), potential, pt.x, phi, dn) for lam in range(5)
        )
        lhs = pt.r * p_sq + casimir("Q", base(pt.x), phi, dn) / pt.r
        rhs = -xi_laplacian(g, xi, d)
        return _rel_max(lhs, rhs)

    raise ValueError(f"unknown identity {which!r}")


def point_memo(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``fn`` over base points, evaluated once per exact point (its bytes)."""
    memo: dict = {}

    def at(x: np.ndarray):
        key = x.tobytes()
        val = memo.get(key)
        if val is None:
            val = memo[key] = fn(x)
        return val

    return at


def slices(field_xphi) -> Callable[[np.ndarray], AngleField]:
    """x -> the angle field field_xphi(x, .), memoized per exact base point."""
    return point_memo(lambda x: AngleField(lambda p: field_xphi(x, p)))


def _rel_max(lhs, rhs) -> float:
    lhs = np.atleast_1d(np.asarray(lhs))
    rhs = np.atleast_1d(np.asarray(rhs))
    scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return float(np.abs(lhs - rhs).max()) / scale


def oscillator_apply(
    p: OscillatorParams,
    field: Callable[[np.ndarray], complex],
    xi: np.ndarray,
    d: DiffStrategy,
) -> complex:
    """Apply the oscillator Hamiltonian -laplacian/2 + omega^2 |xi|^2 / 2."""
    xi = np.asarray(xi, dtype=complex)
    r = float(np.real(xi @ xi.conj()))
    return -0.5 * xi_laplacian(field, xi, d) + 0.5 * p.omega**2 * r * field(xi)


def radial_duality_residual(
    p: OscillatorParams, x: np.ndarray, d: DiffStrategy
) -> float:
    """Residual of the base-space eigenrelation for psi = exp(-omega r).

    For angle-independent fields the transformed equation reduces to
    -laplacian_5/2 - Z/r acting on psi with eigenvalue E; the 5-axis
    Laplacian is evaluated by finite differences.  Relative to |psi|.
    """
    x = np.asarray(x, dtype=float)

    def psi(y: np.ndarray) -> float:
        return math.exp(-p.omega * float(np.linalg.norm(y)))

    lap = 0.0
    for lam in range(5):
        e = np.zeros(5)
        e[lam] = 1.0
        lap += second_derivative(lambda t: psi(x + t * e), d.step2)
    r = float(np.linalg.norm(x))
    val = -0.5 * lap - (p.Z / r) * psi(x)
    return abs(val - p.E * psi(x)) / psi(x)
