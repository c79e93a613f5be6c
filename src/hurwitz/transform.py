"""The quadratic 8-to-5 map and its fiber coordinates.

The forward map sends a point of C^4 (equivalently R^8) to R^5 through the
Hermitian forms x_l = xi^dag gamma_l xi.  It preserves the norm relation
|x| = xi.xi*, and its 3-dimensional fibers are parameterized by three Euler
angles built from the phases and moduli of one complex pair:

    case A uses (xi_1, xi_2),   case B uses (xi_3, xi_4),

optionally shifted by user-supplied offsets that depend only on the
invariant products xi_j xi_k*.  ``forward``, ``extra_angles`` and
``invariant_products`` take one point (4,) or a stack B + (4,) and return
one value per row; the finite-difference engine evaluates its
complex-space stencils that way.  ``fiber_section`` is a closed-form right
inverse of (forward, extra_angles): the chosen pair is rebuilt from the
moduli/phases dictated by (x, angles) and the remaining pair is the unique
solution of a 2x2 linear system; its angles are re-checked.

``forward_octet`` is the same map written over 8 real coordinates with its
own historical axis ordering; ``OCTET_CONVENTION`` declares the pairing,
axis permutation and signs that identify the two forms, and the suite's
``octet_convention`` check measures it (the octet x3 line is reconstructed
here so that the norm identity holds; see the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .clifford import build_gamma
from .errors import DegenerateFiber, SectionFailed, SingularFiber

__all__ = [
    "GAMMA",
    "GAMMA_TILDE",
    "AngleCase",
    "CASE_A",
    "CASE_B",
    "ConventionMap",
    "OCTET_CONVENTION",
    "forward",
    "forward_octet",
    "extra_angles",
    "fiber_section",
    "invariant_products",
]

GAMMA, GAMMA_TILDE = build_gamma()


def _unit_tables(gamma: np.ndarray):
    """Each row's nonzero column and entry, (5, 4) each (column 0, entry 0 on a zero row)."""
    cols = np.argmax(gamma != 0, axis=-1)
    return cols, np.take_along_axis(gamma, cols[..., None], axis=-1)[..., 0]


# gamma_l xi is a gather: each row of each gamma_l holds one unit entry
_UNIT_COLS, _UNITS = _unit_tables(GAMMA)
assert (np.count_nonzero(GAMMA, axis=-1) == 1).all() and (np.abs(_UNITS) == 1).all()


def _gamma_xi(xi: np.ndarray) -> np.ndarray:
    """gamma_l xi, B + (5, 4): xi by each row's unit column, times the unit (an
    infinite component gives the dense product's NaN, but no invalid flag)."""
    with np.errstate(invalid="ignore"):
        return _UNITS * xi.take(_UNIT_COLS, axis=-1)


def _forms(xi: np.ndarray) -> np.ndarray:
    """The forms xi^dag gamma_l xi, B + (5,), gathered 1024 points (320 kB) at a time."""
    flat = xi.reshape(-1, 4)
    x = np.empty((len(flat), 5), dtype=complex)
    for i in range(0, len(flat), 1024):
        part = flat[i:i + 1024]
        x[i:i + 1024] = np.einsum("ns,nls->nl", part.conj(), _gamma_xi(part))
    return x.reshape(xi.shape[:-1] + (5,))


TWO_PI = 2.0 * math.pi


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row x[..., :], B for x of shape B + (n,).

    On rows of unit stride the dot sums in the order np.linalg.norm uses on
    one row, so every row's norm equals its own one-row norm bit for bit (a
    column-major stack rounds differently).
    """
    return np.sqrt(np.vecdot(x, x))


def _uniform(rng: np.random.Generator, lo, hi, size):
    """``rng.uniform(lo, hi, size)`` bit for bit, at the cost of
    ``rng.random(size)``: numpy computes each uniform draw in C as
    lo + (hi - lo) * next_double, and ``random`` returns those doubles.
    The span is formed as ``hi - lo`` here, as numpy forms it (a literal
    span, 0.4 for 0.6 - 0.2, rounds differently).  Unlike ``rng.uniform``
    it makes no range check: an infinite span gives inf or nan draws, so
    callers take only bounds whose span is finite.  A draw of one value
    goes through :func:`_scalar_draws` instead."""
    return lo + (hi - lo) * rng.random(size)


def _bounded(next_uint32: Callable, state):
    """integer(lo, hi): an integer in [lo, hi) as ``Generator.integers(lo, hi)``
    draws it from ``next_uint32(state)``.  This is numpy's
    ``buffered_bounded_lemire_uint32`` on the range r = hi - lo - 1 (Lemire,
    ACM TOMACS 29(1), 2019): a try m = u (r + 1) is rejected while its low
    32 bits fall below (2^32 - 1 - r) mod (r + 1) = 2^32 mod (r + 1), which
    is below r + 1, and the draw is its high 32 bits.  A range of one value
    draws nothing."""
    def integer(lo, hi):
        span = hi - lo
        if span == 1:
            return lo
        m = next_uint32(state) * span
        if m & 0xFFFFFFFF < span:
            threshold = 0x100000000 % span
            while m & 0xFFFFFFFF < threshold:
                m = next_uint32(state) * span
        return lo + (m >> 32)

    return integer


def _scalar_draws(rng: np.random.Generator):
    """(uniform(lo, hi), integer(lo, hi)): one-value draws equal to
    ``rng.uniform(lo, hi)`` and ``int(rng.integers(lo, hi))`` bit for bit,
    generator state included, through the C ``next_double`` and
    ``next_uint32`` that those calls run, without their Python overhead.
    The ctypes calls bypass ``BitGenerator.lock``: draw from one thread.
    Each function holds the bit generator as its ``bit_generator``
    attribute, so the C state it draws from lives as long as it does."""
    c = rng.bit_generator.ctypes
    next_double, state = c.next_double, c.state_address

    def uniform(lo, hi):
        return lo + (hi - lo) * next_double(state)

    integer = _bounded(c.next_uint32, state)
    uniform.bit_generator = integer.bit_generator = rng.bit_generator
    return uniform, integer


OffsetTriple = tuple[
    Callable[[np.ndarray], float],
    Callable[[np.ndarray], float],
    Callable[[np.ndarray], float],
]


@dataclass(frozen=True)
class AngleCase:
    """Which complex pair defines the fiber angles, plus optional offsets.

    ``offsets``, when present, are three real-valued callables receiving the
    invariant matrices m[..., j, k] = xi_j xi_k* of a stack, shape B + (4, 4)
    (so they cannot depend on the fiber phases by construction), and
    returning one offset per row, shape B (a constant broadcasts); they are
    added to the bare angles.
    """

    tag: str
    offsets: Optional[OffsetTriple] = field(default=None)

    def __post_init__(self):
        if self.tag not in ("A", "B"):
            raise ValueError(f"unknown case tag {self.tag!r}")

    @property
    def pair(self) -> tuple[int, int]:
        """0-based indices of the complex pair carrying the angles."""
        return (0, 1) if self.tag == "A" else (2, 3)

    @property
    def axis_sign(self) -> int:
        """+1 if the singular half-axis is x5 = -r (case A), else -1."""
        return 1 if self.tag == "A" else -1

    def with_offsets(self, offsets: OffsetTriple) -> "AngleCase":
        return AngleCase(self.tag, offsets)


CASE_A = AngleCase("A")
CASE_B = AngleCase("B")


def invariant_products(xi: np.ndarray) -> np.ndarray:
    """The invariant products m[..., j, k] = xi_j xi_k* of ``xi`` B + (4,),
    shape B + (4, 4)."""
    xi = np.asarray(xi, dtype=complex)
    return xi[..., :, None] * xi[..., None, :].conj()


def forward(xi: Sequence[complex]) -> np.ndarray:
    """Evaluate the quadratic map x_l = xi^dag gamma_l xi.

    ``xi`` is one point (4,) or a stack B + (4,), giving x of shape B + (5,);
    each row equals its own single-point call.  The Hermitian forms are real
    up to roundoff; the imaginary part is asserted below
    1e-13 max(1, max_l |x_l|) on every row and discarded.  The guard tests
    the whole stack against 1e-13 first (every row's bound is at least that)
    and runs the per-row test only when that fails, so a NaN or a larger
    part gets its row's own verdict.  Each gamma_l has one unit entry per
    row, so gamma_l xi is a gather of xi; the forms are its sums with xi^dag
    over s, taken 1024 points at a time, and equal the dense contraction bit
    for bit.
    """
    xi = np.asarray(xi, dtype=complex)
    x = _forms(xi)
    # every row's scale is at least 1: a stack within 1e-13 passes whole
    if not np.abs(x.imag).max(initial=0.0) <= 1e-13:
        scale = np.maximum(1.0, np.abs(x).max(axis=-1))
        if np.count_nonzero(np.abs(x.imag).max(axis=-1) > 1e-13 * scale):
            raise FloatingPointError("Hermitian form returned a non-real value")
    return x.real.copy()


def forward_octet(u: Sequence[float]) -> np.ndarray:
    """The same map over 8 real coordinates, in its own axis ordering.

    ``u`` is one octet (8,) or a stack B + (8,), giving x of shape B + (5,);
    each row equals its own one-octet call.  The bilinear forms below
    restore the Euclidean norm identity |x| = sum u_s^2 (the x3 line is the
    corrected one; the tests demonstrate that the nearest variant breaks the
    identity).  Its axes relate to those of :func:`forward` through
    :data:`OCTET_CONVENTION`.
    """
    u1, u2, u3, u4, u5, u6, u7, u8 = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
    return np.stack(
        [
            u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
            - u5 * u5 - u6 * u6 - u7 * u7 - u8 * u8,
            2.0 * (u1 * u5 + u2 * u6 - u3 * u7 - u4 * u8),
            2.0 * (u1 * u6 - u2 * u5 + u3 * u8 - u4 * u7),
            2.0 * (u1 * u7 + u2 * u8 + u3 * u5 + u4 * u6),
            2.0 * (u1 * u8 - u2 * u7 - u3 * u6 + u4 * u5),
        ],
        axis=-1,
    )


@dataclass(frozen=True)
class ConventionMap:
    """Witness identifying the octet form with the complex form.

    xi_s = comp_sign[s] * (u[re_idx[s]] + 1j * im_sign[s] * u[im_idx[s]])
    and, componentwise over octet axes i,
    forward_octet(u)[i] == axis_sign[i] * forward(xi(u))[axis_perm[i]].
    """

    re_idx: tuple[int, int, int, int]
    im_idx: tuple[int, int, int, int]
    im_sign: tuple[int, int, int, int]
    comp_sign: tuple[int, int, int, int]
    axis_perm: tuple[int, int, int, int, int]
    axis_sign: tuple[int, int, int, int, int]

    def xi_of(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        re = u[..., list(self.re_idx)]
        im = u[..., list(self.im_idx)] * np.asarray(self.im_sign)
        return np.asarray(self.comp_sign) * (re + 1j * im)

    def mapped_complex_x(self, u: np.ndarray) -> np.ndarray:
        """forward(xi(u)) re-expressed on the octet axes."""
        xi = self.xi_of(u)
        y = _forms(xi).real
        return np.asarray(self.axis_sign) * y[..., list(self.axis_perm)]

    def residual(self, u_batch: np.ndarray) -> float:
        target = forward_octet(u_batch)
        return float(np.abs(target - self.mapped_complex_x(u_batch)).max())

    def describe(self) -> dict:
        comp = []
        for s in range(4):
            sgn = "-" if self.comp_sign[s] < 0 else ""
            isg = "-" if self.im_sign[s] < 0 else "+"
            comp.append(f"{sgn}(u{self.re_idx[s] + 1} {isg} i*u{self.im_idx[s] + 1})")
        axes = [
            f"{'-' if self.axis_sign[i] < 0 else '+'}y{self.axis_perm[i] + 1}"
            for i in range(5)
        ]
        return {"xi": comp, "octet_axis_in_complex_axes": axes}


# the identification of the two forms, verified by the octet_convention check
OCTET_CONVENTION = ConventionMap(
    re_idx=(0, 2, 4, 6),
    im_idx=(1, 3, 5, 7),
    im_sign=(1, 1, 1, 1),
    comp_sign=(1, -1, 1, 1),
    axis_perm=(4, 3, 2, 1, 0),
    axis_sign=(1, 1, 1, -1, 1),
)


def extra_angles(xi: Sequence[complex], case: AngleCase) -> np.ndarray:
    """Fiber angles (phi1, phi2, phi3) of a point, or of every row of a stack
    B + (4,), for the chosen case: one array (3,) + B, rows phi1, phi2, phi3.

    phi1/phi2 are the sum/difference of the pair's phases folded into
    [0, 2pi); phi3 = atan2(2|a||b|, |a|^2 - |b|^2) lands in [0, pi].
    Offsets (functions of the invariant products) are added before the
    folding.  Raises :class:`DegenerateFiber` when either pair component
    of any row has modulus at most 1e-12 (absolute).
    """
    xi = np.asarray(xi, dtype=complex)
    ia, ib = case.pair
    a, b = xi[..., ia], xi[..., ib]
    ma, mb = np.abs(a), np.abs(b)
    if np.count_nonzero((ma <= 1e-12) | (mb <= 1e-12)):
        raise DegenerateFiber(
            f"case {case.tag}: |xi_{ia + 1}| or |xi_{ib + 1}| below 1e-12"
        )
    arg_a, arg_b = np.angle(a), np.angle(b)
    phi1, phi2 = arg_a + arg_b, arg_a - arg_b
    u, v = ma**2, mb**2
    phi3 = np.arctan2(2.0 * np.sqrt(u * v), u - v)
    if case.offsets is not None:
        m = invariant_products(xi)
        phi1, phi2, phi3 = (p + o(m) for p, o in zip((phi1, phi2, phi3), case.offsets))
        # the bare phi3 lies in [0, pi]; an offset one is folded back
        phi3 = np.fmod(phi3, TWO_PI)
        phi3 = np.where(phi3 < 0.0, phi3 + TWO_PI, phi3)
        phi3 = np.where(phi3 > math.pi, TWO_PI - phi3, phi3)
    return np.stack([phi1 % TWO_PI, phi2 % TWO_PI, phi3])


def fiber_section(x, phi: np.ndarray, case: AngleCase) -> np.ndarray:
    """A point of the fiber over (x, phi) for the chosen case, or one per row
    of a stack: ``x`` of shape B + (5,) with angles (3,) + B give B + (4,).

    The angle-carrying pair is rebuilt from r +/- x5 and the requested
    angles; the other pair solves the remaining 2x2 linear system exactly.
    Only the bare cases (no offsets) admit this closed-form section.  Each
    row equals its own one-point call bit for bit: the complex products are
    written out in real arithmetic, and the terms with a conjugate multiply
    by 1/h where the others divide by h.

    The relative base-point error is about 1.6e-16 r / rho, rho = r + s x5
    the distance from the singular half-axis, so the domain rho > 5e-6 r
    keeps every row within 1e-10 (the suite's section records measure it).
    Raises ``ValueError`` if any row's norm is infinite (a NaN row gives
    NaN), :class:`SingularFiber` if any row lies outside that domain and
    :class:`SectionFailed` if any row's angles (re-checked, mod 2pi for
    phi1 and phi2) miss by more than 1e-10 or land on a degenerate fiber.
    """
    if case.offsets is not None:
        raise SectionFailed("closed-form section is defined for bare cases only")
    xv = np.ascontiguousarray(x, dtype=float)
    r = _row_norms(xv)
    rho = r + case.axis_sign * xv[..., 4]
    # an infinite norm (an infinite coordinate, or a square that overflows)
    # would read as rho <= 5e-6 r; a NaN row passes through as NaN
    if np.count_nonzero(np.isinf(r)):
        raise ValueError(f"case {case.tag}: a point's norm |x| is not finite (inf)")
    # base-point error ~1.6e-16 r / rho: within 1e-10 beyond rho = 5e-6 r
    if np.count_nonzero((r <= 0.0) | (rho <= 5e-6 * r)):
        raise SingularFiber(f"case {case.tag}: point within 5e-06*r of the singular half-axis")
    h = rho / 2.0
    sq = np.sqrt(h)
    phi1, phi2, phi3 = phi
    mod_a, mod_b = sq * np.cos(phi3 / 2.0), sq * np.sin(phi3 / 2.0)
    arg_a = (phi1 + phi2) / 2.0
    arg_b = (phi1 - phi2) / 2.0
    ar, ai = mod_a * np.cos(arg_a), mod_a * np.sin(arg_a)
    br, bi = mod_b * np.cos(arg_b), mod_b * np.sin(arg_b)
    # w1 = (x4 + i x3) / 2, w2 = (x2 + i x1) / 2
    w1r, w1i = xv[..., 3] / 2.0, xv[..., 2] / 2.0
    w2r, w2i = xv[..., 1] / 2.0, xv[..., 0] / 2.0
    inv = 1.0 / h
    xi = np.empty(np.shape(ar) + (4,), dtype=complex)
    if case.tag == "A":
        # (a w1 + b w2) / h and (b conj(w1) - a conj(w2)) / h
        cols = (
            (ar, ai),
            (br, bi),
            ((ar * w1r - ai * w1i + (br * w2r - bi * w2i)) / h,
             (ar * w1i + ai * w1r + (br * w2i + bi * w2r)) / h),
            ((br * w1r + bi * w1i - (ar * w2r + ai * w2i)) * inv,
             (bi * w1r - br * w1i - (ai * w2r - ar * w2i)) * inv),
        )
    else:
        # (conj(w1) a - b w2) / h and (a conj(w2) + b w1) / h
        cols = (
            ((ar * w1r + ai * w1i - (br * w2r - bi * w2i)) * inv,
             (ai * w1r - ar * w1i - (br * w2i + bi * w2r)) * inv),
            ((ar * w2r + ai * w2i + (br * w1r - bi * w1i)) * inv,
             (ai * w2r - ar * w2i + (br * w1i + bi * w1r)) * inv),
            (ar, ai),
            (br, bi),
        )
    xr, xim = xi.real, xi.imag
    for s, (re, im) in enumerate(cols):
        xr[..., s], xim[..., s] = re, im

    try:
        got = extra_angles(xi, case)
    except DegenerateFiber as exc:
        raise SectionFailed(f"section landed on a degenerate fiber: {exc}") from exc
    delta = np.abs([want - g for want, g in zip(phi, got)])
    # phi1 and phi2 are compared mod 2 pi
    wrapped = delta[:2] % TWO_PI
    delta[:2] = np.minimum(wrapped, TWO_PI - wrapped)
    if np.count_nonzero(delta > 1e-10):
        raise SectionFailed(f"angle residual {np.max(delta):.3e}")
    return xi
