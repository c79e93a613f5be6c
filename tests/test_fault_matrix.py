"""Every record must be able to fail: each record id maps to a minimal,
named fault in the code it verifies, and each fault to the exact set of
records it fails.  Each check's registry row is run on a fixed generator.

This table covers the six numeric gauge records, which sit near 1e-11
against a 1e-5 tolerance, the three spin-J ladder records, whose root
oracles (eigen-solver, determinant recurrence, null vector) each read
another part of the coupling matrix, and four records evaluated as one
stack of points or angles (the ladder relation, the alternating branch,
the oscillator and the radial duality), the six second-order records
(the Laplacian splits, the separation consistency and the two convergence
ratios), and the seven algebraic records of the quadratic map and the
closed-form potential (norm, homogeneity, octet convention, transversality
and normalization), the seven angle-operator records (the rotor
closures and cross commutation, the Casimir equality and the spin-J
eigenrelations), and the eight first-order identity records (the phase
constraints with and without offsets, the derivative splits and the
momentum equivalences); in each group a passing record alone shows little.
One sign of case B's stated closed form is also run over every row, so
the reflection record, which compares case B with case A, can fail.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from hurwitz import gauge, harness, opcalc, separation, transform
from hurwitz.harness import CASE_A, CASE_B, SuiteConfig
from hurwitz.transform import _row_norms

_GAUGE_CHECKS = [
    f"{stem}_{case.tag}"
    for case in (CASE_A, CASE_B)
    for stem in ("gauge_closed_vs_numeric", "frame_x_independence",
                 "gauge_angle_independence")
]


def _flip_closed_sign(tag):
    """One flipped sign in the closed form of one case."""

    def apply(monkeypatch):
        table = {k: v.copy() for k, v in gauge._CLOSED_SIGN.items()}
        table[tag][0, 0] *= -1.0
        monkeypatch.setattr(gauge, "_CLOSED_SIGN", table)

    return apply


def _flip_frame_parity(monkeypatch):
    """The phi3 parity of the third frame function flipped."""
    parity = gauge._FRAME_PARITY.copy()
    parity[2] *= -1.0
    monkeypatch.setattr(gauge, "_FRAME_PARITY", parity)


def _x_dependent_frame(monkeypatch):
    """A term in |xi|^2 = r added to the frame functions, which may depend
    on the point only through its angles."""
    real = gauge.b_functions

    def b_functions(xi, case, h):
        bplus, bminus = real(xi, case, h)
        r = np.vecdot(xi, xi).real[..., None]
        return bplus + 1e-4 * r, bminus

    monkeypatch.setattr(gauge, "b_functions", b_functions)


# case B's closed-form signs are stated, not derived from case A: the
# reflection check compares them with case A, and every case-B row that
# takes the closed potential reads them; run over every registry row
_REFLECTION_FAULTS = {
    "closed_sign_B_everywhere": (_flip_closed_sign("B"), {
        "gauge_reflection_map", "gauge_closed_vs_numeric_B", "gauge_transversality_B",
        "gauge_normalization_B", "momentum_equivalence_B", "laplacian_split_B"}),
}


_LADDER_CHECKS = ["spectrum_structure", "bisection_cross_check", "null_vector_residual"]


def _uncoupled_recurrence(monkeypatch):
    """The determinant recurrence without its coupling product: the
    determinant of the diagonal part alone."""
    real = separation._continuant
    monkeypatch.setattr(separation, "_continuant",
                        lambda diag, couple, a: real(diag, 0.0 * couple, a))


def _scaled_roots(monkeypatch):
    """Every eigen-solver root off by a relative 1e-9."""
    real = separation.separation_roots
    monkeypatch.setattr(separation, "separation_roots",
                        lambda J, col: real(J, col) * (1.0 + 1e-9))


def _off_band_entry(monkeypatch):
    """An entry written two places right of the diagonal (J >= 1), in the
    upper triangle that the Hermitian eigen-solver does not read."""
    real = separation.build_h

    def build_h(J, col, a):
        h = real(J, col, a)
        if J >= 1:
            h[..., 0, 2] += 1e-3
        return h

    monkeypatch.setattr(separation, "build_h", build_h)


_FAULTS = {
    "closed_sign_A": (_flip_closed_sign("A"), {"gauge_closed_vs_numeric_A"}),
    "closed_sign_B": (_flip_closed_sign("B"), {"gauge_closed_vs_numeric_B"}),
    "frame_parity_3": (_flip_frame_parity, {
        "gauge_closed_vs_numeric_A", "gauge_closed_vs_numeric_B",
        "gauge_angle_independence_A", "gauge_angle_independence_B",
    }),
    "x_dependent_frame": (_x_dependent_frame, set(_GAUGE_CHECKS)),
}

_LADDER_FAULTS = {
    "uncoupled_recurrence": (_uncoupled_recurrence, {"bisection_cross_check"}),
    "scaled_roots": (_scaled_roots, set(_LADDER_CHECKS)),
    # the determinant oracle's band guard is what catches this in the
    # bisection; the eigen-solver roots do not move
    "off_band_entry": (_off_band_entry, {"bisection_cross_check",
                                         "null_vector_residual"}),
}


_STACKED_CHECKS = ["wigner_ladder", "alternating_branch_caseA", "oscillator_gaussian",
                   "radial_duality"]


def _flipped_ladder_term(monkeypatch):
    """The (q cos(phi3) - p)/sin(phi3) term of the analytic ladder entering
    with the wrong sign."""

    def ladder_apply(sign, J, q, p, phi):
        phi1, phi2, b = phi
        radial = (sign * separation.wigner_d_prime(J, q, p, b)
                  + (q * np.cos(b) - p) / np.sin(b) * separation.wigner_d(J, q, p, b))
        return np.exp(1j * (q + sign) * phi2) * np.exp(1j * p * phi1) * radial

    monkeypatch.setattr(separation, "ladder_apply", ladder_apply)


def _flipped_branch_sign(monkeypatch):
    """One entry of the alternating branch's sign table flipped: the third
    axis takes +J."""
    real = separation.resolve_branch

    def resolve_branch(branch):
        m = real(branch)
        return lambda J, lam: -m(J, lam) if lam == 2 else m(J, lam)

    monkeypatch.setattr(separation, "resolve_branch", resolve_branch)


def _linear_oscillator_potential(monkeypatch):
    """omega in place of omega^2 in the oscillator's potential term."""
    real = opcalc.oscillator_apply
    monkeypatch.setattr(opcalc, "oscillator_apply", lambda omega, field, xi, h: real(
        np.sqrt(omega), field, xi, h))


def _flipped_coulomb_term(monkeypatch):
    """The Z/r term of the radial duality entering with the wrong sign: its
    residual written out on a stack, Z = 2 omega and E = -omega^2 / 2."""

    def radial_duality_residual(omega, x, h):
        psi = lambda y: np.exp(-omega * _row_norms(y))
        lap = sum(opcalc._stencil(psi, x, opcalc._AXES, h, order=2))
        val = -0.5 * lap + (2.0 * omega / _row_norms(x)) * psi(x)
        return np.abs(val - (-0.5 * omega * omega) * psi(x)) / psi(x)

    monkeypatch.setattr(opcalc, "radial_duality_residual", radial_duality_residual)


_STACKED_FAULTS = {
    "flipped_ladder_term": (_flipped_ladder_term, {"wigner_ladder"}),
    "flipped_branch_sign": (_flipped_branch_sign, {"alternating_branch_caseA"}),
    "linear_oscillator_potential": (_linear_oscillator_potential,
                                    {"oscillator_gaussian"}),
    "flipped_coulomb_term": (_flipped_coulomb_term, {"radial_duality"}),
}


_SECOND_ORDER_CHECKS = ["laplacian_split_A", "laplacian_split_B", "fd_convergence_order",
                        "separation_consistency_J0", "separation_consistency_J1",
                        "consistency_refinement"]


def _flipped_derivative_sign(monkeypatch):
    """The -i d/dx_lam term of the momentum entering with a plus sign: the
    call less twice its derivative term (the call with a zero potential),
    wherever the one momentum operator is bound."""
    real = opcalc.momentum

    def momentum(lam, field, potential, xs, phi, h, q_images=None):
        return (real(lam, field, potential, xs, phi, h, q_images)
                - 2.0 * real(lam, field, 0.0 * potential, xs, phi, h, q_images))

    monkeypatch.setattr(opcalc, "momentum", momentum)
    monkeypatch.setattr(separation, "momentum", momentum)


def _rolled_rows(module, axis):
    """The Q images of axis lam paired with the potential row of axis lam - 1
    in every contraction of the module."""

    def apply(monkeypatch):
        real = module.coupled_q
        monkeypatch.setattr(module, "coupled_q", lambda row, images: real(
            np.roll(row, 1, axis=axis), images))

    return apply


def _flipped_casimir(monkeypatch):
    """The Q Casimir of the angular factors entering with the wrong sign."""
    real = separation._casimir
    monkeypatch.setattr(separation, "_casimir", lambda nested, family: -real(nested, family))


def _centrifugal_square(monkeypatch):
    """(J + 1)^2 in place of J(J + 1) in the centrifugal term."""
    monkeypatch.setattr(separation, "_centrifugal", lambda J, r: (J + 1) ** 2 / (2.0 * r * r))


# separation_consistency_J0 fails only through a shared scalar term or the
# momentum itself: at J = 0 the angular factor is constant and both sides
# cancel term for term
_SECOND_ORDER_FAULTS = {
    # the one P_lam that both families square
    "flipped_derivative_sign": (_flipped_derivative_sign, set(_SECOND_ORDER_CHECKS)),
    # the potential rows as laplacian_split's outer momentum contracts them,
    # (5,) + B + (3,)
    "rolled_laplacian_rows": (_rolled_rows(opcalc, 0), {
        "laplacian_split_A", "laplacian_split_B", "fd_convergence_order"}),
    # and as consistency_residual does, ... + (5, m, 3)
    "rolled_consistency_rows": (_rolled_rows(separation, -3), {
        "separation_consistency_J1", "consistency_refinement"}),
    "flipped_casimir": (_flipped_casimir, {
        "separation_consistency_J1", "consistency_refinement"}),
    "centrifugal_square": (_centrifugal_square, {
        "separation_consistency_J0", "separation_consistency_J1",
        "consistency_refinement"}),
}


_ALGEBRA_ROWS = ["norm_identity", "quadratic_homogeneity", "octet_convention",
                 "gauge_properties_A", "gauge_properties_B"]
_ALGEBRA_RECORDS = {"norm_identity", "quadratic_homogeneity", "octet_convention",
                    "gauge_transversality_A", "gauge_normalization_A",
                    "gauge_transversality_B", "gauge_normalization_B"}


def _x5_units(units):
    """The x5 row of the unit table that evaluates gamma_l xi replaced."""

    def apply(monkeypatch):
        table = transform._UNITS.copy()
        table[4] = units
        monkeypatch.setattr(transform, "_UNITS", table)

    return apply


def _single_precision_forms(monkeypatch):
    """The forms xi^dag gamma_l xi rounded to single precision."""
    real = transform._forms
    monkeypatch.setattr(transform, "_forms", lambda xi: real(xi).astype(np.complex64))


def _swapped_closed_sources(monkeypatch):
    """The first row of the closed form reading x4 where it reads x2 and x2
    where it reads x4, in both cases."""
    src = gauge._CLOSED_SRC.copy()
    src[0, :2] = src[0, 1::-1]
    monkeypatch.setattr(gauge, "_CLOSED_SRC", src)


def _closed_denominator_without_r(monkeypatch):
    """The closed form divided by r + s x5 alone, not by r (r + s x5)."""
    real = gauge._closed_scale

    def closed_scale(x, case):
        xp, r, denom, singular = real(x, case)
        return xp, r, denom / r, singular

    monkeypatch.setattr(gauge, "_closed_scale", closed_scale)


# x5 -> -x5 keeps the norm and every other form: only the octet record,
# against its witness, sees the turned axis
_ALGEBRA_FAULTS = {
    "x5_signs_flipped": (_x5_units([-1, -1, 1, 1]), {"octet_convention"}),
    "x5_signs_interleaved": (_x5_units([1, -1, 1, -1]),
                             {"norm_identity", "octet_convention"}),
    "single_precision_forms": (_single_precision_forms, {
        "norm_identity", "quadratic_homogeneity", "octet_convention"}),
    "swapped_closed_sources": (_swapped_closed_sources, {
        "gauge_transversality_A", "gauge_normalization_A",
        "gauge_transversality_B", "gauge_normalization_B"}),
    "closed_denominator_without_r": (_closed_denominator_without_r, {
        "gauge_normalization_A", "gauge_normalization_B"}),
}


_X5_FAULT_CHILD = """
import json
from hurwitz import harness, transform
from hurwitz.harness import SuiteConfig

out = {}
for units in ([1, -1, 1, -1], [-1, -1, 1, 1]):
    table = transform._UNITS.copy()
    table[4] = units
    transform._UNITS = table
    report = harness.run_suite(SuiteConfig(), only=["norm_identity", "octet_convention"])
    out[str(units)] = {
        "failed": sorted(r.check_id for r in report.checks if not r.passed),
        "octet_map": report.conventions["octet_map"],
    }
print(json.dumps(out))
"""


def test_x5_faults_fail_the_octet_record_in_a_fresh_process():
    # a fresh process holds no witness from an unfaulted run: the declared
    # convention must neither absorb a turned x5 axis nor stop the report
    proc = subprocess.run([sys.executable, "-c", _X5_FAULT_CHILD],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["[1, -1, 1, -1]"]["failed"] == ["norm_identity", "octet_convention"]
    assert out["[-1, -1, 1, 1]"]["failed"] == ["octet_convention"]
    declared = harness.resolved_conventions()["octet_map"]
    assert out["[-1, -1, 1, 1]"]["octet_map"] == declared
    assert out["[1, -1, 1, -1]"]["octet_map"] == declared


_ANGULAR_CHECKS = ["rotor_closure_T", "rotor_closure_Q", "rotor_cross_commutation",
                   "casimir_equality", "wigner_eigenrelations", "angular_factor_eigen_A",
                   "angular_factor_eigen_B"]


def _flipped_coefficient(row, col):
    """One flipped sign in row ``row`` of the generators' coefficient table."""

    def apply(monkeypatch):
        real = opcalc._coefficients

        def coefficients(phi):
            out = real(phi)
            out[row, col] *= -1.0
            return out

        monkeypatch.setattr(opcalc, "_coefficients", coefficients)

    return apply


def _unconjugated_pair(monkeypatch):
    """The basis taking e^{-iq phi2} for e^{iq phi2} wherever it pairs a q
    with its -q: the conjugate pair with the wrong sign."""

    def basis(J, qs, p, phi):
        shape = np.broadcast(*phi).shape
        phi1, phi2, phi3 = np.atleast_1d(*phi)
        c, s = np.cos(phi3 / 2.0), np.sin(phi3 / 2.0)
        e1 = np.exp(1j * p * phi1)
        phase = {}
        for q in qs:
            phase[q] = phase[-q] if q and -q in phase else np.exp(1j * q * phi2)
        return [(phase[q] * separation._d_value(J, q, p, c, s) * e1).reshape(shape)[()]
                for q in qs]

    monkeypatch.setattr(separation, "_basis", basis)


# T2 and Q2 each lose the sign of their d/dphi3 coefficient; the Casimir
# equality reads both triples, the spin-J records the Q triple (and T1,
# whose row is constant); one-q basis calls never pair a phase
_ANGULAR_FAULTS = {
    "flipped_t_coefficient": (_flipped_coefficient(1, 2), {
        "rotor_closure_T", "rotor_cross_commutation", "casimir_equality"}),
    "flipped_q_coefficient": (_flipped_coefficient(4, 2), {
        "rotor_closure_Q", "rotor_cross_commutation", "casimir_equality",
        "wigner_eigenrelations", "angular_factor_eigen_A", "angular_factor_eigen_B"}),
    "unconjugated_pair": (_unconjugated_pair, {
        "wigner_eigenrelations", "angular_factor_eigen_A", "angular_factor_eigen_B"}),
}


_FIRST_ORDER_CHECKS = [f"{stem}_{case.tag}" for case in (CASE_A, CASE_B)
                       for stem in ("phase_constraint", "derivative_split",
                                    "momentum_equivalence")]
_FIRST_ORDER_ROWS = _FIRST_ORDER_CHECKS + ["phase_constraint_A_offsets",
                                           "phase_constraint_B_offsets"]


def _unconjugated_products(monkeypatch):
    """The invariant products xi_j xi_k without the conjugate, as the
    offsets of the fiber angles read them."""
    monkeypatch.setattr(opcalc, "invariant_products",
                        lambda xi: xi[..., :, None] * xi[..., None, :])


def _unconjugated_big_d(monkeypatch):
    """gamma_l xi, not its conjugate, contracted with the antiholomorphic
    gradient."""

    def big_d(xi, dh, da):
        v = np.moveaxis(transform._gamma_xi(xi), -2, 0).copy()
        return (v * dh).sum(axis=-1) + (v * da).sum(axis=-1)

    monkeypatch.setattr(opcalc, "_big_d", big_d)


def _swapped_phase_gradients(monkeypatch):
    """The fiber angles' holomorphic and antiholomorphic gradients returned
    in each other's place, wherever they are bound."""
    real = opcalc.fiber_phase_gradients

    def fiber_phase_gradients(xi, case, h):
        D, Dbar = real(xi, case, h)
        return Dbar, D

    monkeypatch.setattr(opcalc, "fiber_phase_gradients", fiber_phase_gradients)
    monkeypatch.setattr(gauge, "fiber_phase_gradients", fiber_phase_gradients)


def _swapped_angle_derivatives(monkeypatch):
    """The derivatives along phi1 and phi2 in each other's place."""
    real = opcalc._angle_derivatives
    monkeypatch.setattr(opcalc, "_angle_derivatives", lambda v, phi, h: np.take(
        real(v, phi, h), [1, 0, 2], axis=-phi.ndim))


# the plain phase constraint reads no invariant product, and the offsets
# enter neither the closed-form potential nor the numeric one's gradients
_FIRST_ORDER_FAULTS = {
    "unconjugated_products": (_unconjugated_products, {
        "phase_constraint_A_offsets", "phase_constraint_B_offsets"}),
    "unconjugated_big_d": (_unconjugated_big_d, {
        "derivative_split_A", "derivative_split_B",
        "momentum_equivalence_A", "momentum_equivalence_B"}),
    "swapped_phase_gradients": (_swapped_phase_gradients, {
        "phase_constraint_A", "phase_constraint_A_offsets", "phase_constraint_B",
        "phase_constraint_B_offsets", "derivative_split_A", "derivative_split_B"}),
    "swapped_angle_derivatives": (_swapped_angle_derivatives, {
        "derivative_split_A", "derivative_split_B",
        "momentum_equivalence_A", "momentum_equivalence_B"}),
}


def _failed(rows):
    """The ids of the failing records of the given registry rows."""
    return {
        rec.check_id for rid in rows
        for rec in harness.run_row(SuiteConfig(), rid, np.random.default_rng(3))
        if not rec.passed
    }


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_GAUGE_CHECKS) == expected


@pytest.mark.parametrize("fault", list(_REFLECTION_FAULTS))
def test_reflection_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _REFLECTION_FAULTS[fault]
    apply(monkeypatch)
    assert _failed([row.id for row in harness._registry(SuiteConfig())]) == expected


@pytest.mark.parametrize("fault", list(_LADDER_FAULTS))
def test_ladder_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _LADDER_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_LADDER_CHECKS) == expected


@pytest.mark.parametrize("fault", list(_STACKED_FAULTS))
def test_stacked_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _STACKED_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_STACKED_CHECKS) == expected


@pytest.mark.parametrize("fault", list(_SECOND_ORDER_FAULTS))
def test_second_order_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _SECOND_ORDER_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_SECOND_ORDER_CHECKS) == expected


@pytest.mark.parametrize("fault", list(_ALGEBRA_FAULTS))
def test_algebra_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _ALGEBRA_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_ALGEBRA_ROWS) == expected


@pytest.mark.parametrize("fault", list(_ANGULAR_FAULTS))
def test_angular_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _ANGULAR_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_ANGULAR_CHECKS) == expected


@pytest.mark.parametrize("fault", list(_FIRST_ORDER_FAULTS))
def test_first_order_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _FIRST_ORDER_FAULTS[fault]
    apply(monkeypatch)
    assert _failed(_FIRST_ORDER_ROWS) == expected


def test_unfaulted_records_pass():
    checks = (_GAUGE_CHECKS + _LADDER_CHECKS + _STACKED_CHECKS + _SECOND_ORDER_CHECKS
              + _ALGEBRA_ROWS + _ANGULAR_CHECKS + _FIRST_ORDER_ROWS
              + ["gauge_reflection_map"])
    assert _failed(checks) == set()


def test_every_gauge_record_has_a_fault():
    assert set().union(*(ids for _, ids in _FAULTS.values())) == set(_GAUGE_CHECKS)


def test_every_ladder_record_has_a_fault():
    assert set().union(*(ids for _, ids in _LADDER_FAULTS.values())) == set(_LADDER_CHECKS)


def test_every_stacked_record_has_a_fault():
    failed = set().union(*(ids for _, ids in _STACKED_FAULTS.values()))
    assert failed == set(_STACKED_CHECKS)


def test_every_second_order_record_has_a_fault():
    failed = set().union(*(ids for _, ids in _SECOND_ORDER_FAULTS.values()))
    assert failed == set(_SECOND_ORDER_CHECKS)


def test_every_algebra_record_has_a_fault():
    failed = set().union(*(ids for _, ids in _ALGEBRA_FAULTS.values()))
    assert failed == _ALGEBRA_RECORDS


def test_every_angular_record_has_a_fault():
    failed = set().union(*(ids for _, ids in _ANGULAR_FAULTS.values()))
    assert failed == set(_ANGULAR_CHECKS)


def test_every_first_order_record_has_a_fault():
    failed = set().union(*(ids for _, ids in _FIRST_ORDER_FAULTS.values()))
    assert failed == set(_FIRST_ORDER_ROWS)
