"""Every record must be able to fail: each record maps to a minimal, named
fault in the code it verifies, and each fault to the exact set of records
it fails.  One table holds every fault with the registry rows it runs
(each on a fixed generator) and the records it must fail, and every
(record id, case) of the registry appears in some fault's set.

The faults reach the four Clifford records (through the generator and
companion arrays the rows read), the fiber section's records, the six
numeric gauge records, which sit near 1e-11 against a 1e-5 tolerance, the
three spin-J ladder records, whose root oracles (eigen-solver, determinant
recurrence, null vector) each read another part of the coupling matrix,
four records evaluated as one stack of points or angles (the ladder
relation, the alternating branch, the oscillator and the radial duality),
the six second-order records (the Laplacian splits, the separation
consistency and the two convergence ratios), the seven algebraic records of
the quadratic map and the closed-form potential (norm, homogeneity, octet
convention, transversality and normalization), the seven angle-operator
records (the rotor closures and cross commutation, the Casimir equality and
the spin-J eigenrelations), and the eight first-order identity records
(the phase constraints with and without offsets, the derivative splits and
the momentum equivalences); in each group a passing record alone shows
little.  One sign of case B's stated closed form is also run over every
row, so the reflection record, which compares case B with case A, can fail.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from hurwitz import gauge, harness, opcalc, separation, transform
from hurwitz.harness import CASE_A, CASE_B, SuiteConfig
from hurwitz.transform import _row_norms
from test_harness import _fields_reference

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


_SECOND_ORDER_CHECKS = ["laplacian_split_A", "laplacian_split_B", "fd_convergence_order",
                        "separation_consistency_J0", "separation_consistency_J1",
                        "consistency_refinement"]


def _flipped_derivative_sign(monkeypatch):
    """The -i d/dx_lam term of the momentum entering with a plus sign: the
    call less twice its derivative term (the call with a zero potential),
    wherever the one momentum operator is bound."""
    real = opcalc.momentum

    def momentum(lam, field, potential, xs, phi, h, q_images=None, coef=None):
        return (real(lam, field, potential, xs, phi, h, q_images, coef)
                - 2.0 * real(lam, field, 0.0 * potential, xs, phi, h, q_images, coef))

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


_ALGEBRA_ROWS = ["norm_identity", "quadratic_homogeneity", "octet_convention",
                 "gauge_properties_A", "gauge_properties_B"]


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




_CLIFFORD_CHECKS = ["clifford_structure", "clifford_anticommutation", "fierz_identity",
                    "companion_commutation_table"]


def _shifted_gamma5(monkeypatch):
    """1e-13 I added to the fifth generator, as the rows read it."""
    gamma = transform.GAMMA.copy()
    gamma[4] += 1e-13 * np.eye(4)
    monkeypatch.setattr(transform, "GAMMA", gamma)


def _other_companion(monkeypatch):
    """i g2 g4, another antisymmetric product, in place of the companion i g1 g3."""
    monkeypatch.setattr(transform, "GAMMA_TILDE", 1j * transform.GAMMA[1] @ transform.GAMMA[3])


# the section's own records, and the gauge records that read sections
_SECTION_ROWS = [f"{stem}_{case.tag}" for case in (CASE_A, CASE_B)
                 for stem in ("fiber_roundtrip", "section_identity")] + _GAUGE_CHECKS


def _scaled_section_norms(monkeypatch):
    """The row norms r that the fiber section reads scaled by 1 + 1e-6 (no
    other caller looks the name up in transform), so its base point is off
    and its angles are not."""
    real = transform._row_norms
    monkeypatch.setattr(transform, "_row_norms", lambda x: real(x) * (1.0 + 1e-6))


_ALL_ROWS = [row.id for row in harness._registry(SuiteConfig())]

# fault: (apply, the registry rows it runs, the record ids it fails in every
# case they run in)
_FAULTS = {
    # the three Clifford records and the companion's table read exactly 0.0
    "shifted_gamma5": (_shifted_gamma5, _CLIFFORD_CHECKS, {
        "clifford_structure", "clifford_anticommutation"}),
    "other_companion": (_other_companion, _CLIFFORD_CHECKS, {
        "fierz_identity", "companion_commutation_table"}),
    # the section checks no base point itself, so its records see the fault;
    # the gauge rows that call it pass: the frame functions read only its
    # angles, and gauge_angle_independence rises to ~2e-6 against 1e-5
    "scaled_section_norms": (_scaled_section_norms, _SECTION_ROWS, {
        "fiber_roundtrip", "section_identity"}),
    "closed_sign_A": (_flip_closed_sign("A"), _GAUGE_CHECKS, {"gauge_closed_vs_numeric_A"}),
    "closed_sign_B": (_flip_closed_sign("B"), _GAUGE_CHECKS, {"gauge_closed_vs_numeric_B"}),
    "frame_parity_3": (_flip_frame_parity, _GAUGE_CHECKS, {
        "gauge_closed_vs_numeric_A", "gauge_closed_vs_numeric_B",
        "gauge_angle_independence_A", "gauge_angle_independence_B",
    }),
    "x_dependent_frame": (_x_dependent_frame, _GAUGE_CHECKS, set(_GAUGE_CHECKS)),
    # case B's closed-form signs are stated, not derived from case A: the
    # reflection check compares them with case A, and every case-B row that
    # takes the closed potential reads them; run over every registry row
    "closed_sign_B_everywhere": (_flip_closed_sign("B"), _ALL_ROWS, {
        "gauge_reflection_map", "gauge_closed_vs_numeric_B", "gauge_transversality_B",
        "gauge_normalization_B", "momentum_equivalence_B", "laplacian_split_B"}),
    "uncoupled_recurrence": (_uncoupled_recurrence, _LADDER_CHECKS, {"bisection_cross_check"}),
    "scaled_roots": (_scaled_roots, _LADDER_CHECKS, set(_LADDER_CHECKS)),
    # the determinant oracle's band guard is what catches this in the
    # bisection; the eigen-solver roots do not move
    "off_band_entry": (_off_band_entry, _LADDER_CHECKS, {"bisection_cross_check",
                                                         "null_vector_residual"}),
    "flipped_ladder_term": (_flipped_ladder_term, _STACKED_CHECKS, {"wigner_ladder"}),
    "flipped_branch_sign": (_flipped_branch_sign, _STACKED_CHECKS,
                            {"alternating_branch_caseA"}),
    "linear_oscillator_potential": (_linear_oscillator_potential, _STACKED_CHECKS,
                                    {"oscillator_gaussian"}),
    "flipped_coulomb_term": (_flipped_coulomb_term, _STACKED_CHECKS, {"radial_duality"}),
    # separation_consistency_J0 fails only through a shared scalar term or the
    # momentum itself: at J = 0 the angular factor is constant and both sides
    # cancel term for term; the one P_lam that both families square
    "flipped_derivative_sign": (_flipped_derivative_sign, _SECOND_ORDER_CHECKS,
                                set(_SECOND_ORDER_CHECKS)),
    # the potential rows as laplacian_split's outer momentum contracts them,
    # (5,) + B + (3,)
    "rolled_laplacian_rows": (_rolled_rows(opcalc, 0), _SECOND_ORDER_CHECKS, {
        "laplacian_split_A", "laplacian_split_B", "fd_convergence_order"}),
    # and as consistency_residual does, ... + (5, m, 3)
    "rolled_consistency_rows": (_rolled_rows(separation, -3), _SECOND_ORDER_CHECKS, {
        "separation_consistency_J1", "consistency_refinement"}),
    "flipped_casimir": (_flipped_casimir, _SECOND_ORDER_CHECKS, {
        "separation_consistency_J1", "consistency_refinement"}),
    "centrifugal_square": (_centrifugal_square, _SECOND_ORDER_CHECKS, {
        "separation_consistency_J0", "separation_consistency_J1",
        "consistency_refinement"}),
    # x5 -> -x5 keeps the norm and every other form: only the octet record,
    # against its witness, sees the turned axis
    "x5_signs_flipped": (_x5_units([-1, -1, 1, 1]), _ALGEBRA_ROWS, {"octet_convention"}),
    "x5_signs_interleaved": (_x5_units([1, -1, 1, -1]), _ALGEBRA_ROWS,
                             {"norm_identity", "octet_convention"}),
    "single_precision_forms": (_single_precision_forms, _ALGEBRA_ROWS, {
        "norm_identity", "quadratic_homogeneity", "octet_convention"}),
    "swapped_closed_sources": (_swapped_closed_sources, _ALGEBRA_ROWS, {
        "gauge_transversality_A", "gauge_normalization_A",
        "gauge_transversality_B", "gauge_normalization_B"}),
    "closed_denominator_without_r": (_closed_denominator_without_r, _ALGEBRA_ROWS, {
        "gauge_normalization_A", "gauge_normalization_B"}),
    # T2 and Q2 each lose the sign of their d/dphi3 coefficient; the Casimir
    # equality reads both triples, the spin-J records the Q triple (and T1,
    # whose row is constant); one-q basis calls never pair a phase
    "flipped_t_coefficient": (_flipped_coefficient(1, 2), _ANGULAR_CHECKS, {
        "rotor_closure_T", "rotor_cross_commutation", "casimir_equality"}),
    "flipped_q_coefficient": (_flipped_coefficient(4, 2), _ANGULAR_CHECKS, {
        "rotor_closure_Q", "rotor_cross_commutation", "casimir_equality",
        "wigner_eigenrelations", "angular_factor_eigen_A", "angular_factor_eigen_B"}),
    "unconjugated_pair": (_unconjugated_pair, _ANGULAR_CHECKS, {
        "wigner_eigenrelations", "angular_factor_eigen_A", "angular_factor_eigen_B"}),
    # the plain phase constraint reads no invariant product, and the offsets
    # enter neither the closed-form potential nor the numeric one's gradients
    "unconjugated_products": (_unconjugated_products, _FIRST_ORDER_ROWS, {
        "phase_constraint_A_offsets", "phase_constraint_B_offsets"}),
    "unconjugated_big_d": (_unconjugated_big_d, _FIRST_ORDER_ROWS, {
        "derivative_split_A", "derivative_split_B",
        "momentum_equivalence_A", "momentum_equivalence_B"}),
    "swapped_phase_gradients": (_swapped_phase_gradients, _FIRST_ORDER_ROWS, {
        "phase_constraint_A", "phase_constraint_A_offsets", "phase_constraint_B",
        "phase_constraint_B_offsets", "derivative_split_A", "derivative_split_B"}),
    "swapped_angle_derivatives": (_swapped_angle_derivatives, _FIRST_ORDER_ROWS, {
        "derivative_split_A", "derivative_split_B",
        "momentum_equivalence_A", "momentum_equivalence_B"}),
}


def _records(rows):
    """The (record id, case) of every record of the given registry rows."""
    return {(rid, row.case) for row in harness._registry(SuiteConfig()) if row.id in rows
            for rid in row.record_ids}


def _expected(fault):
    """The (record id, case) pairs a fault must fail: each of its record ids
    in every case its rows give that id."""
    _, rows, ids = _FAULTS[fault]
    keys = {key for key in _records(rows) if key[0] in ids}
    assert {rid for rid, _ in keys} == ids
    return keys


def _failed(rows):
    """The (record id, case) of the failing records of the given registry rows."""
    return {
        (rec.check_id, rec.case) for rid in rows
        for rec in harness.run_row(SuiteConfig(), rid, np.random.default_rng(3))
        if not rec.passed
    }


def _on(rows):
    """The faults that run the row list ``rows``."""
    return [fault for fault, (_, r, _) in _FAULTS.items() if r == rows]


def _fails_exactly_its_records(monkeypatch, fault):
    apply, rows, _ = _FAULTS[fault]
    apply(monkeypatch)
    assert _failed(rows) == _expected(fault)


def _covered(rows):
    """The records failed by the faults on the row list ``rows``."""
    return set().union(*(_expected(fault) for fault in _on(rows)))


@pytest.mark.parametrize("fault", _on(_GAUGE_CHECKS))
def test_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_CLIFFORD_CHECKS))
def test_clifford_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_SECTION_ROWS))
def test_section_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_ALL_ROWS))
def test_reflection_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_LADDER_CHECKS))
def test_ladder_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_STACKED_CHECKS))
def test_stacked_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_SECOND_ORDER_CHECKS))
def test_second_order_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_ALGEBRA_ROWS))
def test_algebra_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_ANGULAR_CHECKS))
def test_angular_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


@pytest.mark.parametrize("fault", _on(_FIRST_ORDER_ROWS))
def test_first_order_fault_fails_exactly_its_records(monkeypatch, fault):
    _fails_exactly_its_records(monkeypatch, fault)


def test_unfaulted_records_pass():
    assert _failed(_ALL_ROWS) == set()


def test_every_record_and_case_has_a_fault():
    # 50 records under 48 ids: the section records each run in both cases
    records = _records(_ALL_ROWS)
    assert len(records) == 50
    assert set().union(*(_expected(fault) for fault in _FAULTS)) == records


def test_every_gauge_record_has_a_fault():
    assert _covered(_GAUGE_CHECKS) == _records(_GAUGE_CHECKS)


def test_every_ladder_record_has_a_fault():
    assert _covered(_LADDER_CHECKS) == _records(_LADDER_CHECKS)


def test_every_stacked_record_has_a_fault():
    assert _covered(_STACKED_CHECKS) == _records(_STACKED_CHECKS)


def test_every_second_order_record_has_a_fault():
    assert _covered(_SECOND_ORDER_CHECKS) == _records(_SECOND_ORDER_CHECKS)


def test_every_algebra_record_has_a_fault():
    assert _covered(_ALGEBRA_ROWS) == _records(_ALGEBRA_ROWS)


def test_every_angular_record_has_a_fault():
    assert _covered(_ANGULAR_CHECKS) == _records(_ANGULAR_CHECKS)


def test_every_first_order_record_has_a_fault():
    assert _covered(_FIRST_ORDER_ROWS) == _records(_FIRST_ORDER_ROWS)


@pytest.mark.parametrize("fault", ["closed_sign_A", "closed_sign_B", "swapped_closed_sources"])
def test_fields_export_writes_the_faulted_closed_form(tmp_path, monkeypatch, fault):
    # the writer spells A from gauge's live tables, as a_field_closed reads them
    _FAULTS[fault][0](monkeypatch)
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    for case in "AB":
        harness.fields_cmd(case, 300, str(got), region="box:-2,2", seed=11)
        _fields_reference(case, 300, str(want), "box:-2,2", 11)
        assert got.read_bytes() == want.read_bytes()
