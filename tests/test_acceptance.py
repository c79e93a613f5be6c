"""Acceptance gate: one test per advertised guarantee, printed PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and match the library's verification
suite defaults.
"""

import json
import math
import time

import numpy as np
import pytest

import hurwitz.harness as hz
from hurwitz.clifford import build_gamma, clifford_residual, fierz_residual
from hurwitz.harness import SuiteConfig, run_suite
from hurwitz.separation import (
    consistency_residual,
    det_bisection_roots,
    separation_roots,
)
from hurwitz.transform import CASE_A, CASE_B, OCTET_CONVENTION, _scalar_draws

CFG = SuiteConfig()
GAMMA, GAMMA_TILDE = build_gamma()


def _report(num, name, value, tol, unit=""):
    ok = value < tol
    print(
        f"ACCEPT {num:>2} {name:<42} "
        f"{'PASS' if ok else 'FAIL'} (max={value:.3e}{unit}, tol={tol:.1e}{unit})"
    )
    assert ok, f"criterion {num} ({name}): {value:.3e} !< {tol:.3e}"


def _best_of_three(fn):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_01_clifford_relations():
    res = clifford_residual(GAMMA)
    _report(1, "clifford anticommutation residual", res, 1e-14)
    dt = _best_of_three(lambda: clifford_residual(GAMMA))
    _report(1, "clifford residual runtime", dt, 1e-3, "s")


def test_criterion_02_contraction_identity():
    res = fierz_residual(GAMMA, GAMMA_TILDE)
    _report(2, "contraction identity residual (256 tuples)", res, 1e-12)
    dt = _best_of_three(lambda: fierz_residual(GAMMA, GAMMA_TILDE))
    _report(2, "contraction identity runtime", dt, 1e-2, "s")
    conv = hz.resolved_conventions()
    assert conv["companion_matrix"]["origin"] == "direct"
    print("ACCEPT  2 companion matrix recorded as:",
          conv["companion_matrix"]["construction"])


def test_criterion_03_norm_identity():
    rng = np.random.default_rng(CFG.seed)
    n = 10_000
    xi = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / 2
    from hurwitz.transform import GAMMA

    x = np.einsum("ns,lst,nt->nl", xi.conj(), GAMMA, xi).real
    res = float(
        (np.abs(np.linalg.norm(x, axis=1) - np.einsum("ns,ns->n", xi, xi.conj()).real)
         / np.einsum("ns,ns->n", xi, xi.conj()).real).max()
    )
    _report(3, "norm identity, 1e4 points (relative)", res, 1e-12)


def test_criterion_04_octet_reconciliation():
    rng = np.random.default_rng(CFG.seed + 1)
    res = OCTET_CONVENTION.residual(rng.standard_normal((1000, 8)))
    _report(4, "octet convention witness, 1e3 octets", res, 1e-12)
    forms = hz.resolved_conventions()["octet_map"]["octet_forms"]
    assert any("u1 u6 - u2 u5" in f for f in forms)
    print("ACCEPT  4 octet bilinear forms recorded in report")


def test_criterion_05_rotor_algebra():
    rng = np.random.default_rng((CFG.seed, 5))
    for fam in ("T", "Q"):
        (r,) = hz.run_row(CFG, f"rotor_closure_{fam}", rng)
        _report(5, f"rotor closure ({fam} realization), 100 pts", r.max_residual, 1e-5)
    (r,) = hz.run_row(CFG, "rotor_cross_commutation", rng)
    _report(5, "left/right cross-commutators (9 pairs)", r.max_residual, 1e-5)
    (r,) = hz.run_row(CFG, "casimir_equality", rng)
    _report(5, "shared Casimir residual", r.max_residual, 1e-4)


def test_criterion_06_phase_constraints():
    rng = np.random.default_rng((CFG.seed, 6))
    for case in (CASE_A, CASE_B):
        for offs in (False, True):
            (r,) = hz.run_row(
                CFG, f"phase_constraint_{case.tag}" + ("_offsets" if offs else ""), rng
            )
            tag = f"case {case.tag}" + (" + offsets" if offs else "")
            _report(6, f"fiber phase constraint, {tag}", r.max_residual, 1e-6)


def test_criterion_07_momentum_and_laplacian_identities():
    rng = np.random.default_rng((CFG.seed, 7))
    for case in (CASE_A, CASE_B):
        for which, cid in (
            ("derivative_split", "first-order split"),
            ("momentum_equivalence", "momentum equivalence"),
            ("laplacian_split", "second-order split"),
        ):
            (r,) = hz.run_row(CFG, f"{which}_{case.tag}", rng)
            _report(7, f"{cid}, case {case.tag} (50 pts, rel)", r.max_residual, 1e-4)
    (r,) = hz.run_row(CFG, "fd_convergence_order", rng)
    print(
        f"ACCEPT  7 step-halving ratios confirm 4th order "
        f"({'PASS' if r.passed else 'FAIL'}, min ratio {r.max_residual:.1f})"
    )
    assert r.passed


def test_criterion_08_gauge_properties():
    rng = np.random.default_rng((CFG.seed, 8))
    for case in (CASE_A, CASE_B):
        for r in hz.run_row(CFG, f"gauge_properties_{case.tag}", rng):
            _report(8, f"{r.check_id} (1e4 pts)", r.max_residual, 1e-12)
        (r,) = hz.run_row(CFG, f"gauge_closed_vs_numeric_{case.tag}", rng)
        _report(8, f"closed vs numeric potential, case {case.tag}", r.max_residual, 1e-5)


def test_criterion_09_separation_spectrum():
    rng = np.random.default_rng((CFG.seed, 9))
    worst = 0.0
    for _ in range(20):
        col = hz._random_column(_scalar_draws(rng)[0])
        s = math.sqrt(
            col[0] ** 2 + (col[1] + col[2]).real ** 2
            + (1j * (col[1] - col[2])).real ** 2
        )
        roots = separation_roots(1, col)
        worst = max(worst, float(np.abs(roots - np.array([-s, 0, s])).max()))
    _report(9, "spin-1 root factorization {0, +-|A|}", worst, 1e-12)

    (r,) = hz.run_row(CFG, "alternating_branch_caseA", rng)
    _report(9, "case-A closed eigenvalue display (spin 1)", r.max_residual, 1e-12)

    worst = 0.0
    for J in (2, 3):
        for _ in range(5):
            col = hz._random_column(_scalar_draws(rng)[0])
            worst = max(
                worst,
                float(
                    np.abs(
                        separation_roots(J, col) - det_bisection_roots(J, col)
                    ).max()
                ),
            )
    _report(9, "eigen-solver vs determinant bisection, J=2,3", worst, 1e-10)


def test_criterion_10_angular_basis():
    rng = np.random.default_rng((CFG.seed, 10))
    (r,) = hz.run_row(CFG, "wigner_ladder", rng)
    _report(10, "ladder relations, analytic, 20^3 grid", r.max_residual, 1e-12)
    (r,) = hz.run_row(CFG, "wigner_eigenrelations", rng)
    _report(10, "basis eigenrelations by differencing", r.max_residual, 1e-6)


def test_criterion_11_duality():
    rng = np.random.default_rng((CFG.seed, 11))
    (r,) = hz.run_row(CFG, "oscillator_gaussian", rng)
    _report(11, "oscillator Gaussian eigenrelation (3 freqs)", r.max_residual, 1e-6)
    (r,) = hz.run_row(CFG, "radial_duality", rng)
    _report(11, "base-space radial eigenrelation (3 freqs)", r.max_residual, 1e-6)


def test_criterion_12_separation_consistency():
    rng = np.random.default_rng((CFG.seed, 12))
    psi = lambda y: np.exp(-np.linalg.norm(y, axis=-1))
    for J, tol in ((0, 1e-4), (1, 1e-3)):
        worst = 0.0
        for i in range(20):
            case = CASE_A if i % 2 == 0 else CASE_B
            x = hz.sample_x(rng, case, 0.15, rmin=0.9, rmax=2.0)
            worst = max(
                worst,
                consistency_residual(J, 0, psi, x, case, "alternating", hz.NESTED_STEP),
            )
        _report(12, f"separation consistency, spin {J} (20 pts)", worst, tol)
    (r,) = hz.run_row(CFG, "consistency_refinement", rng)
    print(
        f"ACCEPT 12 residual shrinks under step halving "
        f"({'PASS' if r.passed else 'FAIL'}, ratio {r.max_residual:.1f})"
    )
    assert r.passed


def test_criterion_13_full_suite_runtime_and_determinism():
    t0 = time.perf_counter()
    rep1 = run_suite(CFG)
    dt = time.perf_counter() - t0
    assert rep1.passed, "full suite has failing checks:\n" + "\n".join(
        l for l in rep1.summary_lines() if l.startswith("FAIL")
    )
    _report(13, "full suite runtime (single-threaded)", dt, 60.0, "s")
    rep2 = run_suite(CFG)
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1.pop("generated_at"), d2.pop("generated_at")
    same = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    print(f"ACCEPT 13 deterministic under fixed seed: {'PASS' if same else 'FAIL'}")
    assert same
