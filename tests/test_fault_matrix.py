"""Every record must be able to fail: each record id maps to a minimal,
named fault in the code it verifies, and each fault to the exact set of
records it fails.  Each check's registry row is run on a fixed generator.

This table covers the six numeric gauge records; they sit near 1e-11
against a 1e-5 tolerance, so a passing record alone shows little.
"""

import numpy as np
import pytest

from hurwitz import gauge, harness
from hurwitz.harness import CASE_A, CASE_B, SuiteConfig

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

    def b_functions(xi, case, d):
        b = real(xi, case, d)
        r = np.vecdot(xi, xi).real[..., None]
        return gauge.BFunctions(b.bplus + 1e-4 * r, b.bminus)

    monkeypatch.setattr(gauge, "b_functions", b_functions)


_FAULTS = {
    "closed_sign_A": (_flip_closed_sign("A"), {"gauge_closed_vs_numeric_A"}),
    "closed_sign_B": (_flip_closed_sign("B"), {"gauge_closed_vs_numeric_B"}),
    "frame_parity_3": (_flip_frame_parity, {
        "gauge_closed_vs_numeric_A", "gauge_closed_vs_numeric_B",
        "gauge_angle_independence_A", "gauge_angle_independence_B",
    }),
    "x_dependent_frame": (_x_dependent_frame, set(_GAUGE_CHECKS)),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_fault_fails_exactly_its_records(monkeypatch, fault):
    apply, expected = _FAULTS[fault]
    apply(monkeypatch)
    failed = {
        rid for rid in _GAUGE_CHECKS
        if not harness.run_row(SuiteConfig(), rid, np.random.default_rng(3))[0].passed
    }
    assert failed == expected


def test_every_gauge_record_has_a_fault():
    assert set().union(*(ids for _, ids in _FAULTS.values())) == set(_GAUGE_CHECKS)
