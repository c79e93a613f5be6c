"""Suite orchestration, sampling, structured reporting and file exports.

Every invariant advertised by the library modules is wired into
:func:`run_suite` as a named check with a pinned tolerance.  Sampling is
fully deterministic: each check draws from a generator seeded by
(config seed, stable check index), so the aggregation (maxima and counts
only) is independent of execution order and two runs with the same seed
produce byte-identical reports apart from the timestamp field.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import platform
import stat
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from . import clifford as cl
from . import gauge, opcalc, separation, transform
from .errors import ConfigInvalid
from .transform import CASE_A, CASE_B, TWO_PI, AngleCase, _row_norms, _scalar_draws, _uniform

__all__ = [
    "SuiteConfig",
    "CheckResult",
    "Report",
    "run_suite",
    "fields_cmd",
    "separate_cmd",
    "sample_xi",
    "sample_angles",
]

SCHEMA_VERSION = 1

# Rejection samplers give up after this many draws for one point (a
# sample_xi stack: this many rejected in a row).  A feasible exclusion
# accepts most draws, so the cap is only reached near an infeasible one.
MAX_DRAWS = 10_000

# A batch of base points gives up after this many candidates per point.  An
# exclusion that validate() accepts rejects only directions with
# x5/r beyond 1/sqrt(2) - 1 towards the singular half-axis, at most ~29% of
# them, so a feasible batch needs ~1.4 per point; an infeasible one stops
# after 16 rounds.
BATCH_DRAWS_PER_POINT = 16

# Records whose value is a convergence ratio: they pass at or above their
# tolerance, every other record strictly below it.
RATIO_CHECKS = frozenset({"fd_convergence_order", "consistency_refinement"})

# The step of every second-order or nested finite-difference row (rotor,
# Casimir, Laplacian split, oscillator, radial duality, consistency).  It is
# larger than ``SuiteConfig.fd_step``, the first-order rows' step, so that
# the outer stencil does not amplify the roundoff of the inner evaluation.
NESTED_STEP = 1e-4

# Largest accepted ``samples``: the gauge property checks draw and evaluate
# one stack of 10x this many base points, the largest stack the suite
# evaluates and the largest ``n`` a fields export accepts.
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for the verification suite.

    ``samples`` scales the vectorized algebraic sweeps (the norm and gauge
    property checks run at 10x this count); the finite-difference checks
    run at the fixed per-check counts listed in their registrations.
    ``tolerances`` overrides individual check tolerances by record id.
    """

    seed: int = 1729
    samples: int = 1000
    fd_step: float = 1e-5
    tolerances: dict = field(default_factory=dict)
    cases: tuple = ("A", "B")
    J_max: int = 3
    exclusion_eps: float = 0.05

    def validate(self) -> None:
        kinds = {"int": Integral, "float": Real, "dict": dict, "tuple": (tuple, list)}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, kinds[f.type]):
                raise ConfigInvalid(f"{f.name} must be {f.type}, got {value!r}")
        if self.seed < 0:
            raise ConfigInvalid("seed must be non-negative")
        if not 0 < self.samples <= MAX_SAMPLES:
            raise ConfigInvalid(f"samples must lie in 1..{MAX_SAMPLES}")
        # the upper bound also rejects integers too large for a float
        if not 0.0 < self.fd_step <= sys.float_info.max:
            raise ConfigInvalid("fd_step must be positive and finite")
        # min(|a|, |b|) <= |xi| / sqrt(2), so no draw clears a larger exclusion
        if not 0.0 < self.exclusion_eps < 1.0 / math.sqrt(2.0):
            raise ConfigInvalid("exclusion_eps must lie in (0, 1/sqrt(2))")
        # bisection_cross_check evaluates spins 2..J_max and nothing below
        if not (2 <= self.J_max <= separation.J_CAP):
            raise ConfigInvalid(f"J_max must lie in 2..{separation.J_CAP}")
        bad = [c for c in self.cases if c not in ("A", "B")]
        if bad:
            raise ConfigInvalid(f"unknown cases {bad}")
        # the separation consistency checks alternate over the cases
        if not self.cases:
            raise ConfigInvalid("cases must name at least one of A, B")
        # each tag expands into its own seeded rows, so a repeat would report
        # the same check id twice with different draws
        if len(set(self.cases)) != len(self.cases):
            raise ConfigInvalid(f"repeated cases in {list(self.cases)}")
        bad = {k: v for k, v in self.tolerances.items()
               if isinstance(v, bool) or not isinstance(v, Real)}
        if bad:
            raise ConfigInvalid(f"tolerances must be numbers, got {bad}")
        # zero stays accepted: it forces a check to fail; the upper bound
        # also rejects integers too large for a float
        bad = {k: v for k, v in self.tolerances.items()
               if not 0.0 <= v <= sys.float_info.max}
        if bad:
            raise ConfigInvalid(f"tolerances must be finite and non-negative, got {bad}")
        known = {rid for row in _registry(self) for rid in row.record_ids}
        unknown = sorted(set(self.tolerances) - known)
        if unknown:
            raise ConfigInvalid(f"tolerances name no record of this suite: {unknown}")

    def case_objs(self) -> list[AngleCase]:
        return [CASE_A if c == "A" else CASE_B for c in self.cases]



@dataclass
class CheckResult:
    check_id: str
    case: str
    n_samples: int
    max_residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class Report:
    config: dict
    environment: dict
    conventions: dict
    checks: list
    passed: bool
    generated_at: str
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """Strict JSON: a non-finite number (say the NaN residual of a
        failed check) is written as the string "NaN", "Infinity" or
        "-Infinity", which ``float()`` reads back."""
        return json.dumps(_finite_json(self.to_dict()), indent=2, sort_keys=True,
                          allow_nan=False)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.check_id:<34} case={c.case:<3} "
                f"n={c.n_samples:<6} max={c.max_residual:.3e} tol={c.tolerance:.1e}"
            )
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}  overall "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"
        )
        return lines


def _finite_json(obj):
    """``obj`` with every non-finite float replaced by its name as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


# --- samplers ----------------------------------------------------------------

def sample_xi(
    rng: np.random.Generator,
    case: AngleCase,
    exclusion_eps: float = 0.05,
    scale: float = 1.0,
    size: Optional[int] = None,
) -> np.ndarray:
    """Complex 4-vectors with the case's angle pair well defined: one of
    shape (4,) for ``size=None``, else a (size, 4) stack.

    Each candidate is one ``standard_normal(8)`` draw, its real parts
    first (rotation-invariant coverage).  Candidates whose norm is below
    1e-3 or whose angle-pair moduli fall within ``exclusion_eps`` of the
    degenerate locus (relative to |xi|) are rejected.  A one-point call
    tests one candidate at a time.  A stack draws the shortfall of
    candidates per round and keeps the accepted ones in draw order; the
    round that fills the stack accepts all of its candidates, so it ends on
    an acceptance.  A stack of n therefore draws exactly what n one-point
    calls draw and leaves the generator where they leave it.  Both give up
    once MAX_DRAWS candidates in a row have been rejected.
    """
    ia, ib = case.pair
    if size is None:
        # scalar tests cost less than a one-row stack's array ones (verify
        # runs 4.6% slower without them) and round as they do:
        # np.linalg.norm sums re.re + im.im with the dot kernel and strides
        # of separation._norms, and abs() of a complex scalar is the hypot
        # of its parts, as np.hypot computes it
        for _ in range(MAX_DRAWS):
            z = rng.standard_normal(8)
            xi = scale * (z[:4] + 1j * z[4:]) / 2.0
            norm = np.linalg.norm(xi)
            if norm >= 1e-3 and min(abs(xi[ia]), abs(xi[ib])) > exclusion_eps * norm:
                return xi
        raise ConfigInvalid(f"no draw in {MAX_DRAWS} clears exclusion_eps={exclusion_eps}")
    kept, have, streak = [], 0, 0
    while have < size:
        need = size - have
        z = rng.standard_normal((need, 8))
        xi = scale * (z[:, :4] + 1j * z[:, 4:]) / 2.0
        # np.abs of a complex array may take a SIMD path that rounds
        # otherwise than abs() of one entry
        norm = separation._norms(xi)
        moduli = np.minimum(np.hypot(xi[:, ia].real, xi[:, ia].imag),
                            np.hypot(xi[:, ib].real, xi[:, ib].imag))
        ok = (norm >= 1e-3) & (moduli > exclusion_eps * norm)
        # the runs of rejections between acceptances, the first continuing
        # the previous round's last: none reaches MAX_DRAWS while the round
        # and that run together are shorter
        at = np.flatnonzero(ok)
        if streak + need >= MAX_DRAWS and (
            np.diff(at, prepend=-1 - streak, append=need).max() > MAX_DRAWS
        ):
            raise ConfigInvalid(
                f"no draw in {MAX_DRAWS} clears exclusion_eps={exclusion_eps}"
            )
        streak = need - 1 - int(at[-1]) if len(at) else streak + need
        kept.append(xi[ok])
        have += len(at)
    return np.concatenate(kept)


def _angle_triple(uniform, margin: float) -> tuple:
    """One point's (phi1, phi2, phi3) from the one-value ``uniform``, in
    :func:`sample_angles`' order and ranges."""
    return uniform(0.0, TWO_PI), uniform(0.0, TWO_PI), uniform(margin, math.pi - margin)


def sample_angles(
    rng: np.random.Generator, margin: float = 0.25, size: Optional[int] = None
) -> np.ndarray:
    """Angles (phi1, phi2, phi3) uniform on [0, 2 pi)^2 x [margin, pi - margin],
    drawn in that order: (3,) for ``size=None``, else (3, size).  A stack
    of n draws exactly what n one-point calls draw, as one (n, 3) array of
    uniforms, whose rows (its ``.T``) are those calls' angles."""
    if size is None:
        return np.array(_angle_triple(_scalar_draws(rng)[0], margin))
    lo = np.array([0.0, 0.0, margin])
    hi = np.array([TWO_PI, TWO_PI, math.pi - margin])
    return _uniform(rng, lo, hi, (size, 3)).T


def sample_x(
    rng: np.random.Generator,
    case: AngleCase,
    exclusion_eps: float = 0.05,
    rmin: float = 0.6,
    rmax: float = 2.5,
    size: Optional[int] = None,
) -> np.ndarray:
    """Base points with radius in [rmin, rmax], off the singular half-axis:
    one of shape (5,) for ``size=None``, else a (size, 5) stack.

    Each round draws the shortfall of directions, then of radii, and keeps
    the candidates that clear the exclusion, in draw order.  A one-point
    call therefore draws exactly what a loop of single draws would; a stack
    of n does not, since its rounds draw all directions before any radius.
    The call gives up after max(MAX_DRAWS, BATCH_DRAWS_PER_POINT * size)
    candidates.
    """
    n = 1 if size is None else size
    budget = max(MAX_DRAWS, BATCH_DRAWS_PER_POINT * n)
    kept, drawn, have = [], 0, 0
    while have < n:
        if drawn >= budget:
            raise ConfigInvalid(
                f"no {n} draws in {budget} clear exclusion_eps={exclusion_eps}"
            )
        need = n - have
        x = rng.standard_normal((need, 5))
        # one-point draws keep the bits of the single-draw loop (a test pins it)
        x /= _row_norms(x)[:, None]
        x *= _uniform(rng, rmin, rmax, need)[:, None]
        r = _row_norms(x)
        keep = r + case.axis_sign * x[:, 4] > exclusion_eps * r
        if not keep.all():
            x = x[keep]
        kept.append(x)
        drawn += need
        have += len(x)
    # a call that one round fills returns that round's array
    pts = kept[0] if len(kept) == 1 else np.concatenate(kept)
    return pts[0] if size is None else pts


# --- test fields --------------------------------------------------------------

@dataclass(frozen=True)
class _AnglePoly:
    """1 + sum_t amp_t cos(freq_t . phi + phase_t): a smooth three-mode
    trigonometric polynomial on the angle chart, O(1) amplitude.

    A stack of n polynomials (:meth:`_Draws.polys`) carries a trailing
    sample axis on every parameter, which broadcasts against the angles'
    trailing axis.
    """

    amp: np.ndarray  # (3,) + N
    freq: np.ndarray  # (3, 3) + N
    phase: np.ndarray  # (3,) + N

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        # written out term by term, so a value rounds the same in any batch
        (phi1, phi2, phi3), f, total = phi, self.freq, 0.0
        for t in range(3):
            arg = f[t, 0] * phi1 + f[t, 1] * phi2 + f[t, 2] * phi3
            total = total + self.amp[t] * np.cos(arg + self.phase[t])
        return 1.0 + total


@dataclass(frozen=True)
class _XPhiField:
    """A separable base-times-angle field over stacks (x B + (5,), angles S,
    values broadcast(B, S)), periodic in phi1/phi2: exp(-0.35 |x|^2) (1 + c.x)
    times an angle polynomial if ``gaussian``, else (1 + c.x + 0.1 x1 x5)
    times it.

    A stack of n fields (:meth:`_Draws.fields`) carries a sample axis that
    is trailing in the values: ``gaussian`` (n,), ``coeff`` (n, 5).
    """

    gaussian: np.ndarray  # N, bool
    coeff: np.ndarray  # N + (5,)
    ang: _AnglePoly

    def __call__(self, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
        # the factor 1 and the term 0 leave each kind's value as it rounds
        # written alone
        gauss = np.where(self.gaussian, np.exp(-0.35 * np.vecdot(x, x)), 1.0)
        cross = np.where(self.gaussian, 0.0, 0.1)
        poly = 1.0 + np.vecdot(x, self.coeff) + cross * x[..., 0] * x[..., 4]
        return gauss * poly * self.ang(phi)


class _Draws:
    """One row's one-value draws from ``rng``, each written as it is drawn
    into the flat list of its stacked quantity; each stack is built once,
    after the last draw, C-ordered as ``np.stack`` built the per-sample
    stacks (a sum rounds by memory order).  The values and the generator's
    end state are those of the same draws made one call at a time."""

    def __init__(self, rng: np.random.Generator):
        self.uniform, self.integer = _scalar_draws(rng)
        self._angles, self._poly, self._gaussian, self._coeff = [], [], [], []

    def angles(self, margin: float = 0.25) -> None:
        """One point's angles, as ``sample_angles(rng, margin)`` draws them."""
        self._angles += _angle_triple(self.uniform, margin)

    def poly(self) -> None:
        """One angle polynomial: per term its amplitude, three frequencies
        and phase."""
        u, k = self.uniform, self.integer
        for _ in range(3):
            self._poly += (u(0.2, 0.6), k(-2, 3), k(-2, 3), k(-2, 3), u(0.0, TWO_PI))

    def field(self, gaussian: bool) -> None:
        """One x-phi field: its five coefficients, then its angle polynomial."""
        u = self.uniform
        self._gaussian.append(gaussian)
        self._coeff += [u(-0.3, 0.3) for _ in range(5)]
        self.poly()

    def angle_stack(self) -> np.ndarray:
        """The angles drawn, (3, n)."""
        return np.array(self._angles).reshape(-1, 3).T.copy()

    def polys(self) -> _AnglePoly:
        """The angle polynomials drawn (those of the fields included), one
        stack."""
        v = np.array(self._poly, dtype=float).reshape(-1, 3, 5).T  # value, term, sample
        return _AnglePoly(v[0].copy(), v[1:4].transpose(1, 0, 2).copy(), v[4].copy())

    def fields(self) -> _XPhiField:
        """The x-phi fields drawn, one stack."""
        return _XPhiField(np.array(self._gaussian), np.array(self._coeff).reshape(-1, 5),
                          self.polys())


def _xphi_field(rng: np.random.Generator, kind: str) -> _XPhiField:
    """One x-phi field of ``kind`` ("gaussian" or "poly"), without a sample
    axis."""
    draws = _Draws(rng)
    draws.field(kind == "gaussian")
    f = draws.fields()
    return _XPhiField(np.array(kind == "gaussian"), f.coeff[0],
                      _AnglePoly(f.ang.amp[:, 0], f.ang.freq[..., 0], f.ang.phase[:, 0]))


def _groups(keys):
    """(key, indices of that key) for each distinct key, in order of first
    appearance."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out.items()


def _grouped_field(parts):
    """One complex field over angles whose trailing axis is the sample axis:
    for each (indices, fn) of ``parts``, those samples take ``fn`` evaluated
    on their own gathered angles, scattered back into place."""

    def field(phi: np.ndarray) -> np.ndarray:
        out = np.empty(phi.shape[1:], dtype=complex)
        for idx, fn in parts:
            out[..., idx] = fn(phi[..., idx])
        return out

    return field


# offsets of the invariant products m of a stack, B + (4, 4) -> B
_TEST_OFFSETS = (
    lambda m: 0.3 * np.sin(m[..., 0, 0].real - m[..., 1, 1].real),
    lambda m: 0.2 * np.cos(m[..., 2, 2].real + 0.5 * m[..., 3, 3].real),
    lambda m: 0.25 * np.sin(m[..., 0, 1].real + m[..., 2, 3].imag),
)


# --- conventions --------------------------------------------------------------

def resolved_conventions() -> dict:
    """The conventions the build declares, surfaced for the report."""
    table = cl.gamma_tilde_commutation_table(transform.GAMMA, transform.GAMMA_TILDE)
    conv = transform.OCTET_CONVENTION
    return {
        "companion_matrix": {
            "construction": "i * g1 * g3",
            "origin": "direct",
            "commutation_with_generators": {str(k): v for k, v in table.items()},
            "note": "anticommutes with the two generators it is built from; "
            "a blanket commutation claim does not hold",
        },
        "octet_map": {
            **conv.describe(),
            "octet_forms": [
                "x1 = u1^2+u2^2+u3^2+u4^2-u5^2-u6^2-u7^2-u8^2",
                "x2 = 2(u1 u5 + u2 u6 - u3 u7 - u4 u8)",
                "x3 = 2(u1 u6 - u2 u5 + u3 u8 - u4 u7)",
                "x4 = 2(u1 u7 + u2 u8 + u3 u5 + u4 u6)",
                "x5 = 2(u1 u8 - u2 u7 - u3 u6 + u4 u5)",
            ],
        },
        "rotor_algebra": {
            "structure_sign": "+i eps for both triples",
            "left_triple": "image of the right triple under "
            "phi1<->phi2, phi3->-phi3",
        },
        "angular_expansion_index_order": "sum over the ladder index q "
        "(first index, the e^{i q phi2} one); p fixed",
        "case_b_potential": "reflection image of case A: "
        "A_B(x) = P A_A(P x), P = diag(-1,-1,-1,+1,-1)",
        "laplacian_fiber_coefficient": "Casimir enters the second-order "
        "split with coefficient 1/r (and 1/(2 r^2) after reduction)",
    }


# --- the check table -------------------------------------------------------------

@dataclass(frozen=True)
class Measured:
    """One pre-reduced value over ``n`` evaluations: a record that is not the
    worst of per-draw residuals (a convergence ratio, an observed table, a
    maximum over a normalisation shared by every draw)."""

    n: int
    value: float
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One registry row.  ``draws(cfg, rng, **kw)`` draws every sample first
    (a row without draws evaluates ``None``), then ``evaluate(cfg, draws,
    **kw)`` gives an (n, ...) residual array whose row i depends on draw i
    alone, one such array per record id, or a :class:`Measured`.
    ``records`` names the records where they differ from the row id;
    ``detail`` is the records' detail unless a :class:`Measured` has one."""

    id: str
    evaluate: Callable
    tol: float
    draws: Optional[Callable] = None
    kw: dict = field(default_factory=dict)
    case: str = "-"
    records: tuple = ()
    detail: str = ""

    @property
    def record_ids(self) -> tuple:
        return self.records or (self.id,)


def _result(cfg, check_id, case, n, value, default_tol, detail="") -> CheckResult:
    """One report record.  A convergence ratio (:data:`RATIO_CHECKS`) passes
    at or above its tolerance, any other value strictly below it.  A record
    of no evaluated sample fails: it measured nothing."""
    tol = float(cfg.tolerances.get(check_id, default_tol))
    value = float(value)
    if n == 0:
        return CheckResult(check_id, case, 0, value, tol, False, "no sample evaluated")
    passed = value >= tol if check_id in RATIO_CHECKS else value < tol
    return CheckResult(check_id, case, n, value, tol, passed, detail)


def _worst_of(cfg, check_id, case, residuals, default_tol, detail="") -> CheckResult:
    """The record of a check over an (n, ...) array of per-draw residuals.

    ``n_samples`` is n and the value is one ``np.max`` over the whole array,
    so a NaN residual on any draw propagates and fails the check; so does an
    empty array.
    """
    res = np.asarray(residuals, dtype=float)
    return _result(cfg, check_id, case, len(res), np.max(res, initial=0.0),
                   default_tol, detail)


def run_row(cfg: SuiteConfig, row, rng: np.random.Generator) -> list[CheckResult]:
    """The records of one registry row, given as a :class:`Check` or its id:
    the row's draws from ``rng``, evaluated, each record folded by
    :func:`_worst_of` or taken from its :class:`Measured`."""
    if isinstance(row, str):
        row = {r.id: r for r in _registry(cfg)}[row]
    drawn = row.draws(cfg, rng, **row.kw) if row.draws else None
    out = row.evaluate(cfg, drawn, **row.kw)
    outs = out if len(row.record_ids) > 1 else (out,)
    return [
        _result(cfg, rid, row.case, res.n, res.value, row.tol, res.detail or row.detail)
        if isinstance(res, Measured)
        else _worst_of(cfg, rid, row.case, res, row.tol, row.detail)
        for rid, res in zip(row.record_ids, outs)
    ]


# Each sampled row draws all of its samples first, in the order a loop of
# single draws would, then evaluates them with one engine call per operator
# (per group where a field family or a spin J needs one).

def _clifford_structure(cfg, _):
    g, gt = transform.GAMMA, transform.GAMMA_TILDE
    allowed = np.array([0, 1, -1, 1j, -1j], dtype=complex)
    return Measured(5, np.max([
        np.abs(g - g.conj().transpose(0, 2, 1)).max(),
        np.abs(np.trace(g, axis1=1, axis2=2)).max(),
        np.abs(g[..., None] - allowed).min(axis=-1).max(),
        np.abs(gt + gt.T).max(),
    ]))


def _tilde_table(cfg, _):
    table = cl.gamma_tilde_commutation_table(transform.GAMMA, transform.GAMMA_TILDE)
    expected = {1: "anticommutes", 2: "commutes", 3: "anticommutes",
                4: "commutes", 5: "commutes"}
    return Measured(5, 0.0 if table == expected else 1.0, f"observed {table}")


def _norm_draws(cfg, rng):
    # (a + 1j b) / 2, each draw halved straight into its half of one array
    xi = np.empty((10 * cfg.samples, 4), dtype=complex)
    np.multiply(rng.standard_normal(xi.shape), 0.5, out=xi.real)
    np.multiply(rng.standard_normal(xi.shape), 0.5, out=xi.imag)
    return xi


def _norm_identity(cfg, xi):
    """max | |x| - |xi|^2 | over min |xi|^2, evaluated 2048 points at a time;
    np.max and np.min fold the blocks' values, so a NaN still fails it."""
    gaps, lows = [], []
    for i in range(0, len(xi), 2048):
        block = xi[i:i + 2048]
        # np.linalg.norm, not _row_norms: the two differ in the last bit
        norm_x = np.linalg.norm(transform.forward(block), axis=1)
        norm_xi = np.einsum("ns,ns->n", block, block.conj()).real
        gaps.append(np.abs(norm_x - norm_xi).max())
        lows.append(norm_xi.min())
    return Measured(len(xi), float(np.max(gaps) / np.min(lows)))


def _homogeneity_draws(cfg, rng):
    uniform, _ = _scalar_draws(rng)
    return [(sample_xi(rng, CASE_A, cfg.exclusion_eps), uniform(0.3, 2.0))
            for _ in range(50)]


def _homogeneity(cfg, draws):
    xi, c = zip(*draws)
    xi, c = np.array(xi), np.array(c)[:, None]
    return np.abs(transform.forward(c * xi) - c * c * transform.forward(xi))


def _octet_convention(cfg, u):
    conv = transform.OCTET_CONVENTION
    return Measured(len(u), conv.residual(u), json.dumps(conv.describe()))


def _angle_gap(a, b):
    """|a - b| on the circle of period 2 pi, elementwise."""
    delta = np.abs(a - b) % TWO_PI
    return np.minimum(delta, TWO_PI - delta)


def _xi_draws(cfg, rng, case, eps=0.1, **_):
    """100 fiber points of the case, clear of the larger of the configured
    exclusion and ``eps``, as one (100, 4) stack."""
    return sample_xi(rng, case, max(cfg.exclusion_eps, eps), size=100)


def _fiber_roundtrip(cfg, xi, case):
    x = transform.forward(xi)
    phi = transform.extra_angles(xi, case)
    xi2 = transform.fiber_section(x, phi, case)
    phi2 = transform.extra_angles(xi2, case)
    return np.stack([
        np.abs(transform.forward(xi2) - x).max(axis=-1) / _row_norms(x),
        _angle_gap(phi[0], phi2[0]),
        _angle_gap(phi[1], phi2[1]),
        np.abs(phi[2] - phi2[2]),
    ], axis=-1)


def _section_draws(cfg, rng, case):
    """60 base points, each followed by its angles: (60, 5) and (3, 60)."""
    draws, x = _Draws(rng), []
    for _ in range(60):
        x.append(sample_x(rng, case, max(cfg.exclusion_eps, 0.1)))
        draws.angles(0.15)
    return np.array(x), draws.angle_stack()


def _section_identity(cfg, draws, case):
    x, phi = draws
    xi = transform.fiber_section(x, phi, case)
    return np.abs(transform.forward(xi) - x).max(axis=-1) / _row_norms(x)


def _rotor_draws(cfg, rng, **_):
    """100 angle polynomials, each followed by its angles: the polynomials'
    stack and the angles (3, 100)."""
    draws = _Draws(rng)
    for _ in range(100):
        draws.poly()
        draws.angles()
    return draws.polys(), draws.angle_stack()


def _rotor_residuals(cfg, draws, relations):
    """Commutator residuals of ``relations``, one test field per sample."""
    fields, phi = draws
    return opcalc.commutator_residuals(relations, fields, phi, NESTED_STEP).T


def _closure(family: str) -> list:
    ops = [f"{family}{k}" for k in (1, 2, 3)]
    return [(ops[i], ops[(i + 1) % 3], (1j, ops[(i + 2) % 3])) for i in range(3)]


_CROSS = [(f"T{i}", f"Q{j}", (0.0, None)) for i in (1, 2, 3) for j in (1, 2, 3)]


def _casimir_draws(cfg, rng):
    """100 samples' angles, each followed by its field: per sample the
    (J, q, p) of a Wigner function (even samples) or None, the angles
    (3, 100) and the odd samples' angle polynomials as one stack."""
    draws, keys = _Draws(rng), []
    integer = draws.integer
    for i in range(100):
        draws.angles()
        if i % 2 == 0:
            J = integer(0, 3)
            q = integer(-J, J + 1)
            keys.append((J, q, integer(-J, J + 1)))
        else:
            keys.append(None)
            draws.poly()
    return keys, draws.angle_stack(), draws.polys()


def _casimir_residuals(cfg, draws):
    """One Casimir residual call for the stacked polynomials and one for the
    Wigner functions, each (J, q, p) group on its own samples.  The
    polynomials keep a real call: the stencil's division rounds otherwise
    on complex values."""
    keys, phi, polys = draws
    res = np.empty(len(keys))
    poly = [i for i, key in enumerate(keys) if key is None]
    jqp = [i for i, key in enumerate(keys) if key is not None]
    if poly:
        res[poly] = opcalc.casimir_residual(polys, phi[:, poly], NESTED_STEP)
    if jqp:
        field = _grouped_field([(sub, functools.partial(separation.wigner, *key))
                                for key, sub in _groups([keys[i] for i in jqp])])
        res[jqp] = opcalc.casimir_residual(field, phi[:, jqp], NESTED_STEP)
    return res


def _phase_residuals(cfg, draws, case, with_offsets):
    use = case.with_offsets(_TEST_OFFSETS) if with_offsets else case
    return opcalc.identity_residual("phase_constraint", use, draws, None, cfg.fd_step)


def _identity_draws(cfg, rng, case, **_):
    """50 fiber points, each followed by its x-phi field (Gaussian on even
    samples): the points (50, 4) and the fields' stack."""
    draws, xi = _Draws(rng), []
    for i in range(50):
        xi.append(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15), scale=1.4))
        draws.field(i % 2 == 0)
    return np.array(xi), draws.fields()


def _identity_residuals(cfg, draws, case, which):
    xi, fields = draws
    h = NESTED_STEP if which == "laplacian_split" else cfg.fd_step
    return opcalc.identity_residual(which, case, xi, fields, h)


def _fd_convergence(cfg, _):
    rng2 = np.random.default_rng(11)
    xi = sample_xi(rng2, CASE_A, 0.2)
    f = _xphi_field(rng2, "gaussian")
    ratios = []
    for which, h in (("phase_constraint", 0.05), ("derivative_split", 0.04),
                     ("laplacian_split", 0.08)):
        big = opcalc.identity_residual(which, CASE_A, xi, f, h)
        small = opcalc.identity_residual(which, CASE_A, xi, f, h / 2)
        ratios.append(big / max(small, 1e-300))
    # np.min keeps a NaN ratio, which then fails the check
    return Measured(3, np.min(ratios),
                    f"halving ratios {['%.1f' % r for r in ratios]} (order-4 stencils)")


def _gauge_properties(cfg, pts, case):
    """Per point: the largest transversality entry |x A| and the largest
    normalization residual entry |A^T A - scale 1| of the closed-form
    potential, two (n,) arrays.

    Evaluated 2048 points at a time: each block's residuals from
    :func:`_gauge_kernel` fold by ``np.max`` into their points' entries (a
    NaN entry makes its point NaN), so the potential's batch-last copy is at
    most (5, 3, 2048) floats, 240 kB, and no (n, 3, 3) stack is made; each
    point's maxima equal those of the one-block kernel bit for bit."""
    trans, norm = np.empty(len(pts)), np.empty(len(pts))
    for i in range(0, len(pts), 2048):
        t, g = _gauge_kernel(pts[i:i + 2048], case)
        np.max(t, axis=0, out=trans[i:i + 2048])
        np.max(g, axis=(0, 1), out=norm[i:i + 2048])
        del t, g  # freed before the next block's kernel runs
    return trans, norm


def _gauge_kernel(pts, case):
    """The transversality |x A| (3, n) and the normalization residual
    |A^T A - scale 1| (3, 3, n) of the closed-form potential at the points
    (n, 5), the batch axis last."""
    r = np.linalg.norm(pts, axis=1)
    # batch axis last, once: the sums over l run along unit-stride rows
    A = np.moveaxis(gauge.a_field_closed(pts, case), 0, -1).copy()
    trans = np.abs(np.einsum("ln,lkn->kn", pts.T, A))
    gram = np.einsum("lkn,ljn->kjn", A, A)
    scale = ((r - case.axis_sign * pts[:, 4])
             / (r * r * (r + case.axis_sign * pts[:, 4])))
    # in place: no second (3, 3, n) stack
    gram -= scale * np.eye(3)[..., None]
    return trans, np.abs(gram, out=gram)


def _closed_vs_numeric_residuals(cfg, xi, case, **_):
    numeric = gauge.a_field_numeric(xi, case, cfg.fd_step)
    return np.abs(numeric - gauge.a_field_closed(transform.forward(xi), case))


def _reflection_draws(cfg, rng):
    x = sample_x(rng, CASE_B, 1e-2, size=200)
    # rows near either half-axis are not evaluated samples
    return x[_row_norms(x) - np.abs(x[:, 4]) >= 1e-2]


def _gauge_reflection(cfg, x):
    P = gauge.CASE_B_REFLECTION
    ab = gauge.a_field_closed(x, CASE_B)
    aa = gauge.a_field_closed(P * x, CASE_A)
    return np.abs(ab - P[:, None] * aa)


def _frame_x_draws(cfg, rng, case):
    """A fiber point and a second base point per sample."""
    return [(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15)), sample_x(rng, case, 0.1))
            for _ in range(25)]


def _frame_x_residuals(cfg, draws, case):
    """The frame functions at each fiber point against those at the point
    over the second base point with the same angles, (n, 6)."""
    xi, x2 = map(np.array, zip(*draws))
    bp1, bm1 = gauge.b_functions(xi, case, cfg.fd_step)
    xi2 = transform.fiber_section(x2, transform.extra_angles(xi, case), case)
    bp2, bm2 = gauge.b_functions(xi2, case, cfg.fd_step)
    return np.abs(np.concatenate([bp1 - bp2, bm1 - bm2], axis=-1))


def _angle_independence_draws(cfg, rng, case):
    """20 fiber points, each followed by a second set of angles: (20, 4) and
    (3, 20)."""
    draws, xi = _Draws(rng), []
    for _ in range(20):
        xi.append(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15)))
        draws.angles(0.3)
    return np.array(xi), draws.angle_stack()


def _angle_independence_residuals(cfg, draws, case):
    """The numeric potential at each fiber point against that at the point
    with the second angles over the same base point, (n, 5, 3)."""
    xi, angles = draws
    xi2 = transform.fiber_section(transform.forward(xi), angles, case)
    A1 = gauge.a_field_numeric(xi, case, cfg.fd_step)
    return np.abs(A1 - gauge.a_field_numeric(xi2, case, cfg.fd_step))


def _random_column(uniform) -> tuple:
    """One potential column (a1, a+, a-) from three one-value uniforms."""
    a1, a2, a3 = uniform(-1.2, 1.2), uniform(-1.2, 1.2), uniform(-1.2, 1.2)
    return a1, 0.5 * (a2 - 1j * a3), 0.5 * (a2 + 1j * a3)


def _column_stack(cols) -> tuple:
    """The columns (a1, a+, a-) as three arrays over the columns."""
    return tuple(map(np.array, zip(*cols)))


def _columns(rng, spins, n):
    """``n`` random columns for each spin J in turn: the spins per column
    and the columns' stack."""
    uniform, _ = _scalar_draws(rng)
    js = [J for J in spins for _ in range(n)]
    return js, _column_stack([_random_column(uniform) for _ in js])


def _spectrum(cfg, draws):
    """Per column: its roots against the ladder m |A| and against their
    mirror image, one eigen-solve per spin J."""
    js, stack = draws
    res = np.empty((len(js), 2))
    for J, idx in _groups(js):
        cols = tuple(c[idx] for c in stack)
        # |A| per column in Python scalars, as the columns were drawn
        s = np.array([math.sqrt(a1 ** 2 + (ap + am).real ** 2 + (1j * (ap - am)).real ** 2)
                      for a1, ap, am in zip(*(c.tolist() for c in cols))])
        roots = separation.separation_roots(J, cols)
        expected = np.arange(-J, J + 1) * s[:, None]
        res[idx] = np.stack([np.abs(roots - expected).max(axis=-1),
                             np.abs(roots + roots[:, ::-1]).max(axis=-1)], axis=-1)
    return res


def _bisection(cfg, draws):
    """Per column: the eigen-solver roots against the determinant
    bisection's, one call of each per spin J."""
    js, stack = draws
    res = np.empty(len(js))
    for J, idx in _groups(js):
        cols = tuple(c[idx] for c in stack)
        eig = separation.separation_roots(J, cols)
        bis = separation.det_bisection_roots(J, cols)
        # a root the oracle missed or split is infinitely far off, as is
        # every root of a column it refuses (an entry off the three diagonals)
        res[idx] = [np.max(np.abs(e - b)) if len(b) == len(e) else math.inf
                    for e, b in zip(eig, bis)]
    return res


def _closed_form_magnitudes(x: np.ndarray) -> np.ndarray:
    """|a_lambda| of the case-A spin-1 branch in closed form, B + (5,) for
    points B + (5,): the norm of x without its lambda-th and fifth axes,
    over r (r + x5)."""
    r = _row_norms(x)
    denom = r * (r + x[..., 4])
    sq = x[..., :4] ** 2
    return np.stack([np.sqrt(sum(sq[..., i] for i in range(4) if i != lam)) / denom
                     for lam in range(4)] + [np.zeros_like(denom)], axis=-1)


def _alternating_branch(cfg, xs):
    """Per point: the case-A spin-1 alternating eigenvalues and centrifugal
    term against their closed forms."""
    xs = np.array(xs)
    r = _row_norms(xs)
    a, cent = separation.effective_terms(1, xs, CASE_A, "alternating")
    expected = np.array([-1.0, 1.0, -1.0, 1.0, 0.0]) * _closed_form_magnitudes(xs)
    return np.stack([np.abs(a - expected).max(axis=-1), np.abs(cent - 1.0 / (r * r))],
                    axis=-1)


def _wigner_ladder(cfg, _):
    """The analytic ladder against sqrt((J -+ q)(J +- q + 1)) phi^J_{q+-1,p}
    (zero off the ladder) on a 20^3 angle grid, one call of the ladder per
    (J, q, p, sign) on the broadcast grid.  Per (J, p) each target
    phi^J_{t,p} is evaluated once, for the two ladders that land on it
    (q = t -+ 1); the two off-ladder ends stand alone."""
    beta = np.linspace(0.12, math.pi - 0.12, 20)
    phi = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    # three broadcastable rows, never materialised as one (3, 20, 20, 20) array
    grid = (phi[None, None, :], phi[None, :, None], beta[:, None, None])
    maxima = []
    for J in range(min(2, cfg.J_max) + 1):
        for p in range(-J, J + 1):
            for sign in (1, -1):
                end = separation.ladder_apply(sign, J, sign * J, p, grid)
                maxima.append(np.abs(end).max())
            for t in range(-J, J + 1):
                ladders = [(sign, t - sign) for sign in (1, -1) if abs(t - sign) <= J]
                target = separation.wigner(J, t, p, grid) if ladders else None
                for sign, q in ladders:
                    coef = math.sqrt((J - sign * q) * (J + sign * q + 1))
                    diff = separation.ladder_apply(sign, J, q, p, grid) - coef * target
                    maxima.append(np.abs(diff).max())
    return Measured(len(maxima) * beta.size * phi.size ** 2, np.max(maxima))


def _angular_residuals(cfg, draws, **_):
    """|row.Q G - target G|, |Q^2 G - J(J+1) G| and |T1 G - p G| for draws
    (J, p, g, row, target, phi), G the angular factor of the coefficients g;
    one generator-image, one Casimir and one G evaluation over every draw,
    each (J, p) group of G on its own samples."""
    # no draws under J_max < 2, which validate() rejects but run_row takes:
    # a record of no sample, not a traceback
    if not draws:
        return np.empty((0, 3))
    h = 1e-3
    J, p, g, row, target, angles = zip(*draws)
    G = _grouped_field([
        (idx, functools.partial(separation.angular_factor, *key,
                                np.stack([g[i] for i in idx], axis=-1)))
        for key, idx in _groups(zip(J, p))])
    phi = np.stack(angles, axis=-1)
    images = opcalc.apply_euler_op(opcalc.EULER_OPS, G, phi, h)
    qsq = opcalc.casimir("Q", G, phi, h)
    gv = G(phi)
    J, p = np.array(J), np.array(p)
    return np.abs([
        opcalc.coupled_q(np.array(row), images) - np.array(target) * gv,
        qsq - J * (J + 1) * gv,
        images[0] - p * gv,
    ]).T


def _wigner_draws(cfg, rng):
    """Basis elements phi^J_{q,p} as angular factors: g the unit vector of
    q, the row picking Q1 and the target q; the angles are one stack."""
    rows = [
        (J, p, np.eye(2 * J + 1)[q + J], (1.0, 0.0, 0.0), q)
        for J in range(min(2, cfg.J_max) + 1)
        for q in range(-J, J + 1)
        for p in range(-J, J + 1)
        for _ in range(3)
    ]
    angles = sample_angles(rng, size=len(rows)).T
    return [(*row, phi) for row, phi in zip(rows, angles)]


def _null_draws(cfg, rng):
    """100 samples of a spin J, a column and the index of a root: the spins,
    the columns' stack and the indices."""
    uniform, integer = _scalar_draws(rng)
    js, cols, ks = [], [], []
    for _ in range(100):
        J = integer(0, cfg.J_max + 1)
        js.append(J)
        cols.append(_random_column(uniform))
        ks.append(integer(0, 2 * J + 1))
    return js, _column_stack(cols), ks


def _null_vector(cfg, draws):
    """|H g| per sample, g the null vector of its drawn root; one root
    solve, one null-vector solve and one product per spin J."""
    js, stack, ks = draws
    res = np.empty(len(js))
    for J, idx in _groups(js):
        col = tuple(c[idx] for c in stack)
        root = separation.separation_roots(J, col)[np.arange(len(idx)), [ks[i] for i in idx]]
        g = separation._null_vector(J, col, root)
        hg = (separation.build_h(J, col, root) @ g[..., None])[..., 0]
        res[idx] = separation._norms(hg)
    return res


def _angular_factor_draws(cfg, rng, case):
    """Per-axis angular factors at drawn base points: g the branch m = 1
    null vector of axis lam, the row its potential row and the target its
    root.  Per spin J, four (base point, p, ten angles) draws come first,
    then one closed-form and one axis_solution call on their stack."""
    _, integer = _scalar_draws(rng)
    draws = []
    for J in range(1, min(2, cfg.J_max) + 1):
        x, p, angles = zip(*[(sample_x(rng, case, 0.1), integer(-J, J + 1),
                              sample_angles(rng, size=10).T)
                             for _ in range(4)])
        A = gauge.a_field_closed(np.array(x), case)
        _, root, g = separation.axis_solution(J, A, "m=1")
        draws += [(J, p[k], g[k, lam], A[k, lam], root[k, lam], angles[k][2 * lam + j])
                  for k in range(4) for lam in range(5) for j in range(2)]
    return draws


def _oscillator(cfg, draws):
    """|H_osc psi - Z psi| / |psi| per (omega, xi) draw, psi the Gaussian
    exp(-omega |xi|^2); one operator call with one omega per point."""
    omega, xi = map(np.array, zip(*draws))
    field = lambda z: np.exp(-omega * np.vecdot(z, z).real)
    got = opcalc.oscillator_apply(omega, field, xi, NESTED_STEP)
    # the eigenvalue Z = 2 omega
    return np.abs(got - 2.0 * omega * field(xi)) / np.abs(field(xi))


def _radial_duality(cfg, draws):
    omega, x = map(np.array, zip(*draws))
    return opcalc.radial_duality_residual(omega, x, NESTED_STEP)


def _radial_field(kind):
    """exp(-|y|) where ``kind`` is 0, exp(-0.4 |y|^2) where it is 1, over
    stacks of base points B + (5,) -> B; an array of kinds (n,) gives each
    point of the trailing axis its own."""
    return lambda y: np.where(
        np.equal(kind, 0),
        np.exp(-_row_norms(y)),
        np.exp(-0.4 * np.vecdot(y, y)),
    )


def _consistency_draws(cfg, rng, **_):
    cases = cfg.case_objs()
    return [
        (cases[i % len(cases)],
         sample_x(rng, cases[i % len(cases)], 0.15, rmin=0.9, rmax=2.0),
         i % 2)
        for i in range(20)
    ]


def _consistency_residuals(cfg, draws, J):
    """One consistency evaluation per case over its stack of points."""
    res = np.empty(len(draws))
    for case, idx in _groups([dr[0] for dr in draws]):
        _, xs, kinds = zip(*(draws[i] for i in idx))
        res[idx] = separation.consistency_residual(
            J, 0, _radial_field(np.array(kinds)), np.array(xs), case,
            "alternating", NESTED_STEP,
        )
    return res


def _consistency_refinement(cfg, _):
    rng2 = np.random.default_rng(23)
    x = sample_x(rng2, CASE_A, 0.2, rmin=1.0, rmax=1.6)
    psi = _radial_field(0)
    res = []
    for h in (0.04, 0.02):
        res.append(separation.consistency_residual(1, 0, psi, x, CASE_A, "alternating", h,
                                                   n_angles=2))
    return Measured(2, res[0] / max(res[1], 1e-300),
                    f"residuals {res[0]:.2e} -> {res[1]:.2e} under step halving")


def _registry(cfg: SuiteConfig) -> list[Check]:
    """The suite in run order, one :class:`Check` per row.

    Each row is seeded by its position here, so moving a row reseeds it and
    every row after it.  A stem row of :func:`per_case` expands to one row
    per configured case, with ``{}`` replaced by the case tag in the row id
    and the record ids, and the case passed to draws and evaluate.
    """

    def per_case(*rows):
        return [
            replace(row, id=row.id.format(c.tag), case=c.tag, kw={"case": c, **row.kw},
                    records=tuple(r.format(c.tag) for r in row.records))
            for c in cfg.case_objs()
            for row in rows
        ]

    identities = ("derivative_split", "momentum_equivalence", "laplacian_split")
    return [
        Check("clifford_structure", _clifford_structure, 1e-14,
              detail="hermiticity, traces, entry set, antisymmetric companion"),
        Check("clifford_anticommutation",
              lambda cfg, _: Measured(25, cl.clifford_residual(transform.GAMMA)), 1e-14),
        Check("fierz_identity",
              lambda cfg, _: Measured(
                  256, cl.fierz_residual(transform.GAMMA, transform.GAMMA_TILDE)), 1e-12,
              detail="companion origin: direct"),
        Check("companion_commutation_table", _tilde_table, 0.5),
        Check("norm_identity", _norm_identity, 1e-12, _norm_draws),
        Check("quadratic_homogeneity", _homogeneity, 1e-12, _homogeneity_draws),
        Check("octet_convention", _octet_convention, 1e-12,
              lambda cfg, rng: rng.standard_normal((1000, 8))),
        *per_case(
            Check("fiber_roundtrip_{}", _fiber_roundtrip, 1e-10, _xi_draws,
                  records=("fiber_roundtrip",)),
            Check("section_identity_{}", _section_identity, 1e-10, _section_draws,
                  records=("section_identity",)),
        ),
        *(Check(f"rotor_closure_{f}", _rotor_residuals, 1e-5, _rotor_draws,
                {"relations": _closure(f)}) for f in "TQ"),
        Check("rotor_cross_commutation", _rotor_residuals, 1e-5, _rotor_draws,
              {"relations": _CROSS}),
        Check("casimir_equality", _casimir_residuals, 1e-4, _casimir_draws),
        *per_case(
            Check("phase_constraint_{}", _phase_residuals, 1e-6, _xi_draws,
                  {"with_offsets": False}),
            Check("phase_constraint_{}_offsets", _phase_residuals, 1e-6, _xi_draws,
                  {"with_offsets": True}),
            *(Check(w + "_{}", _identity_residuals, 1e-4, _identity_draws, {"which": w})
              for w in identities),
        ),
        Check("fd_convergence_order", _fd_convergence, 8.0),
        *per_case(
            Check("gauge_properties_{}", _gauge_properties, 1e-12,
                  lambda cfg, rng, case: sample_x(rng, case, cfg.exclusion_eps,
                                                  size=10 * cfg.samples),
                  records=("gauge_transversality_{}", "gauge_normalization_{}")),
            Check("gauge_closed_vs_numeric_{}", _closed_vs_numeric_residuals, 1e-5,
                  _xi_draws, {"eps": 0.15}),
            Check("frame_x_independence_{}", _frame_x_residuals, 1e-5, _frame_x_draws),
            Check("gauge_angle_independence_{}", _angle_independence_residuals, 1e-5,
                  _angle_independence_draws),
        ),
        Check("gauge_reflection_map", _gauge_reflection, 1e-12, _reflection_draws,
              case="B"),
        Check("spectrum_structure", _spectrum, 1e-10,
              lambda cfg, rng: _columns(rng, range(cfg.J_max + 1), 20),
              detail="ladder m*|A| and symmetry about zero"),
        Check("bisection_cross_check", _bisection, 1e-10,
              lambda cfg, rng: _columns(rng, range(2, min(3, cfg.J_max) + 1), 6)),
        Check("alternating_branch_caseA", _alternating_branch, 1e-12,
              lambda cfg, rng: [sample_x(rng, CASE_A, 0.05) for _ in range(40)], case="A",
              detail="sign pattern (-,+,-,+,0); fifth axis eigenvalue zero"),
        Check("wigner_ladder", _wigner_ladder, 1e-12),
        Check("wigner_eigenrelations", _angular_residuals, 1e-6, _wigner_draws),
        Check("null_vector_residual", _null_vector, 1e-10, _null_draws),
        *per_case(Check("angular_factor_eigen_{}", _angular_residuals, 1e-4,
                        _angular_factor_draws)),
        Check("oscillator_gaussian", _oscillator, 1e-6,
              lambda cfg, rng: list(zip(np.repeat([0.5, 1.0, 2.0], 8),
                                        sample_xi(rng, CASE_A, 0.0, size=24))),
              detail="eigenvalue 2*omega at omega in {0.5, 1, 2}"),
        Check("radial_duality", _radial_duality, 1e-6,
              lambda cfg, rng: [(omega, sample_x(rng, CASE_A, 0.0, rmin=0.8, rmax=2.0))
                                for omega in (0.5, 1.0, 2.0) for _ in range(8)],
              detail="exp(-omega r) with Z = 2 omega, E = -omega^2/2"),
        *(Check(f"separation_consistency_J{J}", _consistency_residuals, tol,
                _consistency_draws, {"J": J}) for J, tol in ((0, 1e-4), (1, 1e-3))),
        Check("consistency_refinement", _consistency_refinement, 2.0, case="A"),
    ]


def run_suite(cfg: SuiteConfig, only: Optional[list] = None) -> Report:
    """Execute every registered invariant check and assemble the report.

    ``only`` restricts the run to checks whose id starts with one of the
    given prefixes (a development convenience; the CLI always runs all).
    Seeding is positional in the full registry, so a restricted run sees
    the same draws as the full one.
    """
    cfg.validate()
    checks: list[CheckResult] = []
    for idx, row in enumerate(_registry(cfg)):
        if only is not None and not any(row.id.startswith(p) for p in only):
            continue
        checks += run_row(cfg, row, np.random.default_rng((cfg.seed, idx)))
    return Report(
        config={**asdict(cfg), "cases": list(cfg.cases)},
        environment={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        conventions=resolved_conventions(),
        checks=checks,
        passed=all(c.passed for c in checks),
        generated_at=datetime.now(timezone.utc).isoformat(),
    )


# --- file exports ---------------------------------------------------------------

def _parse_region(region: str):
    kind, _, rest = region.partition(":")
    if kind not in ("shell", "box", "point"):
        raise ConfigInvalid(f"unknown region {region!r}")
    vals = [float(v) for v in rest.split(",")]
    if not all(map(math.isfinite, vals)):
        raise ConfigInvalid(f"region values must be finite, got {region!r}")
    if kind == "point":
        if len(vals) != 5:
            raise ConfigInvalid("point region needs 5 coordinates")
    elif len(vals) != 2:
        raise ConfigInvalid(f"{kind} region needs 2 bounds, got {region!r}")
    elif kind == "shell":
        if not 0.0 <= vals[0] <= vals[1]:
            raise ConfigInvalid(f"shell radii must satisfy 0 <= RMIN <= RMAX, got {region!r}")
    elif not 0.0 <= vals[1] - vals[0] < math.inf:  # a float span overflows silently
        raise ConfigInvalid(f"box bounds must satisfy LO <= HI, a finite span apart, "
                            f"got {region!r}")
    return ("point", np.array(vals)) if kind == "point" else (kind, *vals)


@contextlib.contextmanager
def _strict_arithmetic(what: str):
    """Overflow, division by zero and invalid results raise inside the block,
    as :class:`ConfigInvalid` naming ``what``: an export never writes a value
    computed from an infinite or undefined intermediate."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigInvalid(f"{what} leaves the float range: {exc}") from exc


_EXPORT_BLOCK = 2048
# gauge's closed form pads each point with a zero sixth coordinate: the
# source index of its tables' x5 row
_PADDED_ZERO = 5
_FIELDS_LAYOUTS = {}


def _fields_layout(case: AngleCase) -> tuple:
    """``(ref, weight, templates)`` of a fields record under gauge's live
    closed-form tables for ``case``, built on first use for each pair of
    tables' entries, so a patched table gets its own.

    Entry (lam, k) of A is ``sign * q[src]`` with ``sign`` +-1: each slot of
    a source j < 5 (the quotient x_j / (r (r + s x5))) is + or - the first
    slot of j, its reference, and each slot of the padded source is the
    signed zero ``sign * 0.0``.  ``ref`` holds the references' row-major
    indices in A, and bit i of a point's pattern ``signbit(A[ref]) @ weight``
    is the sign bit of reference i.  ``templates[pattern]`` is the record
    line as json.dumps(rec, sort_keys=True) spells it, with each A slot's
    ``-`` written in, over ``str.format`` fields: the references'
    magnitudes, the normalization residual, the transversality, then x."""
    src = gauge._CLOSED_SRC.ravel().tolist()
    sign = gauge._CLOSED_SIGN[case.tag].ravel().tolist()
    key = tuple(src + sign)
    if key not in _FIELDS_LAYOUTS:
        neg = [v < 0.0 for v in sign]
        sources = sorted(set(src) - {_PADDED_ZERO})
        ref = [src.index(j) for j in sources]
        n_ref = len(ref)
        fields = ["{%d}" % i for i in range(n_ref + 7)]
        tail = ('], "props": {{"normalization_residual": %s, "transversality": %s}}, "x": [%s]}}\n'
                % (fields[n_ref], fields[n_ref + 1], ", ".join(fields[n_ref + 2:])))
        templates = []
        for pattern in range(2 ** n_ref):
            slots = []
            for j, n in zip(src, neg):
                if j == _PADDED_ZERO:
                    slots.append("-" * n + "0.0")
                else:
                    i = sources.index(j)
                    slots.append("-" * (n ^ neg[ref[i]] ^ (pattern >> i & 1)) + fields[i])
            templates.append('{{"A": [' + ", ".join(
                "[" + ", ".join(slots[i:i + 3]) + "]" for i in range(0, len(slots), 3)) + tail)
        _FIELDS_LAYOUTS[key] = (np.array(ref), 1 << np.arange(n_ref), templates)
    return _FIELDS_LAYOUTS[key]


def _fields_lines(table: np.ndarray, pattern: np.ndarray, templates: list):
    """The lines of :func:`_fields_table`'s records, formatted as they are
    written: each row's template filled with the ``repr`` of each of its
    values.  A reference's magnitude stands in for every A slot of its
    source, which is exact because ``repr(-v)`` is ``'-' + repr(v)`` for
    every finite ``v >= +0.0``, and json writes a finite float as
    ``float.__repr__`` does; the table is finite
    (:func:`_strict_arithmetic`).  The rows are made Python floats
    ``_EXPORT_BLOCK`` at a time, so no more than one block is held as
    Python objects."""
    for i in range(0, len(table), _EXPORT_BLOCK):
        block = slice(i, i + _EXPORT_BLOCK)
        lines = map(templates.__getitem__, pattern[block].tolist())
        yield from map(str.format, lines, *[map(repr, col) for col in table[block].T.tolist()])


def _write_text(out_path: str, head: str, lines=()) -> None:
    """Write ``head``, then the strings of ``lines``, over ``out_path`` from
    its first byte, and cut a regular file that was not empty to the length
    written, also when writing raises.

    The file is opened without ``O_TRUNC``: truncating a non-empty file
    before rewriting it costs ext4 several times the write (its
    replace-via-truncate flush), the cut after it does not.  A new or empty
    file has no tail to cut, so it costs one ``fstat`` more than
    ``open(path, "w")``.  The cut goes through the descriptor, at the
    offset the kernel has taken, so a flush that raises (a full disk, say)
    still leaves the new head alone.  The path keeps its inode, mode,
    symlink and hard links, as ``open(path, "w")`` keeps them.  Until the
    cut, a reader sees the new head over the old tail.  A device, FIFO or
    terminal is written as a stream."""
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        old = os.fstat(fd)
        try:
            fh.write(head)
            fh.writelines(lines)
        finally:
            if stat.S_ISREG(old.st_mode) and old.st_size:
                try:
                    fh.flush()
                finally:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_jsonl(out_path: str, records, lines=()) -> None:
    """One JSON line per record, keys sorted, through one encoder and in one
    write: the bytes of json.dumps(rec, sort_keys=True), which builds an
    encoder per call.  Then ``lines``, ready-made."""
    encode = json.JSONEncoder(sort_keys=True).encode
    _write_text(out_path, "".join([encode(rec) + "\n" for rec in records]), lines)


def _fields_table(pts: np.ndarray, case: AngleCase) -> tuple:
    """The closed-form records of ``pts`` as :func:`_fields_lines` writes
    them: one ``(m, 11)`` float row per point (the magnitudes of the four
    references of :func:`_fields_layout`, the normalization residual and
    transversality of the potential A, then the point), each row's pattern
    index, and the templates.  Only these outlive the call."""
    A = gauge.a_field_closed(pts, case)
    ref, weight, templates = _fields_layout(case)
    k = len(ref)
    table = np.empty((len(pts), k + 7))
    q = A.reshape(-1, 15).take(ref, axis=1)
    pattern = np.signbit(q) @ weight
    np.abs(q, out=table[:, :k])
    # batched matmul rounds as each point's own @ does; einsum sums in
    # another order
    r = _row_norms(pts)
    np.abs((pts[:, None, :] @ A)[:, 0]).max(axis=-1, out=table[:, k + 1])
    gram = np.swapaxes(A, -1, -2) @ A
    s = case.axis_sign * pts[:, 4]
    # the diagonal of gram - scale * I; off it scale * 0 is a zero, which
    # leaves |gram| as it is
    gram.reshape(-1, 9)[:, ::4] -= ((r - s) / (r * r * (r + s)))[:, None]
    np.abs(gram, out=gram).max(axis=(-2, -1), out=table[:, k])
    table[:, k + 2:] = pts
    return table, pattern, templates


def fields_cmd(
    case_tag: str,
    n: int,
    out_path: str,
    region: str = "shell:0.5,2.0",
    seed: int = 1729,
) -> dict:
    """Sample the closed-form potential and write JSON-lines records.

    Each record carries the point, the 5x3 potential, and its property
    residuals; points on the singular half-axis are skipped and counted in
    the leading meta record.  Returns the meta dict.  Raises
    :class:`ConfigInvalid`, writing nothing, for a region whose arithmetic
    overflows, divides by zero or turns invalid.
    """
    if not 0 < n <= 10 * MAX_SAMPLES:
        raise ConfigInvalid(f"n must lie in 1..{10 * MAX_SAMPLES}")
    case = CASE_A if case_tag == "A" else CASE_B
    reg = _parse_region(region)
    with _strict_arithmetic(f"region {region}"):
        rng = np.random.default_rng(seed)
        if reg[0] == "shell":
            # one normal and one uniform draw per point, interleaved
            uniform, _ = _scalar_draws(rng)
            pts, u = np.empty((n, 5)), np.empty(n)
            for i in range(n):
                pts[i] = rng.standard_normal(5)
                u[i] = uniform(reg[1], reg[2])
            pts /= _row_norms(pts)[:, None]
            pts *= u[:, None]
        elif reg[0] == "box":
            pts = _uniform(rng, reg[1], reg[2], (n, 5))
        else:
            pts = np.broadcast_to(reg[1], (n, 5))
        singular = gauge.closed_form_singular(pts, case)
        table, pattern, templates = _fields_table(pts[~singular], case)
    meta = {
        "meta": {
            "case": case_tag,
            "requested": n,
            "written": len(table),
            "skipped": int(np.count_nonzero(singular)),
            "region": region,
            "seed": seed,
        }
    }
    _write_jsonl(out_path, [meta], _fields_lines(table, pattern, templates))
    return meta["meta"]


def separate_cmd(
    J: int,
    p: int,
    case_tag: str,
    x_point,
    out_path: str,
    branch: str = "alternating",
) -> dict:
    """Write the per-axis separation solutions for one base point.

    One JSON line per axis with keys {J, p, lambda, roots, g, a_selected,
    centrifugal}; for J = 1 and case A a closing record compares the
    selected eigenvalues against their closed-form magnitudes.  Raises
    :class:`SingularAxis` for points on the case's singular half-axis,
    ``ValueError`` for J or |p| out of range and :class:`ConfigInvalid` for
    a point that is not finite or whose arithmetic overflows, divides by
    zero or turns invalid.
    """
    separation._check_spin(J, p)
    case = CASE_A if case_tag == "A" else CASE_B
    x = np.asarray(x_point, dtype=float)
    if x.shape != (5,):
        raise ConfigInvalid("point must have 5 coordinates")
    if not np.isfinite(x).all():
        raise ConfigInvalid(f"point coordinates must be finite, got {list(x_point)}")
    with _strict_arithmetic(f"point {x.tolist()}"):
        roots, root, g = separation.axis_solution(J, gauge.a_field_closed(x, case), branch)
        cent = separation._centrifugal(J, _row_norms(x))
    lines = [
        {"J": J, "p": p, "lambda": lam + 1, "roots": ladder, "g": vec,
         "a_selected": a, "centrifugal": cent}
        for lam, (ladder, vec, a) in enumerate(zip(
            roots.tolist(), np.stack([g.real, g.imag], -1).tolist(), root.tolist()))
    ]
    summary = {"point": x.tolist(), "case": case_tag, "branch": branch}
    if J == 1 and case_tag == "A":
        summary["closed_form_comparison"] = {
            "max_magnitude_residual": float(
                np.abs(np.abs(root) - _closed_form_magnitudes(x)).max()),
            "fifth_axis_root": float(root[4]),
        }
    _write_jsonl(out_path, lines + [{"summary": summary}])
    return summary
