"""Suite orchestration, sampling, structured reporting and file exports.

Every invariant advertised by the library modules is wired into
:func:`run_suite` as a named check with a pinned tolerance.  Sampling is
fully deterministic: each check draws from a generator seeded by
(config seed, stable check index), so the aggregation (maxima and counts
only) is independent of execution order and two runs with the same seed
produce byte-identical reports apart from the timestamp field.
"""

from __future__ import annotations

import functools
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from numbers import Integral, Real
from typing import Callable, Optional

import numpy as np

from . import clifford as cl
from . import gauge, opcalc, separation, transform
from .errors import ConfigInvalid
from .opcalc import DiffStrategy, OscillatorParams
from .transform import CASE_A, CASE_B, AngleCase, EulerAngles

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

TWO_PI = 2.0 * math.pi

# Rejection samplers give up after this many draws.  A feasible exclusion
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

    def strategy(self, step: Optional[float] = None) -> DiffStrategy:
        return DiffStrategy(step=step if step is not None else self.fd_step)


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
) -> np.ndarray:
    """One complex 4-vector with the case's angle pair well defined.

    Components have independent standard-normal real/imaginary parts
    (rotation-invariant coverage); draws whose angle-pair moduli fall
    within ``exclusion_eps`` of the degenerate locus (relative to |xi|)
    are rejected.
    """
    ia, ib = case.pair
    for _ in range(MAX_DRAWS):
        xi = scale * (
            rng.standard_normal(4) + 1j * rng.standard_normal(4)
        ) / 2.0
        norm = np.linalg.norm(xi)
        if norm < 1e-3:
            continue
        if min(abs(xi[ia]), abs(xi[ib])) > exclusion_eps * norm:
            return xi
    raise ConfigInvalid(f"no draw in {MAX_DRAWS} clears exclusion_eps={exclusion_eps}")


def sample_angles(rng: np.random.Generator, margin: float = 0.25) -> EulerAngles:
    return EulerAngles(
        rng.uniform(0.0, TWO_PI),
        rng.uniform(0.0, TWO_PI),
        rng.uniform(margin, math.pi - margin),
    )


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
    call therefore draws exactly what a loop of single draws would.  The
    call gives up after max(MAX_DRAWS, BATCH_DRAWS_PER_POINT * size)
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
        v = rng.standard_normal((need, 5))
        # rounds as np.linalg.norm of one 5-vector does (a test pins it), so
        # one-point draws keep the bits of the single-draw loop
        v /= np.sqrt(np.vecdot(v, v))[:, None]
        x = v * rng.uniform(rmin, rmax, need)[:, None]
        r = np.sqrt(np.vecdot(x, x))
        x = x[r + case.axis_sign * x[:, 4] > exclusion_eps * r]
        kept.append(x)
        drawn += need
        have += len(x)
    pts = np.concatenate(kept)
    return pts[0] if size is None else pts


# --- test fields --------------------------------------------------------------

@dataclass(frozen=True)
class _AnglePoly:
    """1 + sum_t amp_t cos(freq_t . phi + phase_t): a smooth three-mode
    trigonometric polynomial on the angle chart, O(1) amplitude.

    A stack of n polynomials (:meth:`stack`) carries a trailing sample axis
    on every parameter, which broadcasts against the angles' trailing axis.
    """

    amp: np.ndarray  # (3,) + N
    freq: np.ndarray  # (3, 3) + N
    phase: np.ndarray  # (3,) + N

    def __call__(self, phi: EulerAngles) -> np.ndarray:
        # written out term by term, so a value rounds the same in any batch
        f, total = self.freq, 0.0
        for t in range(3):
            arg = f[t, 0] * phi.phi1 + f[t, 1] * phi.phi2 + f[t, 2] * phi.phi3
            total = total + self.amp[t] * np.cos(arg + self.phase[t])
        return 1.0 + total

    @classmethod
    def stack(cls, polys) -> "_AnglePoly":
        return cls(*(np.stack(p, axis=-1)
                     for p in zip(*((g.amp, g.freq, g.phase) for g in polys))))


def _angle_poly(rng: np.random.Generator) -> _AnglePoly:
    terms = [
        (
            float(rng.uniform(0.2, 0.6)),
            rng.integers(-2, 3, size=3),
            float(rng.uniform(0.0, TWO_PI)),
        )
        for _ in range(3)
    ]
    return _AnglePoly(*(np.array(column, dtype=float) for column in zip(*terms)))


@dataclass(frozen=True)
class _XPhiField:
    """A separable base-times-angle field over stacks (x B + (5,), angles S,
    values broadcast(B, S)), periodic in phi1/phi2: exp(-0.35 |x|^2) (1 + c.x)
    times an angle polynomial if ``gaussian``, else (1 + c.x + 0.1 x1 x5)
    times it.

    A stack of n fields (:meth:`stack`) carries a sample axis that is
    trailing in the values: ``gaussian`` (n,), ``coeff`` (n, 5).
    """

    gaussian: np.ndarray  # N, bool
    coeff: np.ndarray  # N + (5,)
    ang: _AnglePoly

    def __call__(self, x: np.ndarray, phi: EulerAngles) -> np.ndarray:
        # the factor 1 and the term 0 leave each kind's value as it rounds
        # written alone
        gauss = np.where(self.gaussian, np.exp(-0.35 * np.vecdot(x, x)), 1.0)
        cross = np.where(self.gaussian, 0.0, 0.1)
        poly = 1.0 + np.vecdot(x, self.coeff) + cross * x[..., 0] * x[..., 4]
        return gauss * poly * self.ang(phi)

    @classmethod
    def stack(cls, fields) -> "_XPhiField":
        return cls(np.array([f.gaussian for f in fields]),
                   np.array([f.coeff for f in fields]),
                   _AnglePoly.stack([f.ang for f in fields]))


def _xphi_field(rng: np.random.Generator, kind: str) -> _XPhiField:
    coeff = rng.uniform(-0.3, 0.3, size=5)
    return _XPhiField(np.array(kind == "gaussian"), coeff, _angle_poly(rng))


def _stack(fields):
    """One field of the fields' family whose parameters hold each field's
    along a sample axis: evaluated on a batch whose last axis is that
    sample axis, sample i sees field i."""
    return type(fields[0]).stack(fields)


def _groups(keys):
    """(key, indices of that key) for each distinct key, in order of first
    appearance."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out.items()


def _stack_angles(angles) -> EulerAngles:
    """Angles of one draw each, as one batch of shape (n,)."""
    columns = zip(*((a.phi1, a.phi2, a.phi3) for a in angles))
    return EulerAngles(*(np.array(c) for c in columns))


# offsets of the invariant products m of a stack, B + (4, 4) -> B
_TEST_OFFSETS = (
    lambda m: 0.3 * np.sin(m[..., 0, 0].real - m[..., 1, 1].real),
    lambda m: 0.2 * np.cos(m[..., 2, 2].real + 0.5 * m[..., 3, 3].real),
    lambda m: 0.25 * np.sin(m[..., 0, 1].real + m[..., 2, 3].imag),
)


# --- conventions --------------------------------------------------------------

@functools.cache
def _convention():
    return transform.resolve_convention()


def resolved_conventions() -> dict:
    """Everything the build resolved on its own, surfaced for the report."""
    g = transform.GAMMA
    table = cl.gamma_tilde_commutation_table(g)
    conv = _convention()
    return {
        "companion_matrix": {
            "construction": "i * g1 * g3",
            "origin": g.gamma_tilde_origin,
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
    g = transform.GAMMA.gamma
    gt = transform.GAMMA.gamma_tilde
    allowed = np.array([0, 1, -1, 1j, -1j], dtype=complex)
    return Measured(5, np.max([
        np.abs(g - g.conj().transpose(0, 2, 1)).max(),
        np.abs(np.trace(g, axis1=1, axis2=2)).max(),
        np.abs(g[..., None] - allowed).min(axis=-1).max(),
        np.abs(gt + gt.T).max(),
    ]))


def _tilde_table(cfg, _):
    table = cl.gamma_tilde_commutation_table(transform.GAMMA)
    expected = {1: "anticommutes", 2: "commutes", 3: "anticommutes",
                4: "commutes", 5: "commutes"}
    return Measured(5, 0.0 if table == expected else 1.0, f"observed {table}")


def _norm_draws(cfg, rng):
    n = 10 * cfg.samples
    return (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))) / 2.0


def _norm_identity(cfg, xi):
    x = np.einsum("ns,lst,nt->nl", xi.conj(), transform.GAMMA.gamma, xi).real
    norm_x = np.linalg.norm(x, axis=1)
    norm_xi = np.einsum("ns,ns->n", xi, xi.conj()).real
    return Measured(len(xi), float(np.abs(norm_x - norm_xi).max() / norm_xi.min()))


def _homogeneity_draws(cfg, rng):
    return [(sample_xi(rng, CASE_A, cfg.exclusion_eps), rng.uniform(0.3, 2.0))
            for _ in range(50)]


def _homogeneity(cfg, draws):
    xi, c = zip(*draws)
    xi, c = np.array(xi), np.array(c)[:, None]
    return np.abs(transform.forward(c * xi).x - c * c * transform.forward(xi).x)


def _octet_convention(cfg, u):
    conv = _convention()
    return Measured(len(u), conv.residual(u), json.dumps(conv.describe()))


def _angle_gap(a, b):
    """|a - b| on the circle of period 2 pi, elementwise."""
    delta = np.abs(a - b) % TWO_PI
    return np.minimum(delta, TWO_PI - delta)


def _xi_draws(cfg, rng, case, eps=0.1, **_):
    """100 fiber points of the case, clear of the larger of the configured
    exclusion and ``eps``."""
    return [sample_xi(rng, case, max(cfg.exclusion_eps, eps)) for _ in range(100)]


def _fiber_roundtrip(cfg, draws, case):
    xi = np.array(draws)
    pt = transform.forward(xi)
    phi = transform.extra_angles(xi, case)
    xi2 = transform.fiber_section(pt, phi, case)
    phi2 = transform.extra_angles(xi2, case)
    return np.stack([
        np.abs(transform.forward(xi2).x - pt.x).max(axis=-1) / pt.r,
        _angle_gap(phi.phi1, phi2.phi1),
        _angle_gap(phi.phi2, phi2.phi2),
        np.abs(phi.phi3 - phi2.phi3),
    ], axis=-1)


def _section_draws(cfg, rng, case):
    return [(sample_x(rng, case, max(cfg.exclusion_eps, 0.1)),
             sample_angles(rng, margin=0.15)) for _ in range(60)]


def _section_identity(cfg, draws, case):
    x, phi = zip(*draws)
    x = np.array(x)
    xi = transform.fiber_section(x, _stack_angles(phi), case)
    # the unit-stride dot rounds as np.linalg.norm of each row does
    return np.abs(transform.forward(xi).x - x).max(axis=-1) / np.sqrt(np.vecdot(x, x))


def _rotor_draws(cfg, rng, **_):
    return [(_angle_poly(rng), sample_angles(rng)) for _ in range(100)]


def _rotor_residuals(cfg, draws, relations):
    """Commutator residuals of ``relations``, one test field per sample."""
    fields, angles = zip(*draws)
    return opcalc.commutator_residuals(
        relations, _stack(fields), _stack_angles(angles), cfg.strategy(1e-3)).T


def _closure(family: str) -> list:
    ops = [f"{family}{k}" for k in (1, 2, 3)]
    return [(ops[i], ops[(i + 1) % 3], (1j, ops[(i + 2) % 3])) for i in range(3)]


_CROSS = [(f"T{i}", f"Q{j}", (0.0, None)) for i in (1, 2, 3) for j in (1, 2, 3)]


def _casimir_draws(cfg, rng):
    """(angles, field) per sample, even samples a Wigner function of drawn
    (J, q, p), odd ones an angle polynomial."""
    draws = []
    for i in range(100):
        phi = sample_angles(rng)
        if i % 2 == 0:
            J = int(rng.integers(0, 3))
            q = int(rng.integers(-J, J + 1))
            p = int(rng.integers(-J, J + 1))
            draws.append((phi, (J, q, p)))
        else:
            draws.append((phi, _angle_poly(rng)))
    return draws


def _casimir_residuals(cfg, draws):
    """One Casimir residual for the stacked polynomials and one per (J, q, p)
    group of Wigner functions."""
    d = cfg.strategy(1e-3)
    res = np.empty(len(draws))
    keys = [g if isinstance(g, tuple) else "poly" for _, g in draws]
    for key, idx in _groups(keys):
        angles, fields = zip(*(draws[i] for i in idx))
        if key == "poly":
            field = _stack(fields)
        else:
            field = lambda ph, jqp=key: separation.wigner(*jqp, ph)
        res[idx] = opcalc.casimir_residual(field, _stack_angles(angles), d)
    return res


def _phase_residuals(cfg, draws, case, with_offsets):
    use = case.with_offsets(_TEST_OFFSETS) if with_offsets else case
    return opcalc.identity_residual("phase_constraint", use, np.array(draws), None,
                                    cfg.strategy())


def _identity_draws(cfg, rng, case, **_):
    return [
        (sample_xi(rng, case, max(cfg.exclusion_eps, 0.15), scale=1.4),
         _xphi_field(rng, "gaussian" if i % 2 == 0 else "poly"))
        for i in range(50)
    ]


def _identity_residuals(cfg, draws, case, which):
    xis, fields = zip(*draws)
    return opcalc.identity_residual(which, case, np.array(xis), _stack(fields),
                                    cfg.strategy())


def _fd_convergence(cfg, _):
    rng2 = np.random.default_rng(11)
    xi = sample_xi(rng2, CASE_A, 0.2)
    f = _xphi_field(rng2, "gaussian")
    ratios = []
    for which, h in (("phase_constraint", 0.05), ("derivative_split", 0.04),
                     ("laplacian_split", 0.08)):
        big = opcalc.identity_residual(which, CASE_A, xi, f,
                                       DiffStrategy(step=h, step2=h))
        small = opcalc.identity_residual(which, CASE_A, xi, f,
                                         DiffStrategy(step=h / 2, step2=h / 2))
        ratios.append(big / max(small, 1e-300))
    # np.min keeps a NaN ratio, which then fails the check
    return Measured(3, np.min(ratios),
                    f"halving ratios {['%.1f' % r for r in ratios]} (order-4 stencils)")


def _gauge_properties(cfg, pts, case):
    """Per point: the transversality |x A| and the normalization residual
    |A^T A - scale 1| of the closed-form potential."""
    r = np.linalg.norm(pts, axis=1)
    A = gauge.a_field_closed(pts, case).A
    trans = np.abs(np.einsum("nl,nlk->nk", pts, A))
    gram = np.einsum("nlk,nlj->nkj", A, A)
    scale = ((r - case.axis_sign * pts[:, 4])
             / (r * r * (r + case.axis_sign * pts[:, 4])))
    # in place: the (n, 3, 3) stacks are the suite's largest arrays
    gram -= scale[:, None, None] * np.eye(3)[None]
    return trans, np.abs(gram, out=gram)


def _closed_vs_numeric_residuals(cfg, draws, case, **_):
    xi = np.array(draws)
    numeric = gauge.a_field_numeric(xi, case, cfg.strategy()).A
    return np.abs(numeric - gauge.a_field_closed(transform.forward(xi), case).A)


def _reflection_draws(cfg, rng):
    x = sample_x(rng, CASE_B, 1e-2, size=200)
    # rows near either half-axis are not evaluated samples; the unit-stride
    # dot rounds as np.linalg.norm of each row does
    return x[np.sqrt(np.vecdot(x, x)) - np.abs(x[:, 4]) >= 1e-2]


def _gauge_reflection(cfg, x):
    P = gauge.CASE_B_REFLECTION
    ab = gauge.a_field_closed(x, CASE_B).A
    aa = gauge.a_field_closed(P * x, CASE_A).A
    return np.abs(ab - P[:, None] * aa)


def _frame_x_draws(cfg, rng, case):
    """A fiber point and a second base point per sample."""
    return [(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15)), sample_x(rng, case, 0.1))
            for _ in range(25)]


def _frame_x_residuals(cfg, draws, case):
    """The frame functions at each fiber point against those at the point
    over the second base point with the same angles, (n, 6)."""
    d = cfg.strategy()
    xi, x2 = map(np.array, zip(*draws))
    b1 = gauge.b_functions(xi, case, d)
    xi2 = transform.fiber_section(x2, transform.extra_angles(xi, case), case)
    b2 = gauge.b_functions(xi2, case, d)
    return np.abs(np.concatenate([b1.bplus - b2.bplus, b1.bminus - b2.bminus], axis=-1))


def _angle_independence_draws(cfg, rng, case):
    """A fiber point and a second set of angles per sample."""
    return [(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15)),
             sample_angles(rng, margin=0.3)) for _ in range(20)]


def _angle_independence_residuals(cfg, draws, case):
    """The numeric potential at each fiber point against that at the point
    with the second angles over the same base point, (n, 5, 3)."""
    d = cfg.strategy()
    xi, angles = zip(*draws)
    xi = np.array(xi)
    xi2 = transform.fiber_section(transform.forward(xi), _stack_angles(angles), case)
    A1 = gauge.a_field_numeric(xi, case, d).A
    return np.abs(A1 - gauge.a_field_numeric(xi2, case, d).A)


def _random_column(rng):
    a = rng.uniform(-1.2, 1.2, size=3)
    return (float(a[0]), 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))


def _columns(rng, spins, n):
    """(J, column) draws: ``n`` random columns for each spin J in turn."""
    return [(J, _random_column(rng)) for J in spins for _ in range(n)]


def _spectrum(cfg, draws):
    """Per column: its roots against the ladder m |A| and against their
    mirror image, one eigen-solve per spin J."""
    res = np.empty((len(draws), 2))
    for J, idx in _groups([J for J, _ in draws]):
        cols = [draws[i][1] for i in idx]
        s = np.array([math.sqrt(a1 ** 2 + (ap + am).real ** 2
                                + (1j * (ap - am)).real ** 2) for a1, ap, am in cols])
        roots = separation.separation_roots(J, tuple(map(np.array, zip(*cols))))
        expected = np.arange(-J, J + 1) * s[:, None]
        res[idx] = np.stack([np.abs(roots - expected).max(axis=-1),
                             np.abs(roots + roots[:, ::-1]).max(axis=-1)], axis=-1)
    return res


def _bisection(cfg, draws):
    """Per column: the eigen-solver roots against the determinant
    bisection's, one call of each per spin J."""
    res = np.empty(len(draws))
    for J, idx in _groups([J for J, _ in draws]):
        cols = tuple(map(np.array, zip(*(draws[i][1] for i in idx))))
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
    # the unit-stride dot rounds as np.linalg.norm of each row does
    r = np.sqrt(np.vecdot(x, x))
    denom = r * (r + x[..., 4])
    sq = x[..., :4] ** 2
    return np.stack([np.sqrt(sum(sq[..., i] for i in range(4) if i != lam)) / denom
                     for lam in range(4)] + [np.zeros_like(denom)], axis=-1)


def _alternating_branch(cfg, xs):
    """Per point: the case-A spin-1 alternating eigenvalues and centrifugal
    term against their closed forms."""
    xs = np.array(xs)
    r = np.sqrt(np.vecdot(xs, xs))
    a, cent = separation.effective_terms(1, xs, CASE_A, "alternating")
    expected = np.array([-1.0, 1.0, -1.0, 1.0, 0.0]) * _closed_form_magnitudes(xs)
    return np.stack([np.abs(a - expected).max(axis=-1), np.abs(cent - 1.0 / (r * r))],
                    axis=-1)


def _wigner_ladder(cfg, _):
    """The analytic ladder against sqrt((J -+ q)(J +- q + 1)) phi^J_{q+-1,p}
    (zero off the ladder) on a 20^3 angle grid, one call of each per
    (J, q, p, sign) on the broadcast grid."""
    beta = np.linspace(0.12, math.pi - 0.12, 20)
    phi = np.linspace(0.0, TWO_PI, 20, endpoint=False)
    grid = EulerAngles(phi[None, None, :], phi[None, :, None], beta[:, None, None])
    maxima = []
    for J in range(min(2, cfg.J_max) + 1):
        for q in range(-J, J + 1):
            for p in range(-J, J + 1):
                for sign in (1, -1):
                    diff = separation.ladder_apply(sign, J, q, p, grid)
                    if abs(q + sign) <= J:
                        coef = math.sqrt((J - sign * q) * (J + sign * q + 1))
                        diff = diff - coef * separation.wigner(J, q + sign, p, grid)
                    maxima.append(np.abs(diff).max())
    return Measured(len(maxima) * beta.size * phi.size ** 2, np.max(maxima))


def _angular_residuals(cfg, draws, **_):
    """|row.Q G - target G|, |Q^2 G - J(J+1) G| and |T1 G - p G| for draws
    (J, p, g, row, target, phi), G the angular factor of the coefficients g;
    one generator-image and one Casimir evaluation per (J, p) group."""
    d = cfg.strategy(1e-3)
    res = np.empty((len(draws), 3))
    for (J, p), idx in _groups([dr[:2] for dr in draws]):
        _, _, g, row, target, angles = zip(*(draws[i] for i in idx))
        g = np.stack(g, axis=-1)
        G = lambda ph: separation.angular_factor(J, p, g, ph)
        phi = _stack_angles(angles)
        images = opcalc.apply_euler_op(opcalc.EULER_OPS, G, phi, d)
        qsq = opcalc.casimir("Q", G, phi, d)
        gv = G(phi)
        res[idx] = np.abs([
            opcalc.coupled_q(np.array(row), images) - np.array(target) * gv,
            qsq - J * (J + 1) * gv,
            images[0] - p * gv,
        ]).T
    return res


def _wigner_draws(cfg, rng):
    """Basis elements phi^J_{q,p} as angular factors: g the unit vector of
    q, the row picking Q1 and the target q."""
    return [
        (J, p, np.eye(2 * J + 1)[q + J], (1.0, 0.0, 0.0), q, sample_angles(rng))
        for J in range(min(2, cfg.J_max) + 1)
        for q in range(-J, J + 1)
        for p in range(-J, J + 1)
        for _ in range(3)
    ]


def _null_draws(cfg, rng):
    """(J, column, index of the root) per sample."""
    draws = []
    for _ in range(100):
        J = int(rng.integers(0, cfg.J_max + 1))
        col = _random_column(rng)
        draws.append((J, col, int(rng.integers(0, 2 * J + 1))))
    return draws


def _null_vector(cfg, draws):
    """|H g| per sample, g the null vector of its drawn root; one root
    solve, one null-vector solve and one product per spin J."""
    res = np.empty(len(draws))
    for J, idx in _groups([J for J, _, _ in draws]):
        _, cols, k = zip(*(draws[i] for i in idx))
        col = tuple(map(np.array, zip(*cols)))
        root = separation.separation_roots(J, col)[np.arange(len(idx)), list(k)]
        g = separation._null_vector(J, col, root)
        hg = (separation.build_h(J, col, root) @ g[..., None])[..., 0]
        res[idx] = separation._norms(hg)
    return res


def _angular_factor_draws(cfg, rng, case):
    """Per-axis angular factors at drawn base points: g the branch m = 1
    null vector of axis lam, the row its potential row and the target its
    root."""
    draws = []
    for J in range(1, min(2, cfg.J_max) + 1):
        for _ in range(4):
            x = sample_x(rng, case, 0.1)
            A = gauge.a_field_closed(x, case).A
            p = int(rng.integers(-J, J + 1))
            sol = separation.axis_solution(J, A, "m=1")
            for lam in range(5):
                draws += [(J, p, sol.g[lam], A[lam], sol.root[lam], sample_angles(rng))
                          for _ in range(2)]
    return draws


def _oscillator(cfg, draws):
    """|H_osc psi - Z psi| / |psi| per (omega, xi) draw, psi the Gaussian
    exp(-omega |xi|^2); one operator call with one omega per point."""
    omega, xi = map(np.array, zip(*draws))
    p = OscillatorParams.from_omega(omega)
    field = lambda z: np.exp(-omega * np.vecdot(z, z).real)
    got = opcalc.oscillator_apply(p, field, xi, cfg.strategy())
    return np.abs(got - p.Z * field(xi)) / np.abs(field(xi))


def _radial_duality(cfg, draws):
    omega, x = map(np.array, zip(*draws))
    return opcalc.radial_duality_residual(OscillatorParams.from_omega(omega), x,
                                          cfg.strategy())


def _radial_field(kind):
    """exp(-|y|) where ``kind`` is 0, exp(-0.4 |y|^2) where it is 1, over
    stacks of base points B + (5,) -> B; an array of kinds (n,) gives each
    point of the trailing axis its own."""
    return lambda y: np.where(
        np.equal(kind, 0),
        np.exp(-np.sqrt(np.vecdot(y, y))),
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
            "alternating", cfg.strategy(),
        )
    return res


def _consistency_refinement(cfg, _):
    rng2 = np.random.default_rng(23)
    x = sample_x(rng2, CASE_A, 0.2, rmin=1.0, rmax=1.6)
    psi = _radial_field(0)
    res = []
    for h in (0.04, 0.02):
        d = DiffStrategy(step=h, step2=h)
        res.append(separation.consistency_residual(1, 0, psi, x, CASE_A, "alternating", d,
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
              lambda cfg, _: Measured(256, cl.fierz_residual(transform.GAMMA)), 1e-12,
              detail=f"companion origin: {transform.GAMMA.gamma_tilde_origin}"),
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
              lambda cfg, rng: [(omega, sample_xi(rng, CASE_A, 0.0, scale=1.0))
                                for omega in (0.5, 1.0, 2.0) for _ in range(8)],
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
        return ("point", np.array(vals))
    if len(vals) != 2:
        raise ConfigInvalid(f"{kind} region needs 2 bounds, got {region!r}")
    lo, hi = vals
    if kind == "shell" and not 0.0 <= lo <= hi:
        raise ConfigInvalid(f"shell radii must satisfy 0 <= RMIN <= RMAX, got {region!r}")
    if lo > hi:
        raise ConfigInvalid(f"box bounds must satisfy LO <= HI, got {region!r}")
    return (kind, lo, hi)


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
    the leading meta record.  Returns the meta dict.
    """
    if not 0 < n <= 10 * MAX_SAMPLES:
        raise ConfigInvalid(f"n must lie in 1..{10 * MAX_SAMPLES}")
    case = CASE_A if case_tag == "A" else CASE_B
    reg = _parse_region(region)
    rng = np.random.default_rng(seed)
    if reg[0] == "shell":
        # one normal and one uniform draw per point, interleaved
        pts = np.empty((n, 5))
        for i in range(n):
            v = rng.standard_normal(5)
            pts[i] = v / np.linalg.norm(v) * rng.uniform(reg[1], reg[2])
    elif reg[0] == "box":
        pts = rng.uniform(reg[1], reg[2], (n, 5))
    else:
        pts = np.broadcast_to(reg[1], (n, 5))
    singular = gauge.closed_form_singular(pts, case)
    pts = pts[~singular]
    A = gauge.a_field_closed(pts, case).A
    # batched matmul and unit-stride dots round as each point's own
    # np.linalg.norm and @ do; einsum and vecdot sum in another order
    r = np.sqrt(np.vecdot(pts, pts))
    trans = np.abs((pts[:, None, :] @ A)[:, 0]).max(axis=-1)
    gram = np.swapaxes(A, -1, -2) @ A
    s = case.axis_sign * pts[:, 4]
    scale = (r - s) / (r * r * (r + s))
    norm_res = np.abs(gram - scale[:, None, None] * np.eye(3)).max(axis=(-2, -1))
    records = [
        {"x": x, "A": a, "props": {"transversality": t, "normalization_residual": nr}}
        for x, a, t, nr in zip(pts.tolist(), A.tolist(), trans.tolist(), norm_res.tolist())
    ]
    meta = {
        "meta": {
            "case": case_tag,
            "requested": n,
            "written": len(records),
            "skipped": int(np.count_nonzero(singular)),
            "region": region,
            "seed": seed,
        }
    }
    with open(out_path, "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
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
    a non-finite point.
    """
    separation._check_spin(J, p)
    case = CASE_A if case_tag == "A" else CASE_B
    x = np.asarray(x_point, dtype=float)
    if x.shape != (5,):
        raise ConfigInvalid("point must have 5 coordinates")
    if not np.isfinite(x).all():
        raise ConfigInvalid(f"point coordinates must be finite, got {list(x_point)}")
    sol = separation.axis_solution(J, gauge.a_field_closed(x, case).A, branch)
    # unit-stride dots round as np.linalg.norm does
    r = np.sqrt(np.vecdot(x, x))
    cent = J * (J + 1) / (2.0 * r * r)
    lines = [
        {"J": J, "p": p, "lambda": lam + 1, "roots": roots, "g": g,
         "a_selected": a, "centrifugal": cent}
        for lam, (roots, g, a) in enumerate(zip(
            sol.roots.tolist(), np.stack([sol.g.real, sol.g.imag], -1).tolist(),
            sol.root.tolist()))
    ]
    summary = {"point": x.tolist(), "case": case_tag, "branch": branch}
    if J == 1 and case_tag == "A":
        summary["closed_form_comparison"] = {
            "max_magnitude_residual": float(
                np.abs(np.abs(sol.root) - _closed_form_magnitudes(x)).max()),
            "fifth_axis_root": float(sol.root[4]),
        }
    with open(out_path, "w") as fh:
        for rec in lines:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return summary
