"""The rows' draws, written into their stacked arrays as they are drawn,
against the per-sample code they replaced: for every seed the same arrays
bit for bit (dtype, shape and memory order included) and the generator in
the same state afterwards."""

import dataclasses
import json
import math

import numpy as np
import pytest

from hurwitz import harness, transform
from hurwitz.errors import ConfigInvalid
from hurwitz.harness import CASE_A, CASE_B, TWO_PI, SuiteConfig, sample_angles, sample_x, sample_xi
from hurwitz.transform import _row_norms, _scalar_draws, _uniform

SEEDS = range(20)
CASES = [CASE_A, CASE_B]
CFG = SuiteConfig()


# --- the per-sample reference code, as the rows drew before ------------------

def _ref_angle_poly(rng):
    uniform, integer = _scalar_draws(rng)
    amp, freq, phase = [], [], []
    for _ in range(3):
        amp.append(uniform(0.2, 0.6))
        freq.append((integer(-2, 3), integer(-2, 3), integer(-2, 3)))
        phase.append(uniform(0.0, TWO_PI))
    return harness._AnglePoly(np.array(amp), np.array(freq, dtype=float), np.array(phase))


def _ref_poly_stack(polys):
    return harness._AnglePoly(*(np.stack(p, axis=-1)
                                for p in zip(*((g.amp, g.freq, g.phase) for g in polys))))


def _ref_xphi_field(rng, kind):
    coeff = _uniform(rng, -0.3, 0.3, 5)
    return harness._XPhiField(np.array(kind == "gaussian"), coeff, _ref_angle_poly(rng))


def _ref_field_stack(fields):
    return harness._XPhiField(np.array([f.gaussian for f in fields]),
                              np.array([f.coeff for f in fields]),
                              _ref_poly_stack([f.ang for f in fields]))


def _ref_column(rng):
    a = _uniform(rng, -1.2, 1.2, 3)
    return (float(a[0]), 0.5 * (a[1] - 1j * a[2]), 0.5 * (a[1] + 1j * a[2]))


def _ref_rotor_draws(cfg, rng):
    draws = [(_ref_angle_poly(rng), sample_angles(rng)) for _ in range(100)]
    fields, angles = zip(*draws)
    return _ref_poly_stack(fields), np.stack(angles, axis=-1)


def _ref_casimir_draws(cfg, rng):
    _, integer = _scalar_draws(rng)
    draws = []
    for i in range(100):
        phi = sample_angles(rng)
        if i % 2 == 0:
            J = integer(0, 3)
            q = integer(-J, J + 1)
            p = integer(-J, J + 1)
            draws.append((phi, (J, q, p)))
        else:
            draws.append((phi, _ref_angle_poly(rng)))
    return ([g if isinstance(g, tuple) else None for _, g in draws],
            np.stack([a for a, _ in draws], axis=-1),
            _ref_poly_stack([g for _, g in draws if not isinstance(g, tuple)]))


def _ref_identity_draws(cfg, rng, case):
    draws = [
        (sample_xi(rng, case, max(cfg.exclusion_eps, 0.15), scale=1.4),
         _ref_xphi_field(rng, "gaussian" if i % 2 == 0 else "poly"))
        for i in range(50)
    ]
    xis, fields = zip(*draws)
    return np.array(xis), _ref_field_stack(fields)


def _ref_section_draws(cfg, rng, case):
    draws = [(sample_x(rng, case, max(cfg.exclusion_eps, 0.1)),
              sample_angles(rng, margin=0.15)) for _ in range(60)]
    x, phi = zip(*draws)
    return np.array(x), np.stack(phi, axis=-1)


def _ref_angle_independence_draws(cfg, rng, case):
    draws = [(sample_xi(rng, case, max(cfg.exclusion_eps, 0.15)),
              sample_angles(rng, margin=0.3)) for _ in range(20)]
    xi, angles = zip(*draws)
    return np.array(xi), np.stack(angles, axis=-1)


def _ref_columns(rng, spins, n):
    draws = [(J, _ref_column(rng)) for J in spins for _ in range(n)]
    return [J for J, _ in draws], tuple(map(np.array, zip(*(col for _, col in draws))))


def _ref_null_draws(cfg, rng):
    _, integer = _scalar_draws(rng)
    draws = []
    for _ in range(100):
        J = integer(0, cfg.J_max + 1)
        col = _ref_column(rng)
        draws.append((J, col, integer(0, 2 * J + 1)))
    js, cols, ks = zip(*draws)
    return list(js), tuple(map(np.array, zip(*cols))), list(ks)


def _ref_sample_x(rng, case, exclusion_eps=0.05, rmin=0.6, rmax=2.5, size=None):
    n = 1 if size is None else size
    budget = max(harness.MAX_DRAWS, harness.BATCH_DRAWS_PER_POINT * n)
    kept, drawn, have = [], 0, 0
    while have < n:
        if drawn >= budget:
            raise ConfigInvalid("no draws clear the exclusion")
        need = n - have
        v = rng.standard_normal((need, 5))
        v /= _row_norms(v)[:, None]
        x = v * _uniform(rng, rmin, rmax, need)[:, None]
        r = _row_norms(x)
        x = x[r + case.axis_sign * x[:, 4] > exclusion_eps * r]
        kept.append(x)
        drawn += need
        have += len(x)
    pts = np.concatenate(kept)
    return pts[0] if size is None else pts


def _ref_norm_identity(cfg, xi):
    norm_x = np.linalg.norm(transform.forward(xi), axis=1)
    norm_xi = np.einsum("ns,ns->n", xi, xi.conj()).real
    return harness.Measured(len(xi), float(np.abs(norm_x - norm_xi).max() / norm_xi.min()))


# --- comparison ------------------------------------------------------------------

def _state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def _assert_same(got, want, where="draws"):
    """Equal bit for bit, part by part: arrays in dtype, shape, memory order
    and bytes, test fields parameter by parameter, scalars in type and value."""
    assert type(got) is type(want), where
    if isinstance(got, (tuple, list)):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{k}]")
    elif dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            _assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.flags.c_contiguous == want.flags.c_contiguous, where
        assert got.tobytes() == want.tobytes(), where
    else:
        assert got == want, where


def _assert_same_draws(draw, ref, *args):
    for seed in SEEDS:
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        _assert_same(draw(CFG, rng, *args), ref(CFG, old, *args), f"seed {seed}")
        assert _state(rng) == _state(old), seed


def test_rotor_draws_equal_the_per_sample_draws():
    _assert_same_draws(harness._rotor_draws, _ref_rotor_draws)


def test_casimir_draws_equal_the_per_sample_draws():
    _assert_same_draws(harness._casimir_draws, _ref_casimir_draws)


@pytest.mark.parametrize("case", CASES, ids=["A", "B"])
def test_identity_draws_equal_the_per_sample_draws(case):
    _assert_same_draws(harness._identity_draws, _ref_identity_draws, case)


@pytest.mark.parametrize("case", CASES, ids=["A", "B"])
def test_angle_rows_equal_the_per_sample_draws(case):
    _assert_same_draws(harness._section_draws, _ref_section_draws, case)
    _assert_same_draws(harness._angle_independence_draws, _ref_angle_independence_draws, case)


def test_potential_columns_equal_the_per_sample_draws():
    for seed in SEEDS:
        for spins, n in ((range(CFG.J_max + 1), 20), (range(2, 4), 6)):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            _assert_same(harness._columns(rng, spins, n), _ref_columns(old, spins, n))
            assert _state(rng) == _state(old)
    _assert_same_draws(harness._null_draws, _ref_null_draws)


def test_one_field_equals_the_per_sample_field():
    for seed, kind in ((seed, kind) for seed in SEEDS for kind in ("gaussian", "poly")):
        rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
        _assert_same(harness._xphi_field(rng, kind), _ref_xphi_field(old, kind))
        assert _state(rng) == _state(old)


def _one_round_state(seed, n):
    """The generator's state after one sample_x round of ``n`` candidates."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((n, 5))
    rng.random(n)
    return _state(rng)


@pytest.mark.parametrize("case", CASES, ids=["A", "B"])
def test_sample_x_equals_the_concatenating_sampler(case):
    for seed in SEEDS:
        for eps, size in ((0.05, None), (0.05, 1), (0.05, 7), (0.05, 2000), (0.6, 2000),
                          (0.6, None), (0.0, 500)):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            _assert_same(sample_x(rng, case, eps, size=size),
                         _ref_sample_x(old, case, eps, size=size), f"{seed} {eps} {size}")
            assert _state(rng) == _state(old)
        # the eps = 0.6 stack takes a second round, whose rows are concatenated
        # to the first's; the eps = 0 one keeps its only round whole
        for eps, n, one_round in ((0.6, 2000, False), (0.0, 500, True)):
            rng = np.random.default_rng(seed)
            sample_x(rng, case, eps, size=n)
            assert (_state(rng) == _one_round_state(seed, n)) is one_round


@pytest.mark.parametrize("samples", [1000, 500, 204, 1])
def test_blocked_norm_identity_equals_the_one_block_value(samples):
    cfg = SuiteConfig(samples=samples)
    for seed in SEEDS:
        xi = harness._norm_draws(cfg, np.random.default_rng(seed))
        assert harness._norm_identity(cfg, xi) == _ref_norm_identity(cfg, xi), seed


@pytest.mark.parametrize("row", [0, 2047, 2048, 5000, 9999])
def test_a_nan_draw_fails_norm_identity(monkeypatch, row):
    # in the first, at the end of the first, at the start of the second, in a
    # middle and in the last of the five 2048-row blocks
    real = harness._norm_draws

    def poisoned(cfg, rng):
        xi = real(cfg, rng)
        xi[row, 1] = complex(math.nan, 0.0)
        return xi

    monkeypatch.setattr(harness, "_norm_draws", poisoned)
    (rec,) = harness.run_row(CFG, "norm_identity", np.random.default_rng(3))
    assert rec.passed is False
    assert math.isnan(rec.max_residual)
    assert rec.n_samples == 10 * CFG.samples
