import numpy as np
import pytest

from hurwitz.clifford import (
    build_gamma,
    clifford_residual,
    fierz_residual,
    gamma_tilde_commutation_table,
)

GAMMA, GAMMA_TILDE = build_gamma()


def gamma_tilde_search(gamma):
    """Try every +-i g_a g_b (a < b) as the companion matrix.

    Returns the 20 candidates as (a, b, sign, residual) tuples (0-indexed
    a, b), sorted by residual then enumeration order, so the best candidate
    is first: the oracle behind the companion-matrix choice.
    """
    results = []
    for a in range(5):
        for b in range(a + 1, 5):
            for sign in (1, -1):
                cand = sign * 1j * gamma[a] @ gamma[b]
                results.append((a, b, sign, fierz_residual(gamma, cand)))
    results.sort(key=lambda t: (t[3], t[:3]))
    return results


def test_fifth_generator_is_diagonal_beta():
    assert np.allclose(GAMMA[4], np.diag([1, 1, -1, -1]), atol=0)


def test_generators_square_to_identity():
    for m in GAMMA:
        assert np.allclose(m @ m, np.eye(4), atol=1e-15)


def test_fourth_generator_from_direct_multiplication():
    # independent oracle: rebuild the product with explicit index loops
    beta = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    prod = beta.copy()
    for factor in (GAMMA[0], GAMMA[1], GAMMA[2]):
        out = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                out[i, j] = sum(prod[i, k] * factor[k, j] for k in range(4))
        prod = out
    assert np.abs(prod - GAMMA[3]).max() < 1e-15
    assert np.abs(GAMMA[3] - GAMMA[3].conj().T).max() < 1e-15


def test_entries_hermiticity_traces():
    allowed = np.array([0, 1, -1, 1j, -1j], dtype=complex)
    for m in GAMMA:
        assert np.abs(m - m.conj().T).max() == 0.0
        assert abs(np.trace(m)) == 0.0
        dist = np.abs(m[..., None] - allowed).min(axis=-1)
        assert dist.max() == 0.0


def test_companion_is_antisymmetric_exactly():
    assert np.abs(GAMMA_TILDE + GAMMA_TILDE.T).max() == 0.0


def test_anticommutation_residual_zero():
    assert clifford_residual(GAMMA) < 1e-14


def test_identity_in_place_of_fifth_generator_breaks_algebra():
    bad = np.concatenate([GAMMA[:4], np.eye(4, dtype=complex)[None]])
    assert clifford_residual(bad) >= 2.0


def test_residual_grows_linearly_under_hermitian_perturbation():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = H + H.conj().T
    res = []
    for eps in (1e-4, 1e-3, 1e-2):
        g1 = GAMMA[0] + eps * H
        res.append(clifford_residual(np.concatenate([g1[None], GAMMA[1:]])))
    # linear regime: a decade in eps moves the residual by a decade
    assert res[1] / res[0] == pytest.approx(10.0, rel=0.15)
    assert res[2] / res[1] == pytest.approx(10.0, rel=0.15)


def test_contraction_identity_exact():
    assert fierz_residual(GAMMA, GAMMA_TILDE) < 1e-12


def test_contraction_identity_diagonal_tuple_by_hand():
    # (s,t,u,v) = (1,1,1,1): only the diagonal generator contributes 1;
    # the right side is 2 - 1 - 0 since the companion has zero diagonal
    lhs = sum(GAMMA[l][0, 0] * GAMMA[l][0, 0] for l in range(5))
    rhs = 2 - 1 - 2 * GAMMA_TILDE[0, 0] ** 2
    assert lhs == rhs == 1.0


def test_exhaustive_companion_search_finds_both_signs():
    results = gamma_tilde_search(GAMMA)
    winners = [(a, b, s) for a, b, s, res in results if res < 1e-12]
    assert set(winners) == {(0, 2, 1), (0, 2, -1)}


def test_commutation_table_classification():
    table = gamma_tilde_commutation_table(GAMMA, GAMMA_TILDE)
    assert table == {
        1: "anticommutes",
        2: "commutes",
        3: "anticommutes",
        4: "commutes",
        5: "commutes",
    }


def test_commutation_table_identity_commutes_with_all():
    table = gamma_tilde_commutation_table(GAMMA, np.eye(4, dtype=complex))
    assert all(v == "commutes" for v in table.values())
