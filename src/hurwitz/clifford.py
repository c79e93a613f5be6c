"""Dirac matrix set and its algebraic identities.

Builds the five 4x4 Hermitian matrices generating the Euclidean Clifford
algebra in five dimensions from Pauli blocks,

    gamma_k = -i beta alpha_k (k = 1, 2, 3),   gamma_4 = beta g1 g2 g3,
    gamma_5 = beta,

together with the antisymmetric companion matrix i*gamma_1*gamma_3 that
enters the product-contraction (Fierz-type) identity

    sum_l (g_l)_st (g_l)_uv = 2 d_sv d_tu - d_st d_uv - 2 gt_su gt_tv.

Everything downstream (the quadratic map, the gauge potentials) relies on
these identities holding to machine precision, so the residual functions
here return entrywise max-abs deviations and the thresholds used by the
test-suite are 1e-12 .. 1e-14, not loose tolerances.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_gamma",
    "clifford_residual",
    "fierz_residual",
    "gamma_tilde_commutation_table",
]


def _pauli() -> np.ndarray:
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return np.stack([s1, s2, s3])


def build_gamma() -> tuple[np.ndarray, np.ndarray]:
    """Construct the generators and the companion matrix from the
    Pauli/beta block forms.

    Returns ``(gamma, gamma_tilde)``: ``gamma`` has shape (5, 4, 4) and is
    0-indexed, ``gamma[k-1]`` being the k-th generator of the 1-based
    notation used in docstrings; the companion matrix (4, 4) is i*g1*g3.
    The construction is exact; the suite's contraction-identity check
    guards it.  An exhaustive search over every +-i g_a g_b in the Clifford
    tests is its independent oracle: only this product, with either sign,
    satisfies the identity.
    """
    pauli = _pauli()
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    beta = np.block([[eye, zero], [zero, -eye]])

    gammas = []
    for k in range(3):
        alpha_k = np.block([[zero, pauli[k]], [pauli[k], zero]])
        gammas.append(-1j * beta @ alpha_k)
    gammas.append(beta @ gammas[0] @ gammas[1] @ gammas[2])
    gammas.append(beta)
    gamma = np.stack(gammas)

    return gamma, 1j * gamma[0] @ gamma[2]


def clifford_residual(gamma: np.ndarray) -> float:
    """Max-abs deviation of g_a g_b + g_b g_a - 2 d_ab I over all 25 pairs
    of the generators ``gamma`` (5, 4, 4)."""
    anti = np.einsum("aij,bjk->abik", gamma, gamma)
    anti = anti + anti.transpose(1, 0, 2, 3)
    target = 2.0 * np.einsum("ab,ik->abik", np.eye(5), np.eye(4))
    return float(np.abs(anti - target).max())


def fierz_residual(gamma: np.ndarray, gamma_tilde: np.ndarray) -> float:
    """Max-abs deviation of the contraction identity over all 256 tuples,
    for the generators ``gamma`` (5, 4, 4) and the companion (4, 4)."""
    lhs = np.einsum("lst,luv->stuv", gamma, gamma)
    d = np.eye(4)
    rhs = (
        2.0 * np.einsum("sv,tu->stuv", d, d)
        - np.einsum("st,uv->stuv", d, d)
        - 2.0 * np.einsum("su,tv->stuv", gamma_tilde, gamma_tilde)
    )
    return float(np.abs(lhs - rhs).max())


def gamma_tilde_commutation_table(gamma: np.ndarray, gamma_tilde: np.ndarray) -> dict[int, str]:
    """Classify [tilde, g_l] and {tilde, g_l} numerically for each l, for
    the generators ``gamma`` (5, 4, 4) and the companion (4, 4).

    Keys are 1-based generator indices; values are "commutes",
    "anticommutes" or "neither" (a relation holds when its max-abs entry is
    below 1e-12).  Settles empirically whether the companion matrix
    commutes with the whole set (it does not: it anticommutes with the two
    generators it is built from).
    """
    table = {}
    for lam in range(5):
        prod = gamma_tilde @ gamma[lam]
        dorp = gamma[lam] @ gamma_tilde
        comm = float(np.abs(prod - dorp).max())
        anti = float(np.abs(prod + dorp).max())
        if comm < 1e-12:
            table[lam + 1] = "commutes"
        elif anti < 1e-12:
            table[lam + 1] = "anticommutes"
        else:
            table[lam + 1] = "neither"
    return table
