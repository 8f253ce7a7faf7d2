"""Pairwise concurrence: the general Wootters measure and the two
correlator closed forms valid for the U(1)- and Ising-symmetric chains.

The Wootters eigenproblem for rho @ rho_tilde is non-symmetric; its
square-rooted eigenvalues are computed here as the singular values of
sqrt(rho) sqrt(rho_tilde), with sqrt(rho_tilde) the spin flip of
sqrt(rho).  Taking square roots of the eigenvalues of
sqrt(rho) rho_tilde sqrt(rho) instead would turn an eigenvalue error of
1e-16 into an error of 1e-8 in the smallest lambda.  Closed-form values
are clamped at zero but the raw (unclamped) number is kept for
derivative studies.
"""

from dataclasses import dataclass

import numpy as np

_FLIP = np.zeros((4, 4))
_FLIP[0, 3] = _FLIP[3, 0] = -1.0
_FLIP[1, 2] = _FLIP[2, 1] = 1.0  # sigma_y (x) sigma_y in the (uu, ud, du, dd) basis

RDM_TOL = 1e-8


@dataclass(frozen=True)
class ConcurrenceValue:
    value: float   # clamped to [0, 1]
    raw: float     # pre-clamp value, may be negative
    method: str    # "wootters" | "xxz_closed" | "ising_closed"

    def __float__(self):
        return self.value


def _clamped(raw: float, method: str) -> ConcurrenceValue:
    return ConcurrenceValue(value=float(min(1.0, max(0.0, raw))), raw=float(raw),
                            method=method)


def validate_rdm(rho: np.ndarray, tol: float = RDM_TOL) -> np.ndarray:
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError("two-site density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {evals[0]:.3e}")
    return rho


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho_tilde = (sy (x) sy) rho* (sy (x) sy); real for real input."""
    return _FLIP @ np.asarray(rho).conj() @ _FLIP


def wootters_concurrence(rho: np.ndarray) -> ConcurrenceValue:
    """C = max(0, l1 - l2 - l3 - l4) from the square roots of the
    eigenvalues of rho @ rho_tilde, in decreasing order: the singular
    values of sqrt(rho) sqrt(rho_tilde)."""
    rho = validate_rdm(rho)
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(root @ spin_flip(root), compute_uv=False)
    raw = float(lam[0] - lam[1] - lam[2] - lam[3])
    return _clamped(raw, "wootters")


def xxz_closed_form(sum_of_correlators: float) -> ConcurrenceValue:
    """C = -2 sum_a <s^a s^a> - 1/2 for nearest neighbors of an
    Sz-symmetric antiferromagnetic ground state."""
    return _clamped(-2.0 * sum_of_correlators - 0.5, "xxz_closed")


def ising_closed_form(cxx: float, cyy: float, czz: float) -> ConcurrenceValue:
    """C = 2(<sx sx> - <sy sy> - <sz sz>) - 1/2 for the transverse-field
    Ising ground state; a diagnostic, with Wootters authoritative."""
    return _clamped(2.0 * (cxx - cyy - czz) - 0.5, "ising_closed")
