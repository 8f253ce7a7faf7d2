"""Dense and Lanczos eigensolvers for real symmetric operators.

``dense_spectrum`` wraps LAPACK for small matrices.  Given one matrix
per symmetry sector (``models.sector_matrices``), it solves each on its
own and merges the levels, so each eigenvector carries its sector's
quantum number; given one whole matrix, it is the oracle everything else
is checked against.  ``lanczos_lowest_k`` is a Krylov
iteration with full reorthogonalization: each step takes one classical
Gram-Schmidt pass against the Krylov basis and the converged states, and
a second only when the first leaves less than 1/sqrt(2) of the vector's
norm (the DGKS test).  Degenerate levels are recovered by restarting
with deflation against everything already converged (a single Krylov
sequence carries one vector per distinct eigenvalue, so multiplets need
the restarts).

Both solvers fix eigenvector phase by making the largest-magnitude
amplitude positive, and both report explicit residuals |H v - E v|.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the best residual seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class EigenSolution:
    energies: np.ndarray       # ascending
    vectors: np.ndarray        # orthonormal columns, one per energy
    residuals: np.ndarray      # |H v - E v|_2 per state
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.energies)

    def ground(self) -> tuple[float, np.ndarray]:
        return float(self.energies[0]), self.vectors[:, 0]


# largest asymmetry |A - A^T|, relative to max(1, max|A|), a matrix may carry
SYMMETRY_TOL = 1e-12


def degeneracy_tolerance(width: float) -> float:
    """Levels closer than this are one multiplet; ``width`` counts as at least 1."""
    return 1e-9 * max(1.0, width)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def dense_spectrum(matrix, *, levels: int | None = None, vectors: bool = True,
                   apply=None) -> EigenSolution:
    """Lowest ``levels`` eigenpairs (all by default) of a real symmetric
    matrix, ascending.

    ``matrix`` is one matrix, or the invariant blocks of one as a list of
    ``(rows, block)`` pairs whose ascending ``rows`` cover every row once.
    Each block is solved on its own and the levels are merged by a stable
    sort, so every returned vector is supported on one block.  Residuals
    are formed only for the returned columns, with ``apply`` (the
    operator the matrix was built from, acting on a block of columns)
    when given, else block by block.  With ``vectors=False`` LAPACK
    computes the energies alone; the solution then has no vector columns
    and no residuals.
    """
    if isinstance(matrix, np.ndarray):
        matrix = [(np.arange(len(matrix)), matrix)]
    rows, subs = zip(*((idx, np.asarray(sub, dtype=float)) for idx, sub in matrix))
    if any(sub.shape != (len(idx), len(idx)) for idx, sub in zip(rows, subs)):
        raise ValueError("expected square blocks matching their rows")
    dim = sum(map(len, rows))
    scale = max(1.0, max(float(np.max(np.abs(sub))) for sub in subs))
    if max(float(np.max(np.abs(sub - sub.T))) for sub in subs) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    levels = dim if levels is None else levels
    if not vectors:
        energies = np.concatenate([
            eigh(sub, eigvals_only=True, subset_by_index=[0, min(levels, len(sub)) - 1])
            for sub in subs])
        return EigenSolution(np.sort(energies, kind="stable")[:levels],
                             np.empty((dim, 0)), np.empty(0))
    pairs = [np.linalg.eigh(sub) for sub in subs]
    # each block's levels stay ascending in the merge, so the kept ones of
    # a block are its lowest
    owner = np.repeat(np.arange(len(pairs)), [len(e) for e, _ in pairs])
    owner = owner[np.argsort(np.concatenate([e for e, _ in pairs]), kind="stable")[:levels]]
    energies = np.empty(len(owner))
    vecs = np.zeros((dim, len(owner)))
    resid = np.empty(len(owner))
    for b, (idx, sub, (e_b, v_b)) in enumerate(zip(rows, subs, pairs)):
        cols = np.flatnonzero(owner == b)
        if not len(cols):
            continue
        e_b, v_b = e_b[:len(cols)], _fix_phases(v_b[:, :len(cols)])
        energies[cols] = e_b
        vecs[np.ix_(idx, cols)] = v_b
        if apply is None:
            resid[cols] = np.linalg.norm(sub @ v_b - v_b * e_b, axis=0)
    if apply is not None:
        resid = np.linalg.norm(apply(vecs) - vecs * energies, axis=0)
    return EigenSolution(energies, vecs, resid)


def lanczos_lowest_k(apply, dim: int, k: int, *, max_iter: int | None = None,
                     tol: float = 1e-10, seed: int = 0x5EED,
                     max_restarts: int | None = None,
                     check_every: int = 5) -> EigenSolution:
    """Lowest ``k`` eigenpairs of a symmetric operator given as a closure.

    ``apply`` maps a vector to H times that vector and must be linear and
    symmetric.  ``tol`` and the degeneracy tolerance are relative to the
    spectral width estimated from the Krylov process itself.  Runs are
    deterministic for a fixed seed: start vectors come from a seeded
    generator, one fresh draw per deflation restart.  ``meta`` counts
    the deflation ``restarts``, the calls to ``apply`` (``matvecs``) and
    the second Gram-Schmidt passes taken (``second_passes``), and keeps
    the first sequence's lowest Ritz values (``ritz_history``) and the
    ``spectral_width`` estimate.  Each residual is the one measured when
    its Ritz pair was accepted.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > dim:
        raise ValueError(f"k={k} exceeds dimension {dim}")
    if max_iter is None:
        max_iter = min(dim, max(3 * k + 80, 320))
    if max_restarts is None:
        max_restarts = 3 * k + 12

    found_vals: list[float] = []
    found_resid: list[float] = []
    found = np.empty((0, dim))  # converged vectors, one per row
    width = 1.0
    history: list[float] = []
    restarts = 0
    best_resid = np.inf
    matvecs = 0
    second_passes = 0

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return apply(v)

    def deflate(w):
        if len(found):
            w -= (found @ w) @ found
        return w

    def gram_schmidt(w, krylov):
        # one classical pass against the deflated converged states and the
        # Krylov rows; both are row blocks, so each product is a plain gemv
        w = deflate(w)
        w -= (krylov @ w) @ krylov
        return w

    certified = False
    while restarts <= max_restarts:
        if len(found_vals) >= dim:
            certified = True
            break
        if len(found_vals) >= k:
            if certified:
                break
            # a deflated restart whose smallest converged value clears the
            # current k-th level certifies the multiplet is complete
            want = 1
        else:
            want = k - len(found_vals)

        rng = np.random.RandomState((seed + 0x9E3779B9 * restarts) % (2 ** 32))
        q = deflate(rng.standard_normal(dim))
        norm = np.linalg.norm(q)
        if norm < 1e-12:
            restarts += 1
            continue

        steps = min(max_iter, dim - len(found_vals))
        q_rows = np.empty((steps + 1, dim))
        q_rows[0] = q / norm
        alphas = np.empty(steps)
        betas = np.empty(steps)
        ritz = None
        m_used = 0
        for m in range(steps):
            w = matvec(q_rows[m])
            alphas[m] = q_rows[m] @ w
            w -= alphas[m] * q_rows[m]
            if m > 0:
                w -= betas[m - 1] * q_rows[m - 1]
            # full reorthogonalization; a second pass only when the first
            # cancelled most of w (DGKS: Daniel, Gragg, Kaufman & Stewart,
            # Math. Comp. 30, 772 (1976)), after which w is orthogonal to
            # working precision
            before = float(np.linalg.norm(w))
            w = gram_schmidt(w, q_rows[:m + 1])
            beta = float(np.linalg.norm(w))
            if beta < before / np.sqrt(2.0):
                second_passes += 1
                w = gram_schmidt(w, q_rows[:m + 1])
                beta = float(np.linalg.norm(w))
            betas[m] = beta
            m_used = m + 1
            exhausted = beta <= 1e-13 * max(1.0, width)
            if (m + 1) % check_every == 0 or m == steps - 1 or exhausted:
                theta, s_mat = eigh_tridiagonal(alphas[:m + 1], betas[:m])
                width = max(width, float(theta[-1] - theta[0]))
                if restarts == 0:
                    history.append(float(theta[0]))
                nwant = min(want, len(theta))
                bounds = beta * np.abs(s_mat[-1, :nwant])
                ritz = (theta, s_mat)
                if np.all(bounds <= 0.1 * tol * max(1.0, width)) or exhausted:
                    break
            if exhausted:
                break
            q_rows[m + 1] = w / beta

        if ritz is None:
            restarts += 1
            continue
        theta, s_mat = ritz
        abs_tol = tol * max(1.0, width)
        pass_min = None
        for col in range(min(want, len(theta))):
            vec = deflate(s_mat[:, col] @ q_rows[:m_used])
            nrm = np.linalg.norm(vec)
            if nrm < 1e-8:
                continue
            vec /= nrm
            resid = float(np.linalg.norm(matvec(vec) - theta[col] * vec))
            best_resid = min(best_resid, resid)
            if resid > abs_tol:
                break  # extremal Ritz pairs converge first; later ones are worse
            found_vals.append(float(theta[col]))
            found_resid.append(resid)
            found = np.vstack([found, vec])
            if pass_min is None:
                pass_min = float(theta[col])
        if pass_min is not None and len(found_vals) > k:
            kth = np.sort(found_vals)[k - 1]
            certified = pass_min > kth + degeneracy_tolerance(width)
        restarts += 1

    if not certified and len(found_vals) >= k:
        raise ConvergenceError(
            "could not certify the multiplicity of the k-th level "
            f"within {max_restarts} deflation restarts", residuals=best_resid)
    if len(found_vals) < k:
        raise ConvergenceError(
            f"only {len(found_vals)} of {k} eigenpairs converged "
            f"(best residual {best_resid:.3e})", residuals=best_resid)

    order = np.argsort(found_vals)[:k]
    energies = np.array([found_vals[i] for i in order])
    # the phase rule only flips signs, which leaves each residual as measured
    vectors = _fix_phases(found[order].T)
    resid = np.array([found_resid[i] for i in order])
    return EigenSolution(energies, vectors, resid,
                         meta={"restarts": restarts, "ritz_history": history,
                               "spectral_width": width, "matvecs": matvecs,
                               "second_passes": second_passes})
