"""Dense and Lanczos eigensolvers for real symmetric operators.

``dense_spectra`` wraps LAPACK for small matrices.  It takes the blocks
of P matrices on symmetry-adapted states (``models.stacked_blocks``:
each block column a combination of one orbit of basis states under the
lattice symmetries, up to 4N of them), solves the distinct blocks of
each dimension d, every one a (P, d, d) stack, in one LAPACK call, which
solves each matrix as it would alone, merges each matrix's levels, so each
level keeps its block and its vector in that block, and lifts every
kept level into the whole basis.  ``dense_spectrum`` is ``dense_spectra``
of one matrix, so a batched solve is bitwise the one-matrix solve.

``lanczos_lowest_k`` is a Krylov
iteration with partial reorthogonalization (H. D. Simon, Math. Comp. 42,
115 (1984)): a recurrence on the stored alpha and beta estimates how far
each new Krylov vector has drifted from orthogonality, and only when the
estimate passes sqrt(eps) is the vector (and the next one) reorthogonalized
against the whole Krylov basis, by one classical Gram-Schmidt pass and a
second only when the first leaves less than 1/sqrt(2) of the vector's
norm (the DGKS test).  That keeps the basis semi-orthogonal, which is
enough for Ritz pairs to working accuracy.  Every step is projected
against the converged states.  Degenerate levels are recovered by
restarting with deflation against everything already converged (a single
Krylov sequence carries one vector per distinct eigenvalue, so multiplets
need the restarts).  A call allocates one workspace, a Krylov store as
long as its longest sequence and the scratch rows of the recurrences;
every restart writes into it in place and it is freed when the call
returns, so a solve peaks at about one Krylov store, whatever its
restarts.

Both solvers fix eigenvector phase by making the largest-magnitude
amplitude positive, and both report explicit residuals: |H_b v_b - E v_b|
in the level's block for LAPACK, |H v - E v| for Lanczos.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dstebz, dstein


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the best residual seen."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class EigenSolution:
    energies: np.ndarray       # ascending
    vectors: np.ndarray        # orthonormal columns, one per level, lowest first
    residuals: np.ndarray      # |H v - E v|_2 per level
    meta: dict = field(default_factory=dict)
    # per level: (index of its block, its vector there); None when energies only
    block_levels: tuple | None = None
    # a solve on a model's blocks: each block's label terms (models.BlockLabels)
    block_labels: tuple | None = None

    @property
    def k(self) -> int:
        return len(self.energies)

    def ground(self) -> tuple[float, np.ndarray]:
        return float(self.energies[0]), self.vectors[:, 0]


EPS = np.finfo(float).eps
# Simon's semi-orthogonality level: a Krylov vector whose estimated overlap
# with an earlier one exceeds this is reorthogonalized
SEMI_ORTHOGONAL = np.sqrt(EPS)
# Lanczos steps between two Ritz checks
CHECK_EVERY = 5


def degeneracy_tolerance(width):
    """Levels closer than this are one multiplet; ``width`` counts as at
    least 1.  An array of widths gives one tolerance per width."""
    return 1e-9 * np.fmax(1.0, width)


def ground_multiplicity(energies: np.ndarray) -> int:
    """How many of the ascending ``energies`` lie within the degeneracy
    tolerance of the lowest, the tolerance taken on their own width."""
    if len(energies) < 2:
        return 1
    deg = degeneracy_tolerance(float(energies[-1] - energies[0]))
    return int(np.count_nonzero(energies - energies[0] <= deg))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with each column's largest-magnitude amplitude made
    positive, in place."""
    idx = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.copysign(1.0, vectors[idx, np.arange(vectors.shape[1])])
    return vectors


def dense_spectrum(blocks: list, *, levels: int | None = None,
                   vectors: bool = True) -> EigenSolution:
    """Lowest ``levels`` eigenpairs (all by default) of a real symmetric
    matrix, given as its invariant blocks: ``dense_spectra`` of one
    matrix."""
    return dense_spectra(blocks, levels=levels, vectors=vectors)[0]


def dense_spectra(blocks: list, *, levels: int | None = None,
                  vectors: bool = True) -> list[EigenSolution]:
    """Lowest ``levels`` eigenpairs (all by default) of P real symmetric
    matrices with the same invariant blocks, one solution per matrix.

    ``blocks`` is a list of ``(rows, coefs, block)`` triples
    (``models.stacked_blocks``; ``HamiltonianAction.blocks`` for one
    matrix).  Column a of a d x d block stands for the unit vector
    sum_t coefs[t, a] e_{rows[t, a]} of the whole, with ``rows`` and
    ``coefs`` of shape (r, d), and ``block`` is a (P, d, d) stack, or one
    d x d matrix.  The layout that made the blocks checked that they
    cover the whole once and are symmetric, so neither is checked here.
    LAPACK runs once per block dimension, on the stacks of every distinct
    block object of that dimension at once (a mirrored Sz sector, or the
    partner of a block, is listed twice and solved once), and solves each
    matrix of the stack as it would alone.

    Levels are merged in ascending order, except that the members of a
    multiplet (levels within ``degeneracy_tolerance`` of the width of
    each other) keep the order of their blocks, not of their last bits.
    A solution keeps each level's block index and its vector there, a
    copy (``block_levels``), and lifts every kept level into the whole
    basis as a ``vectors`` column, its largest-magnitude amplitude made
    positive; every residual is |H_b v_b - E v_b| in the level's block.
    So each solution is bitwise its matrix's own solve.  With
    ``vectors=False`` LAPACK computes energies alone and the lowest
    ``levels`` are kept, each bitwise the same for any ``levels``, with
    no vectors, residuals or block levels.  A LAPACK failure on any
    matrix raises ConvergenceError.
    """
    rows, coefs, subs = zip(*blocks)
    dims = [idx.shape[1] for idx in rows]
    dim = sum(dims)
    # a 2-D block is a stack of one, and a block listed twice is solved once
    keys = [id(sub) for sub in subs]
    stacks, by_dim = {}, {}  # by_dim: block dimension -> its distinct stacks' keys
    for key, sub in zip(keys, subs):
        if key not in stacks:
            stacks[key] = sub if sub.ndim == 3 else sub[None]
            by_dim.setdefault(sub.shape[-1], []).append(key)
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    solved = {}
    try:
        for same in by_dim.values():
            # one call on every stack of this dimension, cut back into stacks
            out = solve(np.concatenate([stacks[key] for key in same]) if len(same) > 1
                        else stacks[same[0]])
            stop = 0
            for key in same:
                start, stop = stop, stop + len(stacks[key])
                solved[key] = (out[0][start:stop], out[1][start:stop]) if vectors \
                    else out[start:stop]
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"dense eigensolver failed: {err}") from err
    per_block = [solved[key] for key in keys]
    merged = np.concatenate([out[0] if vectors else out for out in per_block], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    ascending = np.take_along_axis(merged, order, 1)
    tol = degeneracy_tolerance(ascending[:, -1] - ascending[:, 0])
    split = np.diff(ascending, axis=1) > tol[:, None]
    multiplet = np.cumsum(np.concatenate((np.zeros((len(merged), 1), bool), split), axis=1),
                          axis=1)
    # merged is block-major, so sorting a multiplet by position keeps block
    # order, and each block's kept levels stay its lowest, ascending
    order = np.take_along_axis(order, np.lexsort((order, multiplet), axis=1), 1)[:, :levels]
    energies = np.take_along_axis(merged, order, 1)
    if not vectors:
        return [EigenSolution(e, np.empty((dim, 0)), np.empty(0)) for e in energies]
    offsets = np.cumsum(dims) - dims
    block = np.repeat(np.arange(len(subs)), dims)[order]  # each kept level's block
    local = order - offsets[block]                         # and its column there
    resid = np.empty(order.shape)
    lifted = np.empty((len(order), dim, order.shape[1]))
    block_levels = [[None] * order.shape[1] for _ in order]
    for b in np.unique(block).tolist():
        e_b, v_b = per_block[b]
        kept = block == b
        p_of, c_of = np.nonzero(kept)  # matrix by matrix, each one's levels ascending
        # a matrix keeps the block's lowest levels, and its residuals are
        # read from a product of just that many columns, as in its
        # one-matrix solve: BLAS rounds a column by the product's width
        width = kept.sum(axis=1)
        for m in set(width.tolist()) - {0}:
            at = width == m
            v = v_b[:, :, :m]
            inside = np.linalg.norm(stacks[keys[b]] @ v - v * e_b[:, None, :m], axis=1)
            resid[kept & at[:, None]] = inside[at].ravel()
        members = {}  # matrix -> its kept levels of the block
        for p, c in zip(p_of.tolist(), c_of.tolist()):
            members.setdefault(p, []).append(c)
        for p, cs in members.items():
            # a copy, so a kept level holds its own vector, not the whole
            # stack, and one per matrix, as small copies fragment the heap
            for c, vec in zip(cs, v_b[p, :, :len(cs)].T.copy()):
                block_levels[p][c] = (b, vec)
        # entry (t, i, j) of the lift is coefs[t, i] v_j[i], on row rows[t, i]
        # of level j, for the block's kept vectors v_j of every matrix
        n = len(p_of)
        full = np.bincount((rows[b][:, :, None] + np.arange(n) * dim).ravel(),
                           (coefs[b][:, :, None] * v_b[p_of, :, local[kept]].T).ravel(), n * dim)
        lifted[p_of, :, c_of] = _fix_phases(full.reshape(n, dim).T).T
    return [EigenSolution(e, v, r, block_levels=tuple(levels_p))
            for e, v, r, levels_p in zip(energies, lifted, resid, block_levels)]


def _ritz(alphas: np.ndarray, betas: np.ndarray, nwant: int):
    """The lowest ``nwant`` eigenpairs ``(theta, s_mat)`` and the top
    eigenvalue of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas`` (float64, contiguous).

    These are the LAPACK calls ``scipy.linalg.eigh_tridiagonal`` makes
    for ``select="i"``, and the one ``eigvalsh_tridiagonal`` makes for
    the top value, so every bit is the same, without their checks on the
    input: bisection (``dstebz``, range by index, tolerance 0, eigenvalues
    ordered by split block for ``dstein``), inverse iteration for the
    vectors (``dstein``), then ascending order.  A 1 x 1 matrix, which
    ``dstebz`` refuses (no off-diagonal), is its own eigenpair, as in
    scipy.  A non-finite entry raises ValueError, as scipy's check does:
    LAPACK's result on it is undefined.  A LAPACK failure raises
    ConvergenceError."""
    if not (np.isfinite(alphas).all() and np.isfinite(betas).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = len(alphas)
    if n == 1:
        return alphas.copy(), np.ones((1, 1)), float(alphas[0])
    count, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, 1, nwant, 0.0, "B")
    if info == 0:
        s_mat, info = dstein(alphas, betas, w[:count], iblock, isplit)
    if info == 0:
        _, top, _, _, info = dstebz(alphas, betas, 2, 0.0, 1.0, n, n, 0.0, "E")
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolver failed (LAPACK info {info})")
    order = np.argsort(w[:count])
    return w[order], s_mat[:, order], float(top[0])


def lanczos_lowest_k(apply, dim: int, k: int, *, tol: float = 1e-10,
                     seed: int = 0x5EED) -> EigenSolution:
    """Lowest ``k`` eigenpairs of a symmetric operator given as a closure.

    ``apply`` maps a vector to H times that vector and must be linear and
    symmetric.  ``tol`` and the degeneracy tolerance are relative to the
    spectral width estimated from the Krylov process itself.  Runs are
    deterministic for a fixed seed: start vectors come from a seeded
    generator, one fresh draw per deflation restart.  A Krylov sequence
    runs at most min(dim, max(3k + 80, 320)) steps, and at most 3k + 12
    deflation restarts follow the first.  Every ``CHECK_EVERY`` steps the
    Ritz check solves the tridiagonal matrix for the lowest wanted pairs
    and its top value only (``_ritz``).  ``meta`` counts the deflation
    ``restarts``, the calls to ``apply`` (``matvecs``), the Krylov
    ``steps`` taken, the steps that ran the full reorthogonalization pass
    (``reorthogonalizations``) and the second Gram-Schmidt passes among
    them (``second_passes``), and keeps the first sequence's lowest Ritz
    values (``ritz_history``) and the ``spectral_width`` estimate.
    Each residual is the one measured when its Ritz pair was accepted.

    The call holds one workspace for all its sequences: the Krylov store
    (one row of ``dim`` per step of the longest sequence, plus one), one
    scratch vector, the alphas and betas, and Simon's three estimate rows
    with one scratch row.  Each restart overwrites it, no view of it is
    returned, and it is freed on return, so the call peaks at about one
    Krylov store.  Nothing is kept between calls.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if k > dim:
        raise ValueError(f"k={k} exceeds dimension {dim}")
    max_iter = min(dim, max(3 * k + 80, 320))
    max_restarts = 3 * k + 12

    found_vals: list[float] = []
    found_resid: list[float] = []
    found = np.empty((0, dim))  # converged vectors, one per row
    width = 1.0
    history: list[float] = []
    restarts = 0
    best_resid = np.inf
    matvecs = 0
    krylov_steps = 0
    reorthogonalizations = 0
    second_passes = 0
    # rounding each step adds to the overlap estimates: a matvec is
    # accurate to about sqrt(dim) * eps * |H|
    noise = np.sqrt(dim) * EPS
    # the workspace every Krylov sequence of this call writes in place: the
    # Krylov rows, one scratch vector, the recurrence coefficients, Simon's
    # three estimate rows and one scratch row for their recurrence
    q_rows = np.empty((max_iter + 1, dim))
    tmp = np.empty(dim)
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    omega_rows = np.empty((3, max_iter + 1))
    scratch = np.empty(max_iter + 1)

    def matvec(v):
        nonlocal matvecs
        matvecs += 1
        return apply(v)

    def deflate(w):
        if len(found):
            w -= (found @ w) @ found
        return w

    def reorthogonalize(w, m):
        """``w`` minus its projection on the Krylov rows 0..m, by one
        classical Gram-Schmidt pass (a contiguous gemv each way), in place;
        returns its norm after."""
        krylov = q_rows[:m + 1]
        np.matmul(krylov, w, out=scratch[:m + 1])
        np.matmul(scratch[:m + 1], krylov, out=tmp)
        w -= tmp
        return math.sqrt(w.dot(w))

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
        np.divide(q, norm, out=q_rows[0])
        # at step m, omega[i] estimates q_m . q_i, omega_prev the same for
        # q_{m-1}, and omega_next receives the estimates for q_{m+1}
        omega_rows.fill(0.0)
        omega, omega_prev, omega_next = omega_rows
        omega[0] = 1.0
        h_norm = 0.0
        pending = False
        ritz = None
        m_used = 0
        for m in range(steps):
            w = matvec(q_rows[m])
            alphas[m] = q_rows[m] @ w
            np.multiply(alphas[m], q_rows[m], out=tmp)
            w -= tmp
            if m > 0:
                np.multiply(betas[m - 1], q_rows[m - 1], out=tmp)
                w -= tmp
            w = deflate(w)
            beta = math.sqrt(w.dot(w))  # np.linalg.norm's sum for a float vector
            krylov_steps += 1
            # Simon's recurrence: est[i] is beta * omega_{m+1,i}, from the
            # Lanczos relation dotted with q_i plus a rounding term of the
            # sign that grows it, summed term by term in this order
            h_norm = max(h_norm, abs(alphas[m]) + beta + (betas[m - 1] if m else 0.0))
            tol_round = noise * h_norm
            est = omega_next[:m + 1]
            est[m] = tol_round
            if m:
                head, term = est[:m], scratch[:m]
                np.multiply(betas[:m], omega[1:m + 1], out=head)
                np.subtract(alphas[:m], alphas[m], out=term)
                term *= omega[:m]
                head += term
                np.multiply(betas[m - 1], omega_prev[:m], out=term)
                head -= term
                np.multiply(betas[:m - 1], omega[:m - 1], out=term[:m - 1])
                est[1:m] += term[:m - 1]
                np.copysign(tol_round, head, out=term)
                head += term
            # the full pass runs when an estimate passes sqrt(eps), and again
            # on the next step, whose recurrence still carries the drift of
            # q_m, which was not reorthogonalized
            reorth = pending or bool(np.abs(est, out=scratch[:m + 1]).max()
                                     >= SEMI_ORTHOGONAL * beta)
            pending = reorth and not pending
            if reorth:
                # a second pass, with deflation, only when the first
                # cancelled most of w (DGKS: Daniel, Gragg, Kaufman &
                # Stewart, Math. Comp. 30, 772 (1976))
                reorthogonalizations += 1
                before, beta = beta, reorthogonalize(w, m)
                if beta < before / np.sqrt(2.0):
                    second_passes += 1
                    w = deflate(w)
                    beta = reorthogonalize(w, m)
                est[:] = EPS
            else:
                est /= beta
            omega_next[m + 1] = 1.0
            omega_prev, omega, omega_next = omega, omega_next, omega_prev
            betas[m] = beta
            m_used = m + 1
            exhausted = beta <= 1e-13 * max(1.0, width)
            if (m + 1) % CHECK_EVERY == 0 or m == steps - 1 or exhausted:
                # only what the check reads: the lowest wanted pairs, whose
                # last components bound their residuals, and the top value
                theta, s_mat, top = _ritz(alphas[:m + 1], betas[:m], min(want, m + 1))
                width = max(width, float(top - theta[0]))
                if restarts == 0:
                    history.append(float(theta[0]))
                bounds = beta * np.abs(s_mat[-1])
                ritz = (theta, s_mat)
                if np.all(bounds <= 0.1 * tol * max(1.0, width)) or exhausted:
                    break
            if exhausted:
                break
            np.divide(w, beta, out=q_rows[m + 1])

        if ritz is None:
            restarts += 1
            continue
        theta, s_mat = ritz
        abs_tol = tol * max(1.0, width)
        pass_min = None
        for col in range(len(theta)):
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
                               "steps": krylov_steps,
                               "reorthogonalizations": reorthogonalizations,
                               "second_passes": second_passes})
