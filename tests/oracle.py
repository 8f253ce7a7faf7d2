"""Brute-force dense oracle, independent of the package under test.

Everything here is built the slow, obvious way: explicit Kronecker
products of Pauli matrices, full dense diagonalization, partial traces
by tensor reshaping, and the Wootters concurrence via the non-symmetric
eigenvalues of rho @ rho_tilde.  The package implements all of these
differently (bit-encoded bases, matrix-free application, a symmetric
split of the Wootters eigenproblem), so agreement is a real check.

Basis convention matches the package so matrices compare entrywise:
product-state index = sum_k bit_k 2^k with bit 1 = spin-up, i.e. site 0
is the least significant Kronecker factor and the single-site basis is
(down, up).

``hamiltonian_dense`` is the one reference here that reads the package:
only its model tables (``FAMILY_TABLE``, ``BOND_PAIRS``), from which it
builds H on any basis entry by entry, with no operator code of the
package.  The tests check it against the Kronecker products.
"""

import numpy as np

from spinqpt.models import BOND_PAIRS, FAMILY_TABLE

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex) / 2.0  # (down, up) order
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex) / 2.0
ID = np.eye(2, dtype=complex)


def site_op(op, i, n):
    full = np.array([[1.0 + 0.0j]])
    for k in reversed(range(n)):
        full = np.kron(full, op if k == i else ID)
    return full


def two_site(op_a, i, op_b, j, n):
    full = np.array([[1.0 + 0.0j]])
    for k in reversed(range(n)):
        if k == i:
            full = np.kron(full, op_a)
        elif k == j:
            full = np.kron(full, op_b)
        else:
            full = np.kron(full, ID)
    return full


def bond(i, j, n, jx, jy, jz):
    return (jx * two_site(SX, i, SX, j, n)
            + jy * two_site(SY, i, SY, j, n)
            + jz * two_site(SZ, i, SZ, j, n))


def h_xxz(n, delta):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        h += bond(i, (i + 1) % n, n, 1.0, 1.0, delta)
    return h


def h_j1j2(n, j1, j2):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        h += bond(i, (i + 1) % n, n, j1, j1, j1)
        h += bond(i, (i + 2) % n, n, j2, j2, j2)
    return h


def h_ising(n, lam):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        h -= lam * two_site(SX, i, SX, (i + 1) % n, n)
        h -= 0.5 * site_op(SZ, i, n)
    return h


def h_ladder(n, j_rung, j_leg=1.0):
    # Sites 2k / 2k+1 form rung k; legs close periodically.
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rungs = n // 2
    for k in range(rungs):
        for base in (0, 1):
            i = 2 * k + base
            j = (2 * (k + 1) + base) % n
            h += bond(i, j, n, j_leg, j_leg, j_leg)
        h += bond(2 * k, 2 * k + 1, n, j_rung, j_rung, j_rung)
    return h


def h_xyz(n, jx, jy, jz, hz):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        h += bond(i, (i + 1) % n, n, jx, jy, jz)
        h += hz * site_op(SZ, i, n)
    return h


def hamiltonian_dense(model, basis):
    """H of ``model`` on ``basis`` as a dense matrix over ``basis.configs``.

    A bond (i, j) with couplings (cx, cy, cz) adds cz/4 to the diagonal
    where its spins are aligned and -cz/4 where not, and (cx - cy)/4 or
    (cx + cy)/4 to the entry of the configuration with both spins
    flipped; the field h adds h (popcount - N/2).  Terms are added per
    bond kind, bond by bond, then the field, the package's order, so a
    matrix entry is the same float as the package's.  A double flip
    that leaves the basis raises ValueError."""
    fam = FAMILY_TABLE[model.family]
    params = model.as_dict()
    configs = basis.configs
    cols = np.arange(len(configs))
    mat = np.zeros((len(configs), len(configs)))
    diag = np.zeros(len(configs))
    for kind in fam.bond_kinds:
        cx, cy, cz = fam.couplings(params, kind)
        zz = np.zeros(len(configs))
        for i, j in BOND_PAIRS[kind](basis.lattice):
            aligned = (configs >> i & 1) == (configs >> j & 1)
            zz += np.where(aligned, 1.0, -1.0)
            amp = np.where(aligned, cx - cy, cx + cy) / 4
            hit = amp != 0.0
            flipped = configs[hit] ^ (1 << i | 1 << j)
            rows = np.searchsorted(configs, flipped)
            if not np.array_equal(configs.take(rows, mode="clip"), flipped):
                raise ValueError(f"double flips of sites ({i}, {j}) leave the basis")
            mat[rows, cols[hit]] += amp[hit]
        diag += cz / 4 * zz
    if fam.field is not None:
        ups = sum(configs >> i & 1 for i in range(basis.n_sites))
        diag += fam.field(params) * (ups - basis.n_sites / 2)
    return mat + np.diag(diag)


def one_block(mat):
    """The symmetric matrix ``mat`` as the one block of itself, the input
    ``dense_spectrum`` takes."""
    return [(np.arange(len(mat))[None], np.ones((1, len(mat))), mat)]


def ground_state(h):
    evals, evecs = np.linalg.eigh(h)
    return evals[0], evecs[:, 0]


def spectrum(h):
    return np.linalg.eigh(h)


def rdm_pair(psi, i, j, n):
    """Two-site RDM over (uu, ud, du, dd), matching the package order."""
    psi = np.asarray(psi).reshape([2] * n)
    # reshape axis for site s is n-1-s (site 0 least significant)
    ax_i, ax_j = n - 1 - i, n - 1 - j
    rest = [k for k in range(n) if k not in (ax_i, ax_j)]
    block = np.transpose(psi, [ax_i, ax_j] + rest).reshape(4, 2 ** (n - 2))
    rho = block @ block.conj().T
    # local ordering above is (dd, du, ud, uu); flip both axes for (uu, ..)
    return rho[::-1, ::-1]


def correlator(psi, axis, i, j, n):
    op = {"x": SX, "y": SY, "z": SZ}[axis]
    return float(np.real(np.vdot(psi, two_site(op, i, op, j, n) @ psi)))


def concurrence(rho):
    """Wootters concurrence straight from eigenvalues of rho @ rho_tilde."""
    sy1 = np.array([[0, -1j], [1j, 0]])
    sy2 = np.kron(sy1, sy1)
    rho_t = sy2 @ rho.conj() @ sy2
    lam = np.linalg.eigvals(rho @ rho_t)
    lam = np.sqrt(np.abs(np.sort(np.real(lam))[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def total_spin_sq(psi, n):
    s2 = 0.75 * n * np.eye(2 ** n, dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                s2 += bond(i, j, n, 1.0, 1.0, 1.0)
    return float(np.real(np.vdot(psi, s2 @ psi)))


def parity_expectation(psi, n):
    p = site_op(2.0 * SZ, 0, n)
    for i in range(1, n):
        p = p @ site_op(2.0 * SZ, i, n)
    return float(np.real(np.vdot(psi, p @ psi)))


def nn_concurrence_ground(h, n, i=0, j=1):
    _, psi = ground_state(h)
    return concurrence(rdm_pair(psi, i, j, n))
