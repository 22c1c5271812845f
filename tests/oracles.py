"""Brute-force and entrywise oracles that the test files check the library
against; the library itself never calls them."""

import numpy as np

from anyonbraid.gf2 import BitMatrix, omega_matrix
from anyonbraid.matrix import DenseMatrix
from anyonbraid.pauli import _times_ipow, pauli_sparse, qubit_bits, read_term
from anyonbraid.ring import CycScalar


def sp_bruteforce_order(n: int) -> int:
    """Count 2n x 2n bit matrices with S^T M S = M by brute force (n <= 2)."""
    size = 2 * n
    if size * size > 20:
        raise ValueError("brute force limited to n <= 2")
    m = omega_matrix(n)
    mask = (1 << size) - 1
    count = 0
    for bits in range(1 << (size * size)):
        rows = tuple((bits >> (size * i)) & mask for i in range(size))
        s = BitMatrix(size, rows)
        if s.transpose() @ m @ s == m:
            count += 1
    return count


def pauli_term(mat: DenseMatrix) -> tuple[int, CycScalar] | None:
    """(x, c) when mat == c * sigma_x exactly, otherwise None: read_term's
    candidate, confirmed against every entry of the sparse (perm, ipow) form
    of sigma_x."""
    d = mat.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError("dimension must be a power of two")
    planes = mat.planes
    row0 = np.flatnonzero(planes[:, 0, :].any(axis=0))
    if len(row0) != 1:
        return None
    col = int(row0[0])
    bits = qubit_bits(n)
    term = read_term(planes[:, 0, col], planes[:, bits, bits ^ col], col)
    if term is None:
        return None
    x, c = term
    perm, ipow = pauli_sparse(x, n)
    # every mat[r, perm[r]] equals c * i^ipow[r], which is nonzero, and
    # no other entry is nonzero
    if (not np.array_equal(planes[:, np.arange(d), perm],
                           _times_ipow(np.array(c)[:, None], ipow))
            or np.count_nonzero(planes.any(axis=0)) != d):
        return None
    return x, CycScalar(*c, mat.k)
