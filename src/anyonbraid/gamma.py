"""Gamma matrices, the grading operator, parity projectors, and the
maps between the full 2^(n+1)-dimensional space and the 2^n-dimensional
parity-definite (compressed) subspace.

Basis order is big-endian throughout: |x1 ... xm> has index
sum_i x_i 2^(m-i), and the compressed basis identifies |x1 ... xn> with
|x1 ... xn z> where z completes the parity (even for parity +1, odd for
parity -1).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matrix import DenseMatrix
from .ring import CycScalar

SIGMA1 = DenseMatrix.from_entries([[0, 1], [1, 0]])
SIGMA2 = DenseMatrix.from_entries([
    [CycScalar(0), CycScalar(0, 0, -1, 0)],
    [CycScalar(0, 0, 1, 0), CycScalar(0)],
])
SIGMA3 = DenseMatrix.from_entries([[1, 0], [0, -1]])


def kron_chain(factors) -> DenseMatrix:
    out = None
    for f in factors:
        out = f if out is None else out.kron(f)
    if out is None:
        raise ValueError("empty tensor product")
    return out


@lru_cache(maxsize=None)
def gamma(n: int, j: int) -> DenseMatrix:
    """The j-th of the 2n anticommuting Hermitian involutions on 2^n dims."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= j <= 2 * n:
        raise IndexError(f"gamma index {j} out of range 1..{2 * n}")
    slot = (j + 1) // 2  # qubit slot carrying sigma1/sigma2
    mid = SIGMA1 if j % 2 == 1 else SIGMA2
    factors = [DenseMatrix.identity(2)] * (slot - 1) + [mid] + [SIGMA3] * (n - slot)
    return kron_chain(factors)


@lru_cache(maxsize=None)
def gamma_f(n: int) -> DenseMatrix:
    """Grading operator: equals sigma3^(x)n and (-i)^n gamma_1...gamma_2n."""
    if n < 1:
        raise ValueError("n must be positive")
    return kron_chain([SIGMA3] * n)


@lru_cache(maxsize=None)
def projector(n: int, parity: int) -> DenseMatrix:
    """(I +- gamma_F)/2, the rank-2^(n-1) projector on the parity subspace."""
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    ident = DenseMatrix.identity(2 ** n)
    gf = gamma_f(n)
    s = ident + gf if parity == 1 else ident - gf
    return DenseMatrix(np.asarray(s.planes), s.k + 1)


def embed_index(n: int, parity: int, m: int) -> int:
    """Index of |x1..xn z> in the 2^(n+1) space for compressed index m."""
    z = bin(m).count("1") & 1
    if parity == -1:
        z ^= 1
    return 2 * m + z


@lru_cache(maxsize=None)
def _embedding(n: int, parity: int) -> np.ndarray:
    return np.array([embed_index(n, parity, m) for m in range(2 ** n)])


def compress_matrix(mat: DenseMatrix, n: int, parity: int) -> DenseMatrix:
    """Restrict a 2^(n+1)-dim operator to the parity subspace as a 2^n matrix.

    Only valid for operators preserving the subspace (all representation
    elements here do); entries outside the subspace are discarded.
    """
    if mat.dim != 2 ** (n + 1):
        raise ValueError("dimension mismatch")
    idx = _embedding(n, parity)
    planes = mat.planes[:, idx[:, None], idx[None, :]]
    return DenseMatrix(planes, mat.k)


def expand_matrix(mat: DenseMatrix, n: int, parity: int) -> DenseMatrix:
    """Embed a 2^n matrix as a 2^(n+1) operator vanishing off the subspace."""
    if mat.dim != 2 ** n:
        raise ValueError("dimension mismatch")
    idx = _embedding(n, parity)
    planes = np.zeros((4, 2 ** (n + 1), 2 ** (n + 1)), dtype=mat.planes.dtype)
    planes[:, idx[:, None], idx[None, :]] = mat.planes
    return DenseMatrix(planes, mat.k)
