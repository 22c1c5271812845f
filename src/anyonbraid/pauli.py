"""The n-qubit Pauli group and its F2 vector encoding.

A group element is i^m sigma_v where v is a length-2n bit vector whose
pairs (v_{2i-1}, v_{2i}) encode the factor on qubit i:

    (0,0) -> I    (1,0) -> sigma1    (0,1) -> sigma2    (1,1) -> i*sigma3

With that convention sigma_p sigma_q = (-1)^(p*q) sigma_{p xor q} where
p*q = sum_i p_{2i} q_{2i-1}, and two elements commute iff the symplectic
form p^T M q vanishes (M = I_n tensor [[0,1],[1,0]] over F2).

sigma_v is kept sparse, as (perm, ipow) with sigma_v[r, perm[r]] =
i^ipow[r].  A product with such a phased permutation is a gather of the
rows of (X, -X) (signed_rows, phased_row_index), never a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix import DenseMatrix
from .ring import CycScalar


def star_product(p, q) -> int:
    """sum_i p_{2i} q_{2i-1} mod 2 (the sign exponent of sigma_p sigma_q)."""
    if len(p) != len(q) or len(p) % 2:
        raise ValueError("vectors must have equal even length")
    return sum(p[2 * i + 1] * q[2 * i] for i in range(len(p) // 2)) & 1


def symplectic_form(p, q) -> int:
    """p^T M q over F2; zero iff sigma_p and sigma_q commute."""
    return (star_product(p, q) + star_product(q, p)) & 1


@dataclass(frozen=True)
class PauliElement:
    m: int                  # phase exponent of i, mod 4
    v: tuple[int, ...]      # bit vector of length 2n

    def __post_init__(self):
        if len(self.v) % 2 or any(b not in (0, 1) for b in self.v):
            raise ValueError("v must be an even-length 0/1 vector")
        object.__setattr__(self, "m", self.m % 4)
        object.__setattr__(self, "v", tuple(self.v))

    @property
    def n_qubits(self) -> int:
        return len(self.v) // 2

    @classmethod
    def identity(cls, n: int) -> PauliElement:
        return cls(0, (0,) * (2 * n))

    @classmethod
    def single(cls, n: int, qubit: int, axis: int, m: int = 0) -> PauliElement:
        """i^m times sigma_axis on one qubit (axis 1,2,3; axis 3 is i*sigma3
        times an extra i^3 so the result is the plain sigma3)."""
        if not 1 <= qubit <= n:
            raise IndexError("qubit out of range")
        v = [0] * (2 * n)
        if axis == 1:
            v[2 * qubit - 2] = 1
        elif axis == 2:
            v[2 * qubit - 1] = 1
        elif axis == 3:
            v[2 * qubit - 2] = 1
            v[2 * qubit - 1] = 1
            m += 3
        else:
            raise ValueError("axis must be 1, 2 or 3")
        return cls(m, tuple(v))

    def __mul__(self, other: PauliElement) -> PauliElement:
        if len(self.v) != len(other.v):
            raise ValueError("size mismatch")
        sign = star_product(self.v, other.v)
        v = tuple(a ^ b for a, b in zip(self.v, other.v))
        return PauliElement(self.m + other.m + 2 * sign, v)

    def inverse(self) -> PauliElement:
        self_star = star_product(self.v, self.v)
        return PauliElement(-self.m - 2 * self_star, self.v)

    def commutes_with(self, other: PauliElement) -> bool:
        return symplectic_form(self.v, other.v) == 0

    def to_matrix(self) -> DenseMatrix:
        return pauli_vector_matrix(self.v).mul_zeta(2 * self.m)

    def __repr__(self) -> str:
        return f"PauliElement(m={self.m}, v={''.join(map(str, self.v))})"


@lru_cache(maxsize=None)
def _pauli_sparse_cached(v: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(perm, ipow): sigma_v[r, perm[r]] = i^ipow[r], zero elsewhere.

    Per qubit, with b the row's bit: sigma1 (1,0) flips b; sigma2 (0,1)
    flips b with phase i^(3 + 2b); i*sigma3 (1,1) keeps b with phase
    i^(1 + 2b).
    """
    n = len(v) // 2
    b1 = np.array(v[0::2], dtype=np.int64)
    b2 = np.array(v[1::2], dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    rows = np.arange(2 ** n)
    bit = (rows[:, None] >> shifts) & 1
    perm = rows ^ int(((b1 ^ b2) << shifts).sum())
    ipow = ((2 * bit + 3 - 2 * b1) * b2).sum(axis=1) % 4
    perm.flags.writeable = False
    ipow.flags.writeable = False
    return perm, ipow


def pauli_sparse(v) -> tuple[np.ndarray, np.ndarray]:
    return _pauli_sparse_cached(tuple(v))


@lru_cache(maxsize=None)
def _pauli_matrix_cached(v: tuple[int, ...]) -> DenseMatrix:
    perm, ipow = _pauli_sparse_cached(v)
    ident = DenseMatrix.identity(len(perm)).planes
    return DenseMatrix(signed_rows(ident)[phased_row_index(perm, ipow)], 0, _normalized=True)


def pauli_vector_matrix(v) -> DenseMatrix:
    """The matrix sigma_v (phase convention (1,1) -> i*sigma3)."""
    return _pauli_matrix_cached(tuple(v))


def _times_ipow(planes: np.ndarray, e) -> np.ndarray:
    """planes times i^e, e broadcast against the entries (i = z^2)."""
    e = np.asarray(e) % 4
    out = np.where(e % 2, np.stack([-planes[2], -planes[3], planes[0], planes[1]]), planes)
    return np.where(e >= 2, -out, out)


def signed_rows(planes: np.ndarray) -> np.ndarray:
    """The rows of (planes, -planes) as one (..., 8d, d) array, keeping any
    leading batch axes; phased_row_index picks from it."""
    d = planes.shape[-1]
    return np.concatenate([planes, -planes], axis=-3).reshape(*planes.shape[:-3], 8 * d, d)


def phased_row_index(perm: np.ndarray, ipow) -> np.ndarray:
    """Indices into signed_rows(X) that give the planes (4, d, d) of G @ X
    for G[r, perm[r]] = i^ipow[r]: row r of G X is i^ipow[r] times row
    perm[r] of X, and plane p of z^t * a is plane (p - t) mod 8 of (a, -a)."""
    return ((np.arange(4)[:, None] - 2 * np.asarray(ipow)) % 8) * len(perm) + perm


def pauli_columns(mat: DenseMatrix, vs) -> np.ndarray:
    """Planes (len(vs), 4, d, d) of mat @ sigma_v for each v, as one gather:
    (mat sigma_v)^T = sigma_v^T mat^T, and sigma_v^T is the phased
    permutation (perm, ipow[perm]) because perm is an involution."""
    rows = signed_rows(mat.planes.transpose(0, 2, 1))
    return rows[_column_index(tuple(map(tuple, vs)))].transpose(0, 1, 3, 2)


@lru_cache(maxsize=None)
def _column_index(vs: tuple[tuple[int, ...], ...]) -> np.ndarray:
    idx = np.stack([phased_row_index(perm, ipow[perm])
                    for perm, ipow in map(_pauli_sparse_cached, vs)])
    idx.flags.writeable = False
    return idx


def qubit_bits(n: int) -> np.ndarray:
    """The basis indices 2^(n-1-q) that set only qubit q's bit, q = 0..n-1."""
    return 1 << np.arange(n - 1, -1, -1)


def read_term(head: np.ndarray, others: np.ndarray,
              x: int) -> tuple[tuple[int, ...], list[int]] | None:
    """The candidate (v, c) for w == c * sigma_v, when row 0 of w holds a
    single nonzero entry head = w[0, x] (planes (4,)) and others holds the
    planes (4, n) of w[b, b ^ x] for b = qubit_bits(n); c is the four
    coefficients of c over w's denominator.

    Column x gives the X part of every qubit.  Each w[b, b ^ x] must be
    +-w[0, x], and the sign gives qubit q's Z part; otherwise None.  The
    caller confirms the candidate.
    """
    n = others.shape[1]
    neg = (others == -head[:, None]).all(axis=0)
    if not (neg | (others == head[:, None]).all(axis=0)).all():
        return None
    flip = (qubit_bits(n) & x) != 0
    v = tuple(b for pair in zip((flip ^ neg).tolist(), neg.tolist()) for b in map(int, pair))
    c = head.tolist()
    for _ in range(-int(_pauli_sparse_cached(v)[1][0]) % 4):
        c = [-c[2], -c[3], c[0], c[1]]  # times i
    return v, c


def pauli_basis_decompose(mat: DenseMatrix) -> list[tuple[tuple[int, ...], CycScalar]]:
    """Exact expansion of mat in the sigma_v basis via trace inner products.

    Returns the nonzero coefficients [(v, c)] with mat = sum c * sigma_v.
    It costs 4^n gathers; clifford_check reads a matrix that is one Pauli
    term faster with read_term, so the library expands only to report a
    non-Clifford witness.
    """
    d = mat.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError("dimension must be a power of two")
    out = []
    for idx in range(4 ** n):
        v = tuple((idx >> (2 * n - 1 - b)) & 1 for b in range(2 * n))
        perm, ipow = _pauli_sparse_cached(v)
        # tr(sigma_v^dagger mat) = sum_r i^(-ipow[r]) mat[r, perm[r]]
        s = _times_ipow(mat.planes[:, np.arange(d), perm], -ipow).sum(axis=1)
        c = CycScalar(int(s[0]), int(s[1]), int(s[2]), int(s[3]), mat.k + n)
        if not c.is_zero():
            out.append((v, c))
    return out
