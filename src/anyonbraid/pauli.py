"""The n-qubit Pauli group and its F2 vector encoding.

A group element is i^m sigma_v where v is a length-2n bit vector whose
pairs (v_{2i-1}, v_{2i}) encode the factor on qubit i:

    (0,0) -> I    (1,0) -> sigma1    (0,1) -> sigma2    (1,1) -> i*sigma3

With that convention sigma_p sigma_q = (-1)^(p*q) sigma_{p xor q} where
p*q = sum_i p_{2i} q_{2i-1}, and two elements commute iff the symplectic
form p^T M q vanishes (M = I_n tensor [[0,1],[1,0]] over F2).
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
    """(perm, ipow): sigma_v[r, perm[r]] = i^ipow[r], zero elsewhere."""
    n = len(v) // 2
    d = 2 ** n
    perm = np.zeros(d, dtype=np.int64)
    ipow = np.zeros(d, dtype=np.int64)
    for r in range(d):
        c, e = r, 0
        for q in range(n):
            b1, b2 = v[2 * q], v[2 * q + 1]
            bit = (r >> (n - 1 - q)) & 1
            if b1 and b2:        # i*sigma3: diag(i, -i)
                e += 1 if bit == 0 else 3
            elif b1:             # sigma1: flip
                c ^= 1 << (n - 1 - q)
            elif b2:             # sigma2: row 0 -> -i at col 1, row 1 -> i at col 0
                e += 3 if bit == 0 else 1
                c ^= 1 << (n - 1 - q)
        perm[r] = c
        ipow[r] = e % 4
    perm.flags.writeable = False
    ipow.flags.writeable = False
    return perm, ipow


def pauli_sparse(v) -> tuple[np.ndarray, np.ndarray]:
    return _pauli_sparse_cached(tuple(v))


@lru_cache(maxsize=None)
def _pauli_matrix_cached(v: tuple[int, ...]) -> DenseMatrix:
    perm, ipow = _pauli_sparse_cached(v)
    d = len(perm)
    planes = np.zeros((4, d, d), dtype=np.int64)
    for r in range(d):
        e = int(ipow[r])
        plane, sign = (e % 2) * 2, (1 if e < 2 else -1)
        planes[plane, r, int(perm[r])] = sign
    return DenseMatrix(planes, 0, _normalized=True)


def pauli_vector_matrix(v) -> DenseMatrix:
    """The matrix sigma_v (phase convention (1,1) -> i*sigma3)."""
    return _pauli_matrix_cached(tuple(v))


def _times_ipow(planes: np.ndarray, e) -> np.ndarray:
    """planes times i^e, e broadcast against the entries (i = z^2)."""
    e = np.asarray(e) % 4
    out = np.where(e % 2, np.stack([-planes[2], -planes[3], planes[0], planes[1]]), planes)
    return np.where(e >= 2, -out, out)


def times_pauli(mat: DenseMatrix, v) -> DenseMatrix:
    """mat @ sigma_v without a product: column r of mat times i^ipow[r]
    becomes column perm[r]."""
    perm, ipow = pauli_sparse(v)
    planes = np.empty_like(mat.planes)
    planes[:, :, perm] = _times_ipow(mat.planes, ipow)
    return DenseMatrix(planes, mat.k, _normalized=True)


def pauli_term(mat: DenseMatrix) -> tuple[tuple[int, ...], CycScalar] | None:
    """(v, c) when mat == c * sigma_v exactly, otherwise None.

    Row 0 must hold a single nonzero entry; its column x gives the X part
    of every qubit.  The entry of the row that sets only qubit q's bit,
    in column that row xor x, is +-mat[0, x]; the sign gives qubit q's
    Z part.  The candidate is then confirmed against every entry of the
    sparse (perm, ipow) form of sigma_v.
    """
    d = mat.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError("dimension must be a power of two")
    planes = mat.planes
    row0 = np.flatnonzero(planes[:, 0, :].any(axis=0))
    if len(row0) != 1:
        return None
    x = int(row0[0])
    head = planes[:, 0, x]
    v = []
    for q in range(n):
        b = 1 << (n - 1 - q)
        flip = (x >> (n - 1 - q)) & 1
        other = planes[:, b, b ^ x]
        if (other == head).all():
            neg = 0
        elif (other == -head).all():
            neg = 1
        else:
            return None
        v += [flip ^ neg, neg]
    v = tuple(v)
    perm, ipow = _pauli_sparse_cached(v)
    c = _times_ipow(head, -ipow[0])
    # every mat[r, perm[r]] equals c * i^ipow[r], which is nonzero, and
    # no other entry is nonzero
    if (not np.array_equal(planes[:, np.arange(d), perm], _times_ipow(c[:, None], ipow))
            or np.count_nonzero(planes.any(axis=0)) != d):
        return None
    return v, CycScalar(int(c[0]), int(c[1]), int(c[2]), int(c[3]), mat.k)


def pauli_basis_decompose(mat: DenseMatrix) -> list[tuple[tuple[int, ...], CycScalar]]:
    """Exact expansion of mat in the sigma_v basis via trace inner products.

    Returns the nonzero coefficients [(v, c)] with mat = sum c * sigma_v.
    It costs 4^n gathers; a matrix that is one Pauli term is read faster
    by pauli_term, so the library expands only to report a non-Clifford
    witness.
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
