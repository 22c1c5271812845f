"""The n-qubit Pauli group and its F2 vector encoding.

A group element is i^m sigma_x.  The vector x has 2n bits and is held as
one int with v_i in bit i, the one encoding of a Pauli vector in the
package and the form that gf2.BitMatrix.mul_vec, and so a Clifford's
symplectic image S, acts on.  The pair (bit 2q - 2, bit 2q - 1) holds the
factor on qubit q:

    (0,0) -> I    (1,0) -> sigma1    (0,1) -> sigma2    (1,1) -> i*sigma3

With that convention sigma_p sigma_q = (-1)^(p*q) sigma_{p xor q} where
p*q = sum_i p_{2i+1} q_{2i}, and two elements commute iff the symplectic
form p^T M q vanishes (M = I_n tensor [[0,1],[1,0]] over F2).
PauliElement owns that product; a vector is written as 0/1 characters,
bit 0 first, only in a repr and in JSON.

sigma_x is kept sparse, as (perm, ipow) with sigma_x[r, perm[r]] =
i^ipow[r] = z^(2 ipow[r]).  A product with it is a gather of the rows of
(X, -X) by matrix.phased_row_index, which reads ring.ZROT, never a matrix
product, and the module does no plane arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix import DenseMatrix, phased_row_index, signed_rows
from .ring import CycScalar


def star_product(p: int, q: int) -> int:
    """sum_i p_{2i+1} q_{2i} mod 2 (the sign exponent of sigma_p sigma_q);
    (4^k - 1) / 3 sets the even bits 0, 2, ..., 2k - 2."""
    t = (p >> 1) & q
    return (t & (4 ** t.bit_length() - 1) // 3).bit_count() & 1


def symplectic_form(p: int, q: int) -> int:
    """p^T M q over F2; zero iff sigma_p and sigma_q commute."""
    return (star_product(p, q) + star_product(q, p)) & 1


def vector_text(x: int, n: int) -> str:
    """The 2n bits of x as 0/1 characters, bit 0 first."""
    return "".join(str(x >> i & 1) for i in range(2 * n))


@dataclass(frozen=True)
class PauliElement:
    m: int                  # phase exponent of i, mod 4
    x: int                  # the 2n-bit vector, v_i in bit i
    n_qubits: int

    def __post_init__(self):
        if not 0 <= self.x < 4 ** self.n_qubits:
            raise ValueError("x must be a 2n-bit vector")
        object.__setattr__(self, "m", self.m % 4)

    @classmethod
    def identity(cls, n: int) -> PauliElement:
        return cls(0, 0, n)

    @classmethod
    def single(cls, n: int, qubit: int, axis: int, m: int = 0) -> PauliElement:
        """i^m times sigma_axis on one qubit (axis 1,2,3; the bits of axis
        are the qubit's pair, and axis 3 is i*sigma3 times an extra i^3 so
        the result is the plain sigma3)."""
        if not 1 <= qubit <= n:
            raise IndexError("qubit out of range")
        if axis not in (1, 2, 3):
            raise ValueError("axis must be 1, 2 or 3")
        return cls(m + 3 * (axis == 3), axis << 2 * qubit - 2, n)

    def __mul__(self, other: PauliElement) -> PauliElement:
        if self.n_qubits != other.n_qubits:
            raise ValueError("size mismatch")
        sign = star_product(self.x, other.x)
        return PauliElement(self.m + other.m + 2 * sign, self.x ^ other.x, self.n_qubits)

    def inverse(self) -> PauliElement:
        return PauliElement(-self.m - 2 * star_product(self.x, self.x), self.x, self.n_qubits)

    def commutes_with(self, other: PauliElement) -> bool:
        return symplectic_form(self.x, other.x) == 0

    def to_matrix(self) -> DenseMatrix:
        return pauli_vector_matrix(self.x, self.n_qubits).mul_zeta(2 * self.m)

    def __repr__(self) -> str:
        return f"PauliElement(m={self.m}, x={vector_text(self.x, self.n_qubits)})"


@lru_cache(maxsize=None)
def pauli_sparse(x: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, ipow): sigma_x[r, perm[r]] = i^ipow[r], zero elsewhere, for
    x on n qubits.

    Per qubit, with b the row's bit: sigma1 (1,0) flips b; sigma2 (0,1)
    flips b with phase i^(3 + 2b); i*sigma3 (1,1) keeps b with phase
    i^(1 + 2b).
    """
    pairs = np.array([x >> 2 * q & 3 for q in range(n)], dtype=np.int64)
    b1, b2 = pairs & 1, pairs >> 1
    shifts = np.arange(n - 1, -1, -1)
    rows = np.arange(2 ** n)
    bit = (rows[:, None] >> shifts) & 1
    perm = rows ^ int(((b1 ^ b2) << shifts).sum())
    ipow = ((2 * bit + 3 - 2 * b1) * b2).sum(axis=1) % 4
    perm.flags.writeable = False
    ipow.flags.writeable = False
    return perm, ipow


@lru_cache(maxsize=None)
def pauli_vector_matrix(x: int, n: int) -> DenseMatrix:
    """The matrix sigma_x on n qubits (phase convention (1,1) -> i*sigma3)."""
    perm, ipow = pauli_sparse(x, n)
    return DenseMatrix.phased_permutation(perm, 2 * ipow)


def pauli_columns(mat: DenseMatrix, xs) -> np.ndarray:
    """Planes (len(xs), 4, d, d) of mat @ sigma_x for each x, as one gather:
    (mat sigma_x)^T = sigma_x^T mat^T, and sigma_x^T is the phased
    permutation (perm, ipow[perm]) because perm is an involution."""
    rows = signed_rows(mat.planes.transpose(0, 2, 1))
    return rows[_column_index(tuple(xs), mat.dim.bit_length() - 1)].transpose(0, 1, 3, 2)


@lru_cache(maxsize=None)
def _column_index(xs: tuple[int, ...], n: int) -> np.ndarray:
    idx = np.stack([phased_row_index(perm, 2 * ipow[perm])
                    for perm, ipow in (pauli_sparse(x, n) for x in xs)])
    idx.flags.writeable = False
    return idx


def qubit_bits(n: int) -> np.ndarray:
    """The basis indices 2^(n-1-q) that set only qubit q's bit, q = 0..n-1."""
    return 1 << np.arange(n - 1, -1, -1)


def read_term(head: np.ndarray, others: np.ndarray, col: int) -> int | None:
    """The candidate x for w == c * sigma_x, when row 0 of w holds a single
    nonzero entry head = w[0, col] (planes (4,)) and others holds the
    planes (4, n) of w[b, b ^ col] for b = qubit_bits(n).

    Column col gives the X part of every qubit.  Each w[b, b ^ col] must be
    +-w[0, col], and the sign gives qubit q's Z part; otherwise None.  The
    caller reads c from head = c * sigma_x[0, col] and confirms the
    candidate.
    """
    n = others.shape[1]
    neg = (others == -head[:, None]).all(axis=0)
    if not (neg | (others == head[:, None]).all(axis=0)).all():
        return None
    flip = (qubit_bits(n) & col) != 0
    # qubit q's pair (X, Z) is (flip ^ neg, neg), at bits 2q and 2q + 1
    return sum(pair << 2 * q for q, pair in enumerate(((flip ^ neg) + 2 * neg).tolist()))


def pauli_basis_decompose(mat: DenseMatrix) -> list[tuple[int, CycScalar]]:
    """Exact expansion of mat in the sigma_x basis via trace inner products.

    Returns the nonzero coefficients [(x, c)] with mat = sum c * sigma_x,
    in increasing x.  It costs 4^n gathers; clifford_check reads a matrix
    that is one Pauli term faster with read_term, so the library expands
    only to report a non-Clifford witness.
    """
    d = mat.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError("dimension must be a power of two")
    rows = signed_rows(mat.planes)
    diag = np.arange(d)
    out = []
    for x in range(4 ** n):
        # uncached: one expansion would otherwise keep all 4^n tables
        perm, ipow = pauli_sparse.__wrapped__(x, n)
        # tr(sigma_x^dagger mat) = sum_r i^(-ipow[r]) mat[r, perm[r]]
        s = rows[phased_row_index(diag, -2 * ipow), perm].sum(axis=1)
        c = CycScalar(int(s[0]), int(s[1]), int(s[2]), int(s[3]), mat.k + n)
        if not c.is_zero():
            out.append((x, c))
    return out
