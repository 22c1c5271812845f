"""The Clifford-membership test, the symplectic image of Clifford gates,
group order formulas, and the symplectic matrices of the braid generators.

Conventions: for a Clifford U the action is read off from U sigma_p U^dagger
= i^f(p) sigma_{S p} with S acting on column vectors, so S_{UV} = S_U S_V
and the generator matrices match the block forms of the braid generators'
symplectic images.

clifford_check costs one dense product, the unitarity check U U^dagger = I.
Each conjugated generator Pauli is read from O(n d) entries of
U sigma_g U^dagger and confirmed by comparing two signed permutations of U
(Aaronson and Gottesman, quant-ph/0406196: Clifford data is O(n^2), not d^2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .gf2 import BitMatrix, StabiliserChain, is_symplectic
from .matrix import DenseMatrix, _product, phased_row_index, signed_rows
from .pauli import (pauli_basis_decompose, pauli_columns, pauli_sparse, qubit_bits, read_term,
                    vector_text)
from .ring import CycScalar, zfold


@dataclass(frozen=True)
class CliffordAction:
    """Symplectic part plus the i-power phases on the 2n generator Paulis."""

    s: BitMatrix
    f: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"s": self.s.to_bitstrings(), "f": list(self.f)}


@dataclass(frozen=True)
class NonClifford:
    """Witness that conjugation of one generator leaves the Pauli group."""

    n_qubits: int
    generator: int
    expansion: tuple[tuple[int, list], ...]

    def to_json_dict(self) -> dict:
        # the terms are listed in the order of their 0/1 strings
        terms = sorted((vector_text(x, self.n_qubits), c) for x, c in self.expansion)
        return {
            "witness": vector_text(self.generator, self.n_qubits),
            "terms": [{"v": v, "coeff": c} for v, c in terms],
        }


def clifford_check(u: DenseMatrix) -> CliffordAction | NonClifford:
    """Decide Clifford membership by conjugating the 2n generator Paulis.

    The unitarity check U U^dagger = I is the one dense product.  For each
    generator g, U sigma_g is a signed column permutation of U (all 2n are
    one gather).  Of W_g = U sigma_g U^dagger only row 0 (one product for
    all g, with the 2n rows as its fixed factor) and the n entries
    W_g[b, b ^ x_g] are formed, and pauli.read_term reads a candidate
    W_g = c sigma_v from them.  It is accepted only if c = i^m, read as the
    i-power of W_g[0, x_g] = c i^ipow_v[0] less ipow_v[0], and
    U sigma_g == i^m sigma_v U exactly; that compares two signed
    permutations of U and, U being unitary, is equivalent to
    W_g = c sigma_v.  The verdict is CliffordAction(s, f) when every
    generator passes (s is then checked symplectic); otherwise W_g is
    formed for the first generator that fails and NonClifford reports its
    exact Pauli-basis expansion.
    """
    if not u.is_unitary():
        raise ValueError("input is not unitary")
    d = u.dim
    n = d.bit_length() - 1
    if 2 ** n != d:
        raise ValueError("dimension must be a power of two")
    udag = u.dagger()
    u_sigmas = pauli_columns(u, [1 << g for g in range(2 * n)])
    # row 0 of every W_g = U sigma_g U^dagger, and in it the column x_g of
    # the first nonzero entry: (U^dagger)^T times the (4, d, 2n) rows 0 of
    # the U sigma_g, so that the block _product builds of its fixed factor
    # is (4d, 8n), not (4d, 4d)
    rows = u_sigmas[:, :, 0, :].transpose(1, 2, 0)
    row0 = _product(udag.planes.transpose(0, 2, 1), rows, u._maxabs, u._maxabs).transpose(2, 0, 1)
    nonzero = row0.any(axis=1)
    xs = nonzero.argmax(axis=1)
    # W_g[b, b ^ x_g] for b = 2^(n-1-q), from the 16 partial sums of each;
    # row 0's product has checked the int64 bound that covers them
    bits = qubit_bits(n)
    t = np.einsum("gpik,qkgi->pqgi", u_sigmas[:, :, bits, :],
                  udag.planes[:, :, bits ^ xs[:, None]])
    others = np.stack(zfold(t), axis=1)
    u_rows = signed_rows(u.planes)
    cols = []
    phases = []
    for g in range(2 * n):
        m = None
        x = int(xs[g])
        tv = read_term(row0[g, :, x], others[g], x) if nonzero[g].sum() == 1 else None
        if tv is not None:
            # i^(m + ipow[0]) when W_g = i^m sigma_v
            m = CycScalar(*row0[g, :, x].tolist(), 2 * u.k).ipower()
        if m is not None:
            perm, ipow = pauli_sparse(tv, n)
            m = (m - int(ipow[0])) % 4
            if not np.array_equal(u_sigmas[g], u_rows[phased_row_index(perm, 2 * (ipow + m))]):
                m = None
        if m is None:
            w = DenseMatrix(u_sigmas[g], u.k, _normalized=True) @ udag
            return NonClifford(n, 1 << g, tuple((tx, c.to_list())
                                                for tx, c in pauli_basis_decompose(w)))
        cols.append(tv)
        phases.append(m)
    # column g of S is the image of the generator vector 1 << g
    s = BitMatrix(2 * n, tuple(cols)).transpose()
    if not is_symplectic(s):
        raise RuntimeError("Clifford image failed the symplectic relation")
    return CliffordAction(s, tuple(phases))


def sp_order(n: int, q: int) -> int:
    """|Sp_2n(q)| = q^(n^2) prod_{j=1..n} (q^2j - 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    order = q ** (n * n)
    for j in range(1, n + 1):
        order *= q ** (2 * j) - 1
    return order


@dataclass(frozen=True)
class GroupOrders:
    pauli: int
    projective_pauli: int
    projective_clifford: int
    braid_image: int
    braid_image_mod_center: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def group_orders(n: int) -> GroupOrders:
    """Closed-form orders of the Pauli/Clifford/braid-image tower."""
    if n < 1:
        raise ValueError("n must be positive")
    pauli = 2 ** (2 * n + 2)
    projective_pauli = 2 ** (2 * n)
    projective_clifford = projective_pauli * sp_order(n, 2)
    braid_image = pauli * factorial(symmetric_degree(n))
    return GroupOrders(pauli, projective_pauli, projective_clifford,
                       braid_image, braid_image // 4)


def symmetric_degree(n: int) -> int:
    """The degree m of the symmetric group S_m that <S_1..S_2n+1> is:
    2n+2 for n >= 2, where S_2n+2 acts faithfully, and 3 for n = 1, where
    S_4 acts through S_3."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * n + 2 if n >= 2 else 3


@lru_cache(maxsize=None)
def braid_symplectic(n: int, j: int) -> BitMatrix:
    """The printed symplectic matrix of the j-th braid generator, n qubits."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= j <= 2 * n + 1:
        raise IndexError(f"generator index {j} out of range 1..{2 * n + 1}")
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    if j == 2 * n + 1:
        for r in range(size):
            for c in range(size):
                rows[r][c] = 1 if r != c else 0
    elif j == 2 * n:
        for r in range(size - 2):
            for c in range(size - 2):
                rows[r][c] = 1 if r != c else 0
            rows[r][size - 1] = 1
        for c in range(size):
            rows[size - 2][c] = 1
        rows[size - 1][size - 1] = 1
    elif j % 2 == 1:
        i = (j + 1) // 2
        for r in range(size):
            rows[r][r] = 1
        a, b = 2 * i - 2, 2 * i - 1
        rows[a][a] = rows[b][b] = 0
        rows[a][b] = rows[b][a] = 1
    else:
        i = j // 2
        block = [[1, 0, 0, 0], [1, 1, 1, 0], [0, 0, 1, 0], [1, 0, 1, 1]]
        for r in range(size):
            rows[r][r] = 1
        off = 2 * i - 2
        for r in range(4):
            for c in range(4):
                rows[off + r][off + c] = block[r][c]
    s = BitMatrix.from_rows(rows)
    if not is_symplectic(s):
        raise RuntimeError(f"printed S_{j} is not symplectic")
    return s


def basis_change_t(n: int) -> BitMatrix:
    """The self-inverse basis change making the generator images
    transparent permutations (column c keeps its diagonal 1 and gains 1s
    in every later qubit block)."""
    if n < 1:
        raise ValueError("n must be positive")
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    for c in range(size):
        rows[c][c] = 1
        block = c // 2
        for r in range(2 * block + 2, size):
            rows[r][c] = 1
    return BitMatrix.from_rows(rows)


def tilde_basis(n: int) -> tuple[BitMatrix, list[BitMatrix]]:
    """(T, [T S_j T for j = 1..2n+1]); T is checked self-inverse."""
    t = basis_change_t(n)
    if t @ t != BitMatrix.identity(2 * n):
        raise RuntimeError("T is not self-inverse")
    return t, [t @ braid_symplectic(n, j) @ t for j in range(1, 2 * n + 2)]


def tilde_printed(n: int, j: int) -> BitMatrix:
    """The printed form of T S_j T: transpositions for j <= 2n-1, the
    all-ones-last-column matrix for j = 2n, unchanged for j = 2n+1."""
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    if j <= 2 * n - 1:
        for r in range(size):
            rows[r][r] = 1
        a = j - 1
        rows[a][a] = rows[a + 1][a + 1] = 0
        rows[a][a + 1] = rows[a + 1][a] = 1
    elif j == 2 * n:
        for r in range(size):
            rows[r][r] = 1
            rows[r][size - 1] = 1
    else:
        for r in range(size):
            for c in range(size):
                rows[r][c] = 1 if r != c else 0
    return BitMatrix.from_rows(rows)


@lru_cache(maxsize=None)
def symplectic_subgroup(n: int) -> frozenset[BitMatrix]:
    """The subgroup of Sp_2n(2) generated by the braid generator images,
    enumerated element by element (the oracle for the stabiliser chain)."""
    from .groups import dimino

    gens = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)]
    elements = dimino(gens, BitMatrix.identity(2 * n))
    return frozenset(elements)


@dataclass(frozen=True)
class FaithfulnessVerdict:
    n: int
    subgroup_order: int
    expected_order: int
    symmetric_group_degree: int

    @property
    def ok(self) -> bool:
        return self.subgroup_order == self.expected_order

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def faithfulness_check(n: int) -> FaithfulnessVerdict:
    """Order of <S_1..S_2n+1> from its stabiliser chain, against the closed
    form: (2n+2)! for n >= 2 (faithful S_2n+2), 6 for n = 1 (S_3, since
    S_3 = S_1 there)."""
    degree = symmetric_degree(n)
    chain = StabiliserChain([braid_symplectic(n, j) for j in range(1, 2 * n + 2)], 2 * n)
    return FaithfulnessVerdict(n, chain.order(), factorial(degree), degree)
