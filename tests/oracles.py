"""Brute-force and entrywise oracles that the test files check the library
against; the library itself never calls them."""

import numpy as np

from anyonbraid.gf2 import BitMatrix, omega_matrix
from anyonbraid.matrix import DenseMatrix
from anyonbraid.pauli import pauli_sparse, qubit_bits, read_term
from anyonbraid.ring import I_UNIT, INV_SQRT2, ONE, ZERO, ZETA, CycScalar


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


def times_ipow(c: CycScalar, e: int) -> CycScalar:
    """c * i^e for e >= 0, as e products by I_UNIT."""
    for _ in range(e):
        c = c * I_UNIT
    return c


def pauli_term(mat: DenseMatrix) -> tuple[int, CycScalar] | None:
    """(x, c) when mat == c * sigma_x exactly, otherwise None: read_term's
    candidate x, with c read from row 0 and confirmed against every entry
    of the sparse (perm, ipow) form of sigma_x."""
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
    x = read_term(planes[:, 0, col], planes[:, bits, bits ^ col], col)
    if x is None:
        return None
    perm, ipow = pauli_sparse(x, n)
    # mat[0, col] = c * i^ipow[0], so c = mat[0, col] * i^(4 - ipow[0])
    c = times_ipow(mat.entry(0, col), 4 - int(ipow[0]))
    # every mat[r, perm[r]] equals c * i^ipow[r], which is nonzero, and
    # no other entry is nonzero
    if (any(mat.entry(r, int(perm[r])) != times_ipow(c, int(ipow[r])) for r in range(d))
            or np.count_nonzero(planes.any(axis=0)) != d):
        return None
    return x, c


def zeta_power(e: int) -> CycScalar:
    """z^e for e >= -16 as the product of e + 16 factors ZETA by
    CycScalar.__mul__ (ring.zfold), using z^16 = 1 and no rotation rule."""
    if e < -16:
        raise ValueError("e must be at least -16")
    out = ONE
    for _ in range(e + 16):
        out = out * ZETA
    return out


def gate_spec_entries(n: int, spec: str) -> list[list[CycScalar]]:
    """The entries of the gate that parse_gate_target(n, spec) names, built
    column by column from its action on the basis states |b_1 ... b_n>,
    b_q the bit of qubit q and qubit 1 the most significant: column x holds
    the image of |x>."""
    d = 2 ** n
    name, _, args = spec.partition(":")
    qs = [int(a) for a in args.split(",") if a]
    entries = [[ZERO] * d for _ in range(d)]
    for x in range(d):
        b = [x >> (n - q) & 1 for q in range(1, n + 1)]    # b[q - 1] is qubit q's bit

        def put(bits, amp):
            entries[sum(v << (n - q) for q, v in enumerate(bits, 1))][x] += amp

        def flipped(q):
            return [v ^ (i == q - 1) for i, v in enumerate(b)]

        if name == "identity":
            put(b, ONE)
        elif name == "x":
            put(flipped(qs[0]), ONE)
        elif name == "y":       # sigma2 |0> = i |1>, sigma2 |1> = -i |0>
            put(flipped(qs[0]), -I_UNIT if b[qs[0] - 1] else I_UNIT)
        elif name == "z":
            put(b, -ONE if b[qs[0] - 1] else ONE)
        elif name == "p":
            put(b, I_UNIT if b[qs[0] - 1] else ONE)
        elif name == "h":       # |0> -> (|0> + |1>)/sqrt2, |1> -> (|0> - |1>)/sqrt2
            q = qs[0]
            put([v if i != q - 1 else 0 for i, v in enumerate(b)], INV_SQRT2)
            put([v if i != q - 1 else 1 for i, v in enumerate(b)],
                -INV_SQRT2 if b[q - 1] else INV_SQRT2)
        elif name == "cz":
            put(b, -ONE if b[qs[0] - 1] and b[qs[1] - 1] else ONE)
        elif name == "swap":
            a, c = qs[0] - 1, qs[1] - 1
            s = list(b)
            s[a], s[c] = b[c], b[a]
            put(s, ONE)
        elif name == "cnot":
            put(flipped(qs[1]) if b[qs[0] - 1] else b, ONE)
        else:
            raise ValueError(f"no oracle for {spec!r}")
    return entries
