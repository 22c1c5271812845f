"""Bit-packed GF(2) square matrices (each row one Python int)."""

from __future__ import annotations


class BitMatrix:
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if len(rows) != n:
            raise ValueError("row count mismatch")
        mask = (1 << n) - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(r & mask for r in rows))

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> BitMatrix:
        """Rows as iterables of 0/1, leftmost entry = column 0."""
        n = len(rows)
        packed = []
        for row in rows:
            row = list(row)
            if len(row) != n:
                raise ValueError("matrix must be square")
            packed.append(sum((1 << j) for j, b in enumerate(row) if b & 1))
        return cls(n, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_bitstrings(cls, strings) -> BitMatrix:
        return cls.from_rows([[int(c) for c in s] for s in strings])

    def to_bitstrings(self) -> list[str]:
        return ["".join(str((r >> j) & 1) for j in range(self.n)) for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"BitMatrix({self.to_bitstrings()})"

    def __matmul__(self, other: BitMatrix) -> BitMatrix:
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        brows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            x = r
            while x:
                low = x & -x
                acc ^= brows[low.bit_length() - 1]
                x ^= low
            out.append(acc)
        return BitMatrix(self.n, tuple(out))

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.n, tuple(
            sum(((self.rows[i] >> j) & 1) << i for i in range(self.n))
            for j in range(self.n)
        ))

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector; v packs v_i in bit i."""
        acc = 0
        for i, r in enumerate(self.rows):
            acc |= ((r & v).bit_count() & 1) << i
        return acc

    def inverse(self) -> BitMatrix:
        n = self.n
        a = list(self.rows)
        b = list(BitMatrix.identity(n).rows)
        for col in range(n):
            piv = None
            for r in range(col, n):
                if (a[r] >> col) & 1:
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("singular matrix over GF(2)")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            for r in range(n):
                if r != col and (a[r] >> col) & 1:
                    a[r] ^= a[col]
                    b[r] ^= b[col]
        return BitMatrix(n, tuple(b))

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ZeroDivisionError:
            return False

    def popcount(self) -> int:
        return sum(bin(r).count("1") for r in self.rows)


def omega_matrix(n_qubits: int) -> BitMatrix:
    """The commutation form M = I_n tensor [[0,1],[1,0]] over F2."""
    n = 2 * n_qubits
    rows = []
    for i in range(n):
        rows.append(1 << (i ^ 1))
    return BitMatrix(n, tuple(rows))


def is_symplectic(s: BitMatrix) -> bool:
    """S^T M S == M over F2 (the -1 of the integer symplectic form
    vanishes mod 2)."""
    if s.n % 2:
        return False
    m = omega_matrix(s.n // 2)
    return s.transpose() @ m @ s == m
