"""Bit-packed GF(2) square matrices (each row one Python int), and a
Schreier-Sims stabiliser chain that gives the exact order of a group of
them, and decides membership in it, without listing its elements."""

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

    def to_bitstrings(self) -> list[str]:
        return ["".join(str((r >> j) & 1) for j in range(self.n)) for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

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
        # rows combined from masked rows need no mask
        m = object.__new__(BitMatrix)
        object.__setattr__(m, "n", self.n)
        object.__setattr__(m, "rows", tuple(out))
        return m

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


class StabiliserChain:
    """Deterministic Schreier-Sims stabiliser chain of a group of invertible
    n x n BitMatrix elements acting on column vectors (Seress, Permutation
    Group Algorithms, CUP 2003, ch. 4; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, 4.4.2).

    The base is the unit vectors e_0..e_(n-1): a matrix that fixes all of
    them is the identity, so the base never grows.  Level i holds strong
    generators fixing e_0..e_(i-1) and the orbit of e_i under them, each
    point p with a transversal pair (u, u^-1), u e_i = p.  Every Schreier
    generator of every level sifts to the identity once the chain is built,
    so order() is the product of the orbit lengths and contains() is one
    sift, both exact.
    """

    def __init__(self, generators, n: int):
        one = BitMatrix.identity(n)
        self.n = n
        self.gens = [[] for _ in range(n)]
        self.orbits = [{1 << i: (one, one)} for i in range(n)]
        self.tested = [set() for _ in range(n)]
        for g in generators:
            if g.n != n:
                raise ValueError("generator dimension mismatch")
            g, j = self._sift(g, 0)
            if j < n:
                self._add(g, 0, j)
        i = n - 1
        while i >= 0:
            i = self._schreier_level(i)

    def _add(self, g: BitMatrix, lo: int, hi: int) -> None:
        """g (fixing e_0..e_(lo-1)) as a strong generator of levels lo..hi."""
        pair = (g, g.inverse())
        for level in range(lo, hi + 1):
            gens, orbit = self.gens[level], self.orbits[level]
            gens.append(pair)
            queue = list(orbit)
            for p in queue:
                u, u_inv = orbit[p]
                for k, (x, x_inv) in enumerate(gens):
                    q = x.mul_vec(p)
                    if q not in orbit:
                        orbit[q] = (x @ u, u_inv @ x_inv)
                        self.tested[level].add((p, k))
                        queue.append(q)

    def _sift(self, g: BitMatrix, level: int) -> tuple[BitMatrix, int]:
        """(residue, j): g stripped through levels level..j-1, j the first
        level whose orbit misses the residue's image of e_j (n if none, in
        which case the residue is the identity)."""
        for j in range(level, self.n):
            entry = self.orbits[j].get(g.mul_vec(1 << j))
            if entry is None:
                return g, j
            g = entry[1] @ g
        return g, self.n

    def _schreier_level(self, i: int) -> int:
        """Sift the untested Schreier generators of level i; on the first
        that does not sift, add its residue to the levels it fixes into and
        return the level to resume from, else return i - 1."""
        orbit, gens, tested = self.orbits[i], self.gens[i], self.tested[i]
        for p, (u, _) in orbit.items():
            for k, (x, _) in enumerate(gens):
                if (p, k) in tested:
                    continue
                tested.add((p, k))
                h = orbit[x.mul_vec(p)][1] @ x @ u
                residue, j = self._sift(h, i + 1)
                if j < self.n:
                    self._add(residue, i + 1, j)
                    return j
        return i - 1

    def order(self) -> int:
        out = 1
        for orbit in self.orbits:
            out *= len(orbit)
        return out

    def contains(self, s: BitMatrix) -> bool:
        return s.n == self.n and self._sift(s, 0)[1] == self.n
