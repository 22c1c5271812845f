"""Dense square matrices over the exact scalar ring.

A matrix is stored as four int64 coefficient planes (one per power of
z = exp(i*pi/4)) plus a shared power-of-two denominator, kept in normal
form so equality and hashing are exact.  Every product folds its partial
products through ring.zfold.  An operation whose exact result could reach
2^62 in magnitude raises ValueError instead of wrapping around, so every
result is exact.
"""

from __future__ import annotations

import numpy as np

from .ring import CycScalar, zfold

_INT64_SAFE = 1 << 62


def _check_int64(bound: int) -> None:
    """Reject an operation whose coefficients could reach _INT64_SAFE."""
    if bound >= _INT64_SAFE:
        raise ValueError("exact matrix coefficients would overflow int64")


class DenseMatrix:
    __slots__ = ("dim", "k", "planes", "_maxabs", "_key")

    def __init__(self, planes: np.ndarray, k: int, _normalized: bool = False):
        planes = np.asarray(planes, dtype=np.int64)
        if planes.ndim != 3 or planes.shape[0] != 4 or planes.shape[1] != planes.shape[2]:
            raise ValueError("planes must have shape (4, dim, dim)")
        if not _normalized:
            while k > 0 and not (planes & 1).any():
                planes = planes >> 1
                k -= 1
            if not planes.any():
                k = 0
        m = int(np.abs(planes).max(initial=0))
        planes.flags.writeable = False
        object.__setattr__(self, "dim", planes.shape[1])
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "_maxabs", m)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_entries(cls, rows) -> DenseMatrix:
        """Build from a list of lists of CycScalar (or plain ints)."""
        d = len(rows)
        scalars = [[e if isinstance(e, CycScalar) else CycScalar(int(e)) for e in row]
                   for row in rows]
        if any(len(row) != d for row in scalars):
            raise ValueError("matrix must be square")
        k = max((s.k for row in scalars for s in row), default=0)
        _check_int64(max((max(map(abs, s.coeffs)) << (k - s.k)
                          for row in scalars for s in row), default=0))
        planes = [[[s.coeffs[p] << (k - s.k) for s in row] for row in scalars]
                  for p in range(4)]
        return cls(np.array(planes, dtype=np.int64).reshape(4, d, d), k)

    @classmethod
    def identity(cls, dim: int) -> DenseMatrix:
        planes = np.zeros((4, dim, dim), dtype=np.int64)
        planes[0] = np.eye(dim, dtype=np.int64)
        return cls(planes, 0, _normalized=True)

    @classmethod
    def zeros(cls, dim: int) -> DenseMatrix:
        return cls(np.zeros((4, dim, dim), dtype=np.int64), 0, _normalized=True)

    # -- structure ---------------------------------------------------

    def entry(self, i: int, j: int) -> CycScalar:
        p = self.planes
        return CycScalar(int(p[0, i, j]), int(p[1, i, j]),
                         int(p[2, i, j]), int(p[3, i, j]), self.k)

    def key(self) -> bytes:
        """Canonical hashable form; equal matrices have equal keys."""
        k = self._key
        if k is None:
            k = self.dim.to_bytes(4, "little") + self.k.to_bytes(4, "little") \
                + self.planes.tobytes()
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.dim != other.dim or self.k != other.k:
            return False
        return bool((self.planes == other.planes).all())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        return f"DenseMatrix(dim={self.dim}, k={self.k})"

    # -- arithmetic --------------------------------------------------

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        _check_int64(4 * self.dim * self._maxabs * other._maxabs)
        t = np.tensordot(self.planes, other.planes, axes=([2], [1]))  # (p, i, q, j)
        return DenseMatrix(np.stack(zfold(t.transpose(0, 2, 1, 3))), self.k + other.k)

    def _aligned(self, other: DenseMatrix):
        k = max(self.k, other.k)
        a, b = self.planes, other.planes
        sa, sb = k - self.k, k - other.k
        _check_int64((self._maxabs << sa) + (other._maxabs << sb))
        return (a << sa) if sa else a, (b << sb) if sb else b, k

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b, k = self._aligned(other)
        return DenseMatrix(a + b, k)

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        a, b, k = self._aligned(other)
        return DenseMatrix(a - b, k)

    def __neg__(self) -> DenseMatrix:
        return DenseMatrix(-self.planes, self.k, _normalized=True)

    def scale(self, s: CycScalar | int) -> DenseMatrix:
        if isinstance(s, int):
            s = CycScalar(s)
        _check_int64(4 * max(map(abs, s.coeffs)) * self._maxabs)
        t = np.multiply.outer(s.coeffs, self.planes)  # (p, q, i, j)
        return DenseMatrix(np.stack(zfold(t)), self.k + s.k)

    def mul_zeta(self, e: int) -> DenseMatrix:
        """Multiply every entry by z^e (a signed plane rotation)."""
        e %= 8
        p = self.planes
        if e >= 4:
            p = -p
            e -= 4
        if e:
            p = np.concatenate([-p[4 - e:], p[:4 - e]])
        return DenseMatrix(p, self.k, _normalized=True)

    def dagger(self) -> DenseMatrix:
        p = self.planes
        planes = np.stack([p[0], -p[3], -p[2], -p[1]]).transpose(0, 2, 1)
        return DenseMatrix(planes, self.k, _normalized=True)

    def kron(self, other: DenseMatrix) -> DenseMatrix:
        _check_int64(4 * self._maxabs * other._maxabs)
        d = self.dim * other.dim
        t = np.einsum("pij,qkl->pqikjl", self.planes, other.planes).reshape(4, 4, d, d)
        return DenseMatrix(np.stack(zfold(t)), self.k + other.k)

    def trace(self) -> CycScalar:
        c = [int(self.planes[p].trace()) for p in range(4)]
        return CycScalar(c[0], c[1], c[2], c[3], self.k)

    # -- predicates --------------------------------------------------

    def is_identity(self) -> bool:
        return self == DenseMatrix.identity(self.dim)

    def is_unitary(self) -> bool:
        return (self @ self.dagger()).is_identity()

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_zero(self) -> bool:
        return not self.planes.any()

    # -- projective canonical form ------------------------------------

    def first_nonzero_entry(self) -> tuple[int, int]:
        nz = np.argwhere((self.planes != 0).any(axis=0))
        if len(nz) == 0:
            raise ValueError("zero matrix")
        return int(nz[0][0]), int(nz[0][1])

    def projective_canonical(self) -> tuple[int, DenseMatrix]:
        """(t, M') with M' = z^-t * self and the first nonzero entry of M'
        in the scalar fundamental domain.  Strips global z-power phases."""
        i, j = self.first_nonzero_entry()
        t, _ = self.entry(i, j).phase_class()
        return t, self.mul_zeta(-t)

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [[self.entry(i, j).to_list() for j in range(self.dim)]
                        for i in range(self.dim)],
        }

    @classmethod
    def from_json_dict(cls, data) -> DenseMatrix:
        """Inverse of to_json_dict; malformed data raises ValueError."""
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise ValueError("matrix JSON must be an object with an 'entries' list")
        rows = data["entries"]
        for row in rows:
            if not isinstance(row, list) or len(row) != len(rows):
                raise ValueError("matrix entries must be a square list of rows")
        m = cls.from_entries([[CycScalar.from_list(e) for e in row] for row in rows])
        if m.dim != data.get("dim"):
            raise ValueError("dim field does not match entries")
        return m

    def to_complex(self) -> np.ndarray:
        return np.array([[self.entry(i, j).to_complex() for j in range(self.dim)]
                         for i in range(self.dim)])
