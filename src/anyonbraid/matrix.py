"""Dense square matrices over the exact scalar ring.

A matrix is stored as four int64 coefficient planes (one per power of
z = exp(i*pi/4)) plus a shared power-of-two denominator, kept in normal
form so equality and hashing are exact.  An operation whose exact result
could reach 2^62 in magnitude raises ValueError instead of wrapping
around, so every result is exact.

One product kernel, `_product`, serves single matrices and stacks: planes
may carry leading batch axes, (..., 4, d, d) @ (4, d, d) or the reverse,
and one broadcast np.matmul forms the 16 partial products that ring.zfold
folds.  `MatrixStack` holds many matrices of one dimension as stacked
planes with a denominator exponent per matrix; its normal form,
projective canonical form and keys agree row by row with DenseMatrix, so
Dimino cosets and the center scan run one stacked product, and the
synthesis BFS one canonical form and key pass, per `BLOCK_ROWS` matrices.
"""

from __future__ import annotations

import numpy as np

from .ring import CycScalar, zfold

_INT64_SAFE = 1 << 62


# Matrices per stacked product in the callers that sweep many elements; it
# bounds the memory of one block's 16 partial products.
BLOCK_ROWS = 1024


def _check_int64(bound: int) -> None:
    """Reject an operation whose coefficients could reach _INT64_SAFE."""
    if bound >= _INT64_SAFE:
        raise ValueError("exact matrix coefficients would overflow int64")


def _product(a: np.ndarray, b: np.ndarray, max_a: int, max_b: int) -> np.ndarray:
    """Planes of the exact product of planes a and b, either of which may
    have leading batch axes; max_a, max_b bound their coefficients.  The
    denominator exponents of the factors add; the result is not normalised."""
    _check_int64(4 * a.shape[-1] * max_a * max_b)
    t = np.matmul(a[..., :, None, :, :], b[..., None, :, :, :])  # (..., p, q, i, j)
    return np.stack(zfold(np.moveaxis(t, (-4, -3), (0, 1))), axis=-3)


def _rotate(planes: np.ndarray, e: int) -> np.ndarray:
    """Planes times z^e: a signed rotation of the plane axis (-3)."""
    e %= 8
    if e >= 4:
        planes = -planes
        e -= 4
    if e:
        planes = np.concatenate([-planes[..., 4 - e:, :, :], planes[..., :4 - e, :, :]],
                                axis=-3)
    return planes


class DenseMatrix:
    __slots__ = ("dim", "k", "planes", "_maxabs", "_key")

    def __init__(self, planes: np.ndarray, k: int, _normalized: bool = False):
        planes = np.asarray(planes, dtype=np.int64)
        if planes.ndim != 3 or planes.shape[0] != 4 or planes.shape[1] != planes.shape[2]:
            raise ValueError("planes must have shape (4, dim, dim)")
        if not _normalized and k > 0:
            # the lowest set bit of the OR of all coefficients (two's
            # complement keeps it for negatives) is the power of 2 dividing all
            bits = int(np.bitwise_or.reduce(planes, axis=None))
            shift = min(k, (bits & -bits).bit_length() - 1) if bits else k
            if shift:
                planes = planes >> shift
                k -= shift
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
        """Canonical hashable form; equal matrices have equal keys: dim and
        k as 4-byte little-endian integers, then the planes as native int64."""
        k = self._key
        if k is None:
            k = (self.dim.to_bytes(4, "little") + self.k.to_bytes(4, "little")
                 + self.planes.tobytes())
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

    @classmethod
    def _from_key(cls, key: bytes, dim: int, k: int, maxabs: int) -> DenseMatrix:
        """The normal-form matrix whose key is `key`; its planes are a
        read-only view of the key bytes after the 8-byte header, so the two
        are stored once."""
        m = object.__new__(cls)
        planes = np.ndarray((4, dim, dim), dtype=np.int64, buffer=key, offset=8)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "k", k)
        object.__setattr__(m, "planes", planes)
        object.__setattr__(m, "_maxabs", maxabs)
        object.__setattr__(m, "_key", key)
        return m

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return DenseMatrix(_product(self.planes, other.planes, self._maxabs, other._maxabs),
                           self.k + other.k)

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
        return DenseMatrix(_rotate(self.planes, e), self.k, _normalized=True)

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


class MatrixStack:
    """Matrices of one dimension as stacked planes (N, 4, d, d) with one
    denominator exponent per matrix (N,).  Every row is in DenseMatrix normal
    form, so row i of each stacked operation equals the DenseMatrix result."""

    __slots__ = ("planes", "k")

    def __init__(self, planes: np.ndarray, k: np.ndarray):
        self.planes = planes
        self.k = k

    @classmethod
    def of(cls, mats) -> MatrixStack:
        return cls(np.stack([m.planes for m in mats]),
                   np.array([m.k for m in mats], dtype=np.int64))

    @classmethod
    def normalized(cls, planes: np.ndarray, k: np.ndarray) -> MatrixStack:
        """Divide each matrix by 2 while its k > 0 and its coefficients are
        all even; a zero matrix gets k = 0 (the DenseMatrix normal form)."""
        bits = np.bitwise_or.reduce(planes.reshape(len(k), -1), axis=1)
        shift = np.zeros_like(k)
        while True:
            even = (shift < k) & (((bits >> shift) & 1) == 0)
            if not even.any():
                break
            shift += even
        if shift.any():
            planes = planes >> shift[:, None, None, None]
        return cls(planes, np.where(bits != 0, k - shift, 0))

    @classmethod
    def concatenate(cls, stacks) -> MatrixStack:
        return cls(np.concatenate([s.planes for s in stacks]),
                   np.concatenate([s.k for s in stacks]))

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, rows) -> MatrixStack:
        return MatrixStack(self.planes[rows], self.k[rows])

    def _maxabs(self) -> int:
        return int(np.abs(self.planes).max(initial=0))

    def __matmul__(self, other: DenseMatrix) -> MatrixStack:
        """Row-wise self[i] @ other."""
        if self.planes.shape[-1] != other.dim:
            raise ValueError("dimension mismatch")
        return MatrixStack.normalized(
            _product(self.planes, other.planes, self._maxabs(), other._maxabs),
            self.k + other.k)

    def premul(self, other: DenseMatrix) -> MatrixStack:
        """Row-wise other @ self[i]."""
        if self.planes.shape[-1] != other.dim:
            raise ValueError("dimension mismatch")
        return MatrixStack.normalized(
            _product(other.planes, self.planes, other._maxabs, self._maxabs()),
            other.k + self.k)

    def rows_equal(self, other: MatrixStack) -> np.ndarray:
        """Boolean mask of the rows where self and other hold equal matrices."""
        return (self.planes == other.planes).all(axis=(1, 2, 3)) & (self.k == other.k)

    def projective_canonical(self) -> tuple[np.ndarray, MatrixStack]:
        """Row-wise DenseMatrix.projective_canonical: the z-powers t and the
        rows times z^-t.  phase_class runs once per distinct leading entry."""
        n = len(self)
        flat = self.planes.reshape(n, 4, -1)
        nonzero = (flat != 0).any(axis=1)
        first = nonzero.argmax(axis=1)          # row-major first nonzero entry
        rows = np.arange(n)
        if not nonzero[rows, first].all():
            raise ValueError("zero matrix")
        # distinct leads by their 32 bytes: a 1-D unique, cheaper than axis=0
        leads = np.ascontiguousarray(flat[rows, :, first]).view(np.dtype((np.void, 32)))
        leads, which = np.unique(leads.reshape(-1), return_inverse=True)
        # The phase of an entry does not depend on the shared denominator.
        t = np.array([CycScalar(*c).phase_class()[0]
                      for c in leads.view(np.int64).reshape(-1, 4).tolist()])
        t = t[which.reshape(-1)]
        planes = np.empty_like(self.planes)
        for e in set(t.tolist()):
            sel = t == e
            planes[sel] = _rotate(self.planes[sel], -e)
        return t, MatrixStack(planes, self.k)

    def keys(self) -> list[bytes]:
        """Row-wise DenseMatrix.key(), cut from one buffer of the headers
        (dim and k as 4-byte little-endian integers) and the planes."""
        n, d = len(self), self.planes.shape[-1]
        buf = np.empty((n, 2 + 8 * d * d), dtype="<u4")
        buf[:, 0], buf[:, 1] = d, self.k
        buf[:, 2:] = np.ascontiguousarray(self.planes).reshape(n, -1).view("<u4")
        return buf.view(np.dtype((np.void, buf.itemsize * buf.shape[1]))).reshape(-1).tolist()

    def matrices(self) -> list[DenseMatrix]:
        """The rows as DenseMatrix objects, each built on its own key bytes."""
        d = self.planes.shape[-1]
        maxabs = np.abs(self.planes).reshape(len(self), -1).max(axis=1, initial=0)
        return [DenseMatrix._from_key(key, d, k, m)
                for key, k, m in zip(self.keys(), self.k.tolist(), maxabs.tolist())]
