"""Dense square matrices over the exact scalar ring.

A matrix is stored as four int64 coefficient planes (one per power of
z = exp(i*pi/4)) plus a shared power-of-two denominator, kept in the
normal form of ring.twos_shift (k == 0 or some coefficient odd) so
equality and hashing are exact.  An operation whose exact result
could reach 2^62 in magnitude raises ValueError instead of wrapping
around, so every result is exact.

One product kernel, `_product`, serves single matrices and stacks: one
factor may carry leading batch axes, (..., 4, m, d) @ (4, d, e) or the
reverse.  The fixed factor is written as one (4d, 4e) block matrix whose
signs come from ring.zfold, so the whole product is a single 2-D GEMM.
It runs in float64 (BLAS) only when every partial sum is an integer
below 2^53, where float64 is exact, and in int64 otherwise: floats carry
exact integers there and never stand for a rounded value.

A power of z is one gather of the signed planes (a, -a) by ring.ZROT:
`_rotate` on the plane axis, and `phased_row_index` on the rows, so that
G[r, perm[r]] = z^zpow[r] acts on the left as one gather; sigma_x, the
braid letter rule and the gate constructors are such gathers.

`MatrixStack` holds many matrices of one dimension as stacked planes with
a denominator exponent per matrix; its normal form (the same
ring.twos_shift, one pass over the rows), projective canonical form and
keys agree row by row with DenseMatrix, so Dimino cosets and the
center scan run one stacked product per `BLOCK_ROWS` matrices.
A key is one record: dim and k as little-endian uint32, then the planes
in the narrowest signed integer type that holds the matrix's largest
coefficient (int8, int16, int32 or int64).  The normal form is unique, so
the width is a function of the matrix and equal matrices have equal keys;
for a given dim the width is read back from the key's length.  A stack is
read straight from joined keys at their own width (`MatrixStack.from_keys`,
whose stacked operations take any width), and `matrices_from_keys` builds
int64 matrices from them.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .ring import ZCONJ, ZROT, CycScalar, twos_shift, zfold

_INT64_SAFE = 1 << 62
# float64 holds every integer below 2^53 exactly, so a product whose partial
# sums all stay below it is exact in float64 (BLAS) arithmetic.
_FLOAT_EXACT = 1 << 53

# The sign table of ring.zfold read off one-hot partial products: the
# coefficient of z^r in a_p * b_q is _ZTABLE[p, r, q] (one nonzero per p, r).
_ZTABLE = np.stack(zfold(np.eye(16, dtype=np.int64).reshape(4, 4, 4, 4)), axis=1)
_ZINDEX = np.abs(_ZTABLE).argmax(axis=2)
_ZSIGN = _ZTABLE.sum(axis=2)[:, :, None, None]
_ZROT = np.array(ZROT)
_ZCONJ = np.array(ZCONJ)

# A key's planes take the first of these types whose bound exceeds the
# matrix's largest coefficient magnitude.
_KEY_TYPES = (np.int8, np.int16, np.int32, np.int64)
_KEY_BOUNDS = (1 << 7, 1 << 15, 1 << 31)


# Matrices per stacked product in the callers that sweep many elements; it
# bounds the memory of one block's product.
BLOCK_ROWS = 1024


def _check_int64(bound: int) -> None:
    """Reject an operation whose coefficients could reach _INT64_SAFE."""
    if bound >= _INT64_SAFE:
        raise ValueError("exact matrix coefficients would overflow int64")


def _right_gemm(x: np.ndarray, f: np.ndarray, carrier) -> np.ndarray:
    """Planes (..., 4, m, d) times the fixed planes f (4, d, e) as one 2-D
    product: each row of x is [x_0 | x_1 | x_2 | x_3], and multiplying by
    f in Z[z] is multiplying by the (4d, 4e) block matrix whose block
    (p, r) is the signed plane of f that takes z^p to z^r."""
    m, d, e = x.shape[-2], x.shape[-1], f.shape[-1]
    block = (f[_ZINDEX] * _ZSIGN).transpose(0, 2, 1, 3)            # (p, d, r, e)
    rows = x.swapaxes(-3, -2).astype(carrier, order="C").reshape(-1, 4 * d)
    out = rows @ block.astype(carrier, order="C").reshape(4 * d, 4 * e)
    return out.reshape(*x.shape[:-3], m, 4, e).swapaxes(-3, -2)


def _product(a: np.ndarray, b: np.ndarray, max_a: int, max_b: int) -> np.ndarray:
    """Planes of the exact product of planes a and b, one of which may
    have leading batch axes; max_a, max_b bound their coefficients.  The
    denominator exponents of the factors add; the result is not normalised.

    Every partial sum is an integer of magnitude at most 4 d max_a max_b,
    so the one GEMM runs in float64 when that bound (and each input) is
    below 2^53, and in int64 otherwise; either way the result is exact."""
    bound = 4 * a.shape[-1] * max_a * max_b
    _check_int64(bound)
    carrier = np.float64 if max(bound, max_a, max_b) < _FLOAT_EXACT else np.int64
    if b.ndim == 3:
        out = _right_gemm(a, b, carrier)
    else:   # a fixed on the left: (a b)^T = b^T a^T, entries commute
        out = _right_gemm(b.swapaxes(-1, -2), a.swapaxes(-1, -2), carrier).swapaxes(-1, -2)
    return out.astype(np.int64, order="C")


def _signed(planes: np.ndarray) -> np.ndarray:
    """The eight signed planes (planes, -planes) on the plane axis (-3)."""
    return np.concatenate([planes, -planes], axis=-3)


def _rotate(planes: np.ndarray, e) -> np.ndarray:
    """Planes times z^e, one gather of ring.ZROT on the signed plane axis:
    planes (4, d, d) and an int e, or a stack (N, 4, d, d) and N powers."""
    idx = _ZROT[np.asarray(e) % 8]
    signed = _signed(planes)
    return signed.take(idx, axis=0) if idx.ndim == 1 else signed[np.arange(len(idx))[:, None], idx]


def signed_rows(planes: np.ndarray) -> np.ndarray:
    """The rows of the signed planes as one (..., 8d, d) array, keeping any
    leading batch axes; phased_row_index picks from it."""
    d = planes.shape[-1]
    return _signed(planes).reshape(*planes.shape[:-3], 8 * d, d)


def phased_row_index(perm: np.ndarray, zpow) -> np.ndarray:
    """Indices (4, d) into signed_rows(X) that give the planes of G @ X for
    the phased permutation G[r, perm[r]] = z^zpow[r] (zpow an int or one
    power per row): row r of G X is row perm[r] of X times z^zpow[r], and
    plane p of that is signed plane ring.ZROT[zpow[r]][p]."""
    return (_ZROT[np.asarray(zpow) % 8] * len(perm) + perm[:, None]).T


class DenseMatrix:
    __slots__ = ("dim", "k", "planes", "_maxabs", "_key")

    def __init__(self, planes: np.ndarray, k: int, _normalized: bool = False):
        planes = np.asarray(planes, dtype=np.int64)
        if planes.ndim != 3 or planes.shape[0] != 4 or planes.shape[1] != planes.shape[2]:
            raise ValueError("planes must have shape (4, dim, dim)")
        if not _normalized and k > 0:
            shift = twos_shift(int(np.bitwise_or.reduce(planes, axis=None)), k)
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
    def phased_permutation(cls, perm: np.ndarray, zpow) -> DenseMatrix:
        """G with G[r, perm[r]] = z^zpow[r] and zeros elsewhere (zpow an int
        or one power per row): G @ I, one gather of the identity's rows."""
        rows = signed_rows(cls.identity(len(perm)).planes)
        return cls(rows[phased_row_index(perm, zpow)], 0, _normalized=True)

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
        k as 4-byte little-endian integers, then the planes in the narrowest
        native signed type that holds the largest coefficient magnitude."""
        k = self._key
        if k is None:
            width = _KEY_TYPES[bisect_right(_KEY_BOUNDS, self._maxabs)]
            k = (self.dim.to_bytes(4, "little") + self.k.to_bytes(4, "little")
                 + self.planes.astype(width).tobytes())
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
    def _from_key(cls, key: bytes, planes: np.ndarray, k: int, maxabs: int) -> DenseMatrix:
        """The normal-form matrix whose key is `key`, given its planes read
        back from the key as a read-only int64 array and its k and maxabs."""
        m = object.__new__(cls)
        object.__setattr__(m, "dim", planes.shape[-1])
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
        planes = _signed(self.planes).take(_ZCONJ, axis=0).transpose(0, 2, 1)
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
        """ring.twos_shift row by row: divide each matrix by the lowest set
        bit of the OR of its coefficients, read as a float's exponent, at
        most its k; a zero matrix loses all of k."""
        bits = np.bitwise_or.reduce(planes.reshape(len(k), -1), axis=1)
        low = np.frexp(bits & -bits)[1] - 1
        shift = np.where(bits != 0, np.minimum(k, low), k)
        if shift.any():
            planes = planes >> shift[:, None, None, None]
        return cls(planes, k - shift)

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
        # distinct leads by their 32 bytes as int64: a 1-D unique, cheaper
        # than axis=0
        leads = np.ascontiguousarray(flat[rows, :, first], dtype=np.int64)
        leads = leads.view(np.dtype((np.void, 32)))
        leads, which = np.unique(leads.reshape(-1), return_inverse=True)
        # The phase of an entry does not depend on the shared denominator.
        t = np.array([CycScalar(*c).phase_class()[0]
                      for c in leads.view(np.int64).reshape(-1, 4).tolist()])
        t = t[which.reshape(-1)]
        return t, MatrixStack(_rotate(self.planes, -t), self.k)

    @classmethod
    def from_keys(cls, keys) -> MatrixStack:
        """The stack of the matrices with these keys (at least one, all of
        one dimension), in order.  Keys of one width are one read-only view
        of their joined bytes at that width; mixed widths are read width by
        width into the widest."""
        d = int.from_bytes(keys[0][:4], "little")
        sizes = _rows_by_value(np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)))
        if len(sizes) == 1:
            width = np.dtype(f"i{(sizes[0][0] - 8) // (4 * d * d)}")
            rows = np.frombuffer(b"".join(keys), dtype=_key_dtype(d, width))
            return cls(rows["planes"], rows["k"].astype(np.int64))
        parts = [(idx, cls.from_keys([keys[i] for i in idx.tolist()])) for _, idx in sizes]
        out = cls(np.empty((len(keys), 4, d, d), dtype=parts[-1][1].planes.dtype),
                  np.empty(len(keys), dtype=np.int64))
        for idx, part in parts:
            out.planes[idx], out.k[idx] = part.planes, part.k
        return out

    def keys(self) -> list[bytes]:
        """Row-wise DenseMatrix.key(), in order: the rows of each width are
        cut from one buffer of the headers (dim and k as 4-byte
        little-endian integers) and the planes at that width."""
        n, d = len(self), self.planes.shape[-1]
        flat = self.planes.reshape(n, 4 * d * d)
        if max(int(flat.max(initial=0)), -int(flat.min(initial=0))) < _KEY_BOUNDS[0]:
            widths = np.zeros(n, dtype=np.intp)     # every row fits the narrowest
        else:
            widths = np.searchsorted(_KEY_BOUNDS, np.abs(flat).max(axis=1), side="right")
        out = [None] * n
        for w, idx in _rows_by_value(widths):
            part = self[idx]
            rows = np.empty(len(part), dtype=_key_dtype(d, _KEY_TYPES[w]))
            rows["dim"], rows["k"], rows["planes"] = d, part.k, part.planes
            keys = rows.view(np.dtype((np.void, rows.itemsize))).tolist()
            if len(part) == n:
                return keys
            for i, key in zip(idx.tolist(), keys):
                out[i] = key
        return out

    def matrices(self) -> list[DenseMatrix]:
        """The rows as DenseMatrix objects, each built from its own key."""
        return matrices_from_keys(self.keys())


def _rows_by_value(values: np.ndarray) -> list[tuple[int, np.ndarray | slice]]:
    """(value, its rows) for each distinct value, smallest first; the rows
    are a slice of all of them when every value is the same."""
    if len(values) and (values == values[0]).all():
        return [(int(values[0]), slice(None))]
    uniq, which = np.unique(values, return_inverse=True)
    return [(int(v), np.flatnonzero(which == i)) for i, v in enumerate(uniq)]


def _key_dtype(d: int, width) -> np.dtype:
    """One key as a record: the DenseMatrix.key() layout for dimension d
    with planes of the signed integer type `width`."""
    return np.dtype([("dim", "<u4"), ("k", "<u4"), ("planes", width, (4, d, d))])


def matrices_from_keys(keys) -> list[DenseMatrix]:
    """The DenseMatrix of each key (all of one dimension), with its exact
    largest coefficient; their int64 planes are read-only rows of one array."""
    if not keys:
        return []
    stack = MatrixStack.from_keys(keys)
    planes = stack.planes.astype(np.int64)
    planes.flags.writeable = False
    maxabs = np.abs(planes).reshape(len(keys), -1).max(axis=1)
    return [DenseMatrix._from_key(key, p, k, m)
            for key, p, k, m in zip(keys, planes, stack.k.tolist(), maxabs.tolist())]
