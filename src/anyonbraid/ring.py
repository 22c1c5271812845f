"""Exact scalars in Z[z, 1/2] for z = exp(i*pi/4).

Every matrix entry in this package is such a scalar, so group elements
hash and compare exactly and enumeration needs no floating-point
tolerance.  Coefficients are plain Python ints (arbitrary precision),
denominators are powers of two only.

One 2-adic normal form holds for scalars, matrices and stacks: k == 0 or
some coefficient is odd.  `twos_shift` is its one rule, the power of two
to divide out of coefficients over 2^k; CycScalar and matrix.DenseMatrix
call it, and matrix.MatrixStack.normalized applies it row by row.
"""

from __future__ import annotations

import cmath

ZETA_COMPLEX = cmath.exp(1j * cmath.pi / 4)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_a_sqrt2_plus_b(a: int, b: int) -> int:
    """Exact sign of a*sqrt(2) + b for integers a, b."""
    if a == 0:
        return _sign(b)
    if b == 0:
        return _sign(a)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a*sqrt(2)| vs |b| decided by 2a^2 vs b^2
    d = 2 * a * a - b * b
    # d == 0 would mean sqrt(2) rational
    return _sign(a) if d > 0 else _sign(b)


def zfold(t):
    """Coefficients of (sum a_p z^p)(sum b_q z^q) from the 16 partial
    products t[p][q] = a_p * b_q, folding z^4 = -1.

    t may hold ints or numpy arrays (one plane per pair p, q); every exact
    product in the package takes its signs from this one table (the matrix
    product kernel folds one-hot partial products through it once).
    """
    return (t[0][0] - t[1][3] - t[2][2] - t[3][1],
            t[0][1] + t[1][0] - t[2][3] - t[3][2],
            t[0][2] + t[1][1] + t[2][0] - t[3][3],
            t[0][3] + t[1][2] + t[2][1] + t[3][0])


def twos_shift(bits: int, k: int) -> int:
    """The power of 2 that brings coefficients over 2^k to normal form,
    given the OR `bits` of the coefficients: the lowest set bit of bits
    (two's complement keeps it for negatives), at most k, and all of k
    when bits is 0, so that zero gets k = 0."""
    return min(k, (bits & -bits).bit_length() - 1) if bits else k


# The z-power rule as indices into the signed planes (a_0..a_3, -a_0..-a_3)
# of a = sum a_p z^p: plane p of z^t a is signed plane ZROT[t][p], and plane
# p of conj(a) (z^p -> z^-p) is ZCONJ[p]; every rotation reads these tables.
ZROT = tuple(tuple((p - t) % 8 for p in range(4)) for t in range(8))
ZCONJ = tuple(-p % 8 for p in range(4))


class CycScalar:
    """(c0 + c1*z + c2*z^2 + c3*z^3) / 2^k with z = exp(i*pi/4), z^4 = -1.

    Normal form (twos_shift): k == 0 or at least one coefficient odd.  The
    normal form is unique, so structural equality is mathematical equality.
    """

    __slots__ = ("c0", "c1", "c2", "c3", "k")

    def __init__(self, c0: int, c1: int = 0, c2: int = 0, c3: int = 0, k: int = 0):
        if k < 0:
            raise ValueError("denominator exponent must be non-negative")
        s = twos_shift(c0 | c1 | c2 | c3, k)
        object.__setattr__(self, "c0", c0 >> s)
        object.__setattr__(self, "c1", c1 >> s)
        object.__setattr__(self, "c2", c2 >> s)
        object.__setattr__(self, "c3", c3 >> s)
        object.__setattr__(self, "k", k - s)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __repr__(self) -> str:
        return f"CycScalar({self.c0}, {self.c1}, {self.c2}, {self.c3}, k={self.k})"

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycScalar(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        return self.coeffs == other.coeffs and self.k == other.k

    def __hash__(self):
        return hash((self.coeffs, self.k))

    def __bool__(self) -> bool:
        return bool(self.c0 | self.c1 | self.c2 | self.c3)

    def is_zero(self) -> bool:
        return not self

    def __neg__(self) -> CycScalar:
        return CycScalar(-self.c0, -self.c1, -self.c2, -self.c3, self.k)

    def __add__(self, other) -> CycScalar:
        if isinstance(other, int):
            other = CycScalar(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        k = max(self.k, other.k)
        sa = k - self.k
        sb = k - other.k
        return CycScalar(
            (self.c0 << sa) + (other.c0 << sb),
            (self.c1 << sa) + (other.c1 << sb),
            (self.c2 << sa) + (other.c2 << sb),
            (self.c3 << sa) + (other.c3 << sb),
            k,
        )

    __radd__ = __add__

    def __sub__(self, other) -> CycScalar:
        return self + (-other if isinstance(other, CycScalar) else CycScalar(-other))

    def __rsub__(self, other) -> CycScalar:
        return (-self) + other

    def __mul__(self, other) -> CycScalar:
        if isinstance(other, int):
            return CycScalar(self.c0 * other, self.c1 * other,
                             self.c2 * other, self.c3 * other, self.k)
        if not isinstance(other, CycScalar):
            return NotImplemented
        t = [[a * b for b in other.coeffs] for a in self.coeffs]
        return CycScalar(*zfold(t), self.k + other.k)

    __rmul__ = __mul__

    def _signed(self) -> tuple[int, ...]:
        c0, c1, c2, c3 = self.c0, self.c1, self.c2, self.c3
        return (c0, c1, c2, c3, -c0, -c1, -c2, -c3)

    def conjugate(self) -> CycScalar:
        s = self._signed()
        return CycScalar(*[s[i] for i in ZCONJ], self.k)

    def mul_zeta(self, e: int) -> CycScalar:
        """Multiply by z^e (a signed cyclic shift of the coefficients)."""
        s = self._signed()
        return CycScalar(*[s[i] for i in ZROT[e % 8]], self.k)

    def _in_phase_domain(self) -> bool:
        """Exact test for polar angle in [0, pi/4)."""
        c0, c1, c2, c3 = self.coeffs
        # sqrt(2)*2^k*Re = c0*sqrt(2) + (c1 - c3), similarly for Im
        if _sign_a_sqrt2_plus_b(c0, c1 - c3) <= 0:
            return False
        if _sign_a_sqrt2_plus_b(c2, c1 + c3) < 0:
            return False
        return _sign_a_sqrt2_plus_b(c0 - c2, -2 * c3) > 0

    def phase_class(self) -> tuple[int, CycScalar]:
        """Return (t, rep) with rep = z^-t * self of polar angle in [0, pi/4).

        Exactly one of the eight rotations z^-t*self lands in the
        fundamental domain; t canonicalizes projective (global-phase)
        comparisons.  Rejects zero.
        """
        if self.is_zero():
            raise ValueError("phase_class of zero")
        x = self
        for t in range(8):
            if x._in_phase_domain():
                return t, x
            x = x.mul_zeta(-1)
        raise RuntimeError("no rotation in fundamental domain")

    def ipower(self) -> int | None:
        """m with self == i^m, or None if self is not a power of i."""
        if self.k != 0:
            return None
        return {
            (1, 0, 0, 0): 0,
            (0, 0, 1, 0): 1,
            (-1, 0, 0, 0): 2,
            (0, 0, -1, 0): 3,
        }.get(self.coeffs)

    def to_complex(self) -> complex:
        """Floating-point embedding, for display only."""
        z = ZETA_COMPLEX
        return (self.c0 + self.c1 * z + self.c2 * z**2 + self.c3 * z**3) / 2**self.k

    def to_list(self) -> list[int]:
        return [self.c0, self.c1, self.c2, self.c3, self.k]

    @classmethod
    def from_list(cls, data) -> CycScalar:
        """Inverse of to_list; anything but five ints raises ValueError."""
        if not (isinstance(data, (list, tuple)) and len(data) == 5
                and all(type(x) is int for x in data)):
            raise ValueError("a scalar must be 5 integers [c0, c1, c2, c3, k]")
        return cls(*data)


ZERO = CycScalar(0)
ONE = CycScalar(1)
I_UNIT = CycScalar(0, 0, 1, 0)
ZETA = CycScalar(0, 1, 0, 0)
SQRT2 = CycScalar(0, 1, 0, -1)
INV_SQRT2 = CycScalar(0, 1, 0, -1, 1)
# e^{i pi/4}/sqrt(2) = (1+i)/2, the braid-generator prefactor
BRAID_PHASE = CycScalar(1, 0, 1, 0, 1)
