"""Braid-group generators for 2n+2 anyons acting on n qubits, braid-word
evaluation, monodromy elements, and the named gate words.

The generator for exchanging strands j, j+1 is

    R_j = e^{i pi/4}/sqrt(2) * (I - gamma_j gamma_{j+1})

on the full 2^(n+1)-dimensional space; the representation splits into two
irreducible parity sectors.  A RepContext selects the form:

    "unprojected"  : full 2^(n+1) matrices, no projector applied
    "projected"    : R_j P_(parity), still 2^(n+1)-dimensional
    "compressed"   : the projected action written on the 2^n-dimensional
                     parity-definite basis |x1..xn z>, z the completion bit

Words multiply left to right: the word "1 3 -5" evaluates to
R_1 R_3 R_5^(-1) in that operator order.  Global phases are kept as-is;
projective comparisons go through DenseMatrix.projective_canonical.

No generator is built from gamma matrices, and no letter costs a matrix
product.  G_j = gamma_j gamma_{j+1} is a phased permutation, kept per
(ctx, j) as an O(d) table read off the two gammas' Pauli strings, and
each letter applies the letter rule

    R_j X = ((1+i)/2)(X - G_j X),   R_j^(-1) X = ((1-i)/2)(X + G_j X),

where G_j X is a phased row permutation of X.  eval_word forms a word
from the right, one gather of signed rows per letter, and the generators
are the rule applied to the unit of the form.  G_j commutes with the
parity projector, so the rule is the same in all three forms.  The BFS
moves apply it on the right (expand_moves).  The dense gamma
construction remains as the oracle in verify.py and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gamma import _embedding, compress_matrix, gamma, projector
from .matrix import DenseMatrix, MatrixStack, _check_int64
from .pauli import PauliElement, pauli_sparse, phased_row_index, signed_rows
from .ring import I_UNIT

FORMS = ("compressed", "projected", "unprojected")


@dataclass(frozen=True)
class RepContext:
    n_qubits: int
    parity: int = 1
    form: str = "compressed"

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}")

    @property
    def strands(self) -> int:
        return 2 * self.n_qubits + 2

    @property
    def generator_count(self) -> int:
        return 2 * self.n_qubits + 1

    @property
    def dim(self) -> int:
        return 2 ** (self.n_qubits if self.form == "compressed" else self.n_qubits + 1)

    @property
    def compressed(self) -> bool:
        return self.form == "compressed"


@dataclass(frozen=True)
class BraidWord:
    """Sequence of (generator index, nonzero exponent) pairs."""

    letters: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        letters = tuple((int(j), int(e)) for j, e in self.letters)
        for j, e in letters:
            if j < 1:
                raise ValueError("generator indices start at 1")
            if e == 0:
                raise ValueError("exponents must be nonzero")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_text(cls, text: str) -> BraidWord:
        """Parse whitespace-separated signed indices, e.g. "1 3 -5"."""
        letters = []
        for tok in text.split():
            x = int(tok)
            if x == 0:
                raise ValueError("0 is not a generator index")
            letters.append((abs(x), 1 if x > 0 else -1))
        return cls(tuple(letters))

    @classmethod
    def from_json(cls, data) -> BraidWord:
        return cls(tuple((int(j), int(e)) for j, e in data))

    def to_text(self) -> str:
        toks = []
        for j, e in self.letters:
            toks.extend([str(j if e > 0 else -j)] * abs(e))
        return " ".join(toks)

    def to_json(self) -> list[list[int]]:
        return [[j, e] for j, e in self.letters]

    def inverse(self) -> BraidWord:
        return BraidWord(tuple((j, -e) for j, e in reversed(self.letters)))

    def __add__(self, other: BraidWord) -> BraidWord:
        return BraidWord(self.letters + other.letters)

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def max_index(self) -> int:
        return max((j for j, _ in self.letters), default=0)


@lru_cache(maxsize=None)
def braid_generator(ctx: RepContext, j: int) -> DenseMatrix:
    """R_j in the representation selected by ctx: the letter rule applied
    to the unit of the form."""
    return _apply_letter(_letter_rows(ctx, j, False), rep_identity(ctx))


@lru_cache(maxsize=None)
def braid_generator_inverse(ctx: RepContext, j: int) -> DenseMatrix:
    """R_j^(-1) = e^{-i pi/4}/sqrt(2) * (I + gamma_j gamma_{j+1}), projected
    and compressed per ctx."""
    return _apply_letter(_letter_rows(ctx, j, True), rep_identity(ctx))


def _gamma_pauli(m: int, j: int) -> PauliElement:
    """gamma_j on m qubits as a Pauli string: sigma1 (j odd) or sigma2
    (j even) on qubit (j+1)//2, sigma3 on every later qubit."""
    slot = (j + 1) // 2
    out = PauliElement.single(m, slot, 1 if j % 2 else 2)
    for q in range(slot + 1, m + 1):
        out = out * PauliElement.single(m, q, 3)
    return out


def exchange_table(ctx: RepContext, j: int) -> tuple[np.ndarray, np.ndarray]:
    """G_j = gamma_j gamma_{j+1} in the form of ctx as the phased permutation
    (perm, ipow): G_j[r, perm[r]] = i^ipow[r], zero elsewhere.

    It is the product of two Pauli strings, so no matrix is multiplied.
    G_j commutes with the parity projector, so the compressed form keeps
    the rows of the parity subspace, whose columns stay inside it; there
    G_j = i R_j^2, i times the Pauli that square_formulas states.
    """
    if not 1 <= j <= ctx.generator_count:
        raise IndexError(f"generator index {j} out of range 1..{ctx.generator_count}")
    m = ctx.n_qubits + 1
    g = _gamma_pauli(m, j) * _gamma_pauli(m, j + 1)
    perm, ipow = pauli_sparse(g.v)
    ipow = (ipow + g.m) % 4
    if ctx.compressed:
        idx = _embedding(ctx.n_qubits, ctx.parity)
        perm, ipow = perm[idx] >> 1, ipow[idx]
    return perm, ipow


def _rule_rows(perm: np.ndarray, ipow: np.ndarray, inverse: bool) -> np.ndarray:
    """Row indices (4 terms, 4 planes, d) into pauli.signed_rows(X) whose
    sum over terms is (1 + i)(X - G X) = X + i X - G X - i G X, or
    (1 - i)(X + G X) = X - i X + G X - i G X, for G = (perm, ipow)."""
    rows = np.arange(len(perm))
    idx = np.stack([phased_row_index(rows, 0), phased_row_index(rows, 3 if inverse else 1),
                    phased_row_index(perm, ipow + (0 if inverse else 2)),
                    phased_row_index(perm, ipow + 3)])
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _letter_rows(ctx: RepContext, j: int, inverse: bool) -> np.ndarray:
    """_rule_rows for G_j: their sum is 2 R_j X (or 2 R_j^(-1) X)."""
    return _rule_rows(*exchange_table(ctx, j), inverse)


@lru_cache(maxsize=None)
def _move_columns(ctx: RepContext) -> np.ndarray:
    """_rule_rows (M, 4, 4, d) into signed_rows(X^T) for the M moves R_1,
    R_1^(-1), R_2, ...: their sums are 2 (X R)^T.  X R_j = ((1+i)/2)(X - X G_j)
    and (X G_j)^T = G_j^T X^T, where G_j^T is the phased permutation
    (perm, ipow[perm]) because perm is an involution."""
    tables = [exchange_table(ctx, j) for j in range(1, ctx.generator_count + 1)]
    idx = np.stack([_rule_rows(perm, ipow[perm], inverse)
                    for perm, ipow in tables for inverse in (False, True)])
    idx.flags.writeable = False
    return idx


def expand_moves(ctx: RepContext, stack: MatrixStack) -> MatrixStack:
    """Row i * M + m is stack[i] @ (move m), the M moves in the order of
    _move_columns, as one gather of signed columns; it equals
    stack @ braid_generator(ctx, j) or its inverse row by row when each
    row X has X = X P for the unit P of the form."""
    idx = _move_columns(ctx)
    _check_int64(4 * stack._maxabs())
    rows = signed_rows(stack.planes.swapaxes(-1, -2))
    out = np.take(rows, idx[:, 0], axis=1)
    for t in range(1, 4):
        out += np.take(rows, idx[:, t], axis=1)
    return MatrixStack.normalized(out.swapaxes(-1, -2).reshape(-1, *stack.planes.shape[1:]),
                                  np.repeat(stack.k + 1, len(idx)))


def _apply_letter(idx: np.ndarray, out: DenseMatrix) -> DenseMatrix:
    """R_j @ out by the letter rule: R_j = ((1+i)/2)(I - G_j) and
    R_j^(-1) = ((1-i)/2)(I + G_j), where G_j @ out is a phased row
    permutation of out, so the product is one gather of signed rows.

    In projected form out = P X for the projector P, and since G_j commutes
    with P, (R_j P) @ out = R_j @ out: one rule serves all three forms.
    """
    _check_int64(4 * out._maxabs)
    return DenseMatrix(signed_rows(out.planes)[idx].sum(axis=0), out.k + 1)


@lru_cache(maxsize=None)
def rep_identity(ctx: RepContext) -> DenseMatrix:
    """The unit of the representation: I, or the projector in projected form."""
    if ctx.form == "projected":
        return projector(ctx.n_qubits + 1, ctx.parity)
    return DenseMatrix.identity(ctx.dim)


def eval_word(ctx: RepContext, word: BraidWord | str | list) -> DenseMatrix:
    """Left-to-right product of the generators named by the word, formed
    from the right by the letter rule (no matrix product)."""
    word = as_word(word)
    if word.max_index() > ctx.generator_count:
        raise IndexError("word uses a generator outside the context range")
    out = rep_identity(ctx)
    for j, e in reversed(word.letters):
        idx = _letter_rows(ctx, j, e < 0)
        for _ in range(abs(e)):
            out = _apply_letter(idx, out)
    return out


def as_word(word) -> BraidWord:
    if isinstance(word, BraidWord):
        return word
    if isinstance(word, str):
        return BraidWord.from_text(word)
    return BraidWord(tuple(word))


def monodromy_word(i: int, j: int) -> BraidWord:
    """A_ij = R_{j-1}^-1 ... R_{i+1}^-1 R_i^2 R_{i+1} ... R_{j-1}."""
    if not i < j:
        raise IndexError("monodromy needs i < j")
    down = tuple((r, -1) for r in range(j - 1, i, -1))
    up = tuple((r, 1) for r in range(i + 1, j))
    return BraidWord(down + ((i, 2),) + up)


def monodromy(ctx: RepContext, i: int, j: int) -> DenseMatrix:
    """The elementary monodromy generator A_ij, strand j looping strand i."""
    if not 1 <= i < j <= ctx.strands:
        raise IndexError("need 1 <= i < j <= number of strands")
    return eval_word(ctx, monodromy_word(i, j))


def monodromy_closed_form(ctx: RepContext, k: int, l: int) -> DenseMatrix:
    """Closed form A_kl = i (-1)^(l-k) gamma_k gamma_l (projected per ctx)."""
    if not 1 <= k < l <= ctx.strands:
        raise IndexError("need 1 <= k < l <= number of strands")
    m = ctx.n_qubits + 1
    mat = (gamma(m, k) @ gamma(m, l)).scale(I_UNIT)
    if (l - k) % 2:
        mat = -mat
    if ctx.form == "unprojected":
        return mat
    mat = mat @ projector(m, ctx.parity)
    if ctx.form == "projected":
        return mat
    return compress_matrix(mat, ctx.n_qubits, ctx.parity)


def square_formulas(ctx: RepContext) -> list[tuple[int, PauliElement]]:
    """For each generator j, the Pauli element its square equals in the
    compressed representation (sign depends on the parity sector for the
    last two generators)."""
    if not ctx.compressed:
        raise ValueError("square formulas are stated on the compressed form")
    n = ctx.n_qubits
    out = []
    for i in range(1, n + 1):
        out.append((2 * i - 1, PauliElement.single(n, i, 3)))
    for i in range(1, n):
        out.append((2 * i, PauliElement.single(n, i, 2) * PauliElement.single(n, i + 1, 2)))
    # (R_2n)^2 = -+ sigma3^(n-1 factors) x sigma1 and (R_2n+1)^2 = +- sigma3^n
    tail = PauliElement.single(n, n, 1)
    for q in range(1, n):
        tail = PauliElement.single(n, q, 3) * tail
    if ctx.parity == 1:
        tail = PauliElement(tail.m + 2, tail.v)
    out.append((2 * n, tail))
    allz = PauliElement.identity(n)
    for q in range(1, n + 1):
        allz = allz * PauliElement.single(n, q, 3)
    if ctx.parity == -1:
        allz = PauliElement(allz.m + 2, allz.v)
    out.append((2 * n + 1, allz))
    return sorted(out)


def phase_element(ctx: RepContext) -> DenseMatrix:
    """R_2n (R_2n+1)^2 R_2n (R_2n+1)^2, which equals i times the identity
    in the positive-parity sector."""
    if ctx.parity != 1:
        raise ValueError("the phase element identity is stated for positive parity")
    n = ctx.n_qubits
    word = BraidWord(((2 * n, 1), (2 * n + 1, 2), (2 * n, 1), (2 * n + 1, 2)))
    out = eval_word(ctx, word)
    expected = rep_identity(ctx).mul_zeta(2)
    if out != expected:
        raise RuntimeError("phase element did not evaluate to i * identity")
    return out


def phase_word(ctx: RepContext) -> BraidWord:
    n = ctx.n_qubits
    return BraidWord(((2 * n, 1), (2 * n + 1, 2), (2 * n, 1), (2 * n + 1, 2)))


def named_gate(ctx: RepContext, gate: str, qubit: int = 0) -> tuple[BraidWord, DenseMatrix]:
    """Known braid words for specific gates.

    gate is one of "phase" (diag(1, i) on the given qubit), "hadamard_last",
    "cz_pair" (CZ on qubits j, j+1; the printed word exists for n = 2),
    "cz_swap_pair" (the physical exchange of pairs j, j+1, which equals
    i * CZ * SWAP).
    """
    n = ctx.n_qubits
    if gate == "phase":
        if not 1 <= qubit <= n:
            raise IndexError("qubit out of range")
        word = BraidWord(((2 * qubit - 1, 1),))
    elif gate == "hadamard_last":
        word = BraidWord(((2 * n - 1, 2), (2 * n + 1, 1), (2 * n, 1), (2 * n + 1, -1)))
    elif gate == "cz_swap_pair":
        if not 1 <= qubit <= n - 1:
            raise IndexError("qubit pair out of range")
        j = qubit
        word = BraidWord(((2 * j, 1), (2 * j + 1, 1), (2 * j - 1, 1), (2 * j, 1)))
    elif gate == "cz_pair":
        if not 1 <= qubit <= n - 1:
            raise IndexError("qubit pair out of range")
        word = cz_pair_word(ctx, qubit)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return word, eval_word(ctx, word)


def cz_pair_word(ctx: RepContext, j: int) -> BraidWord:
    """A braid word evaluating exactly to CZ on adjacent qubits j, j+1.

    Only possible for two qubits, where it is the three-letter word
    R_1 R_3 R_5^(-1).  For n >= 3 an adjacent-pair CZ sits in the same
    coset of the symplectic quotient as the adjacent-pair SWAP (they
    differ by the pair-exchange braid), and that coset is unreachable,
    so no word exists; reachability() produces the certificate.
    """
    n = ctx.n_qubits
    if not 1 <= j <= n - 1:
        raise IndexError("qubit pair out of range")
    if n == 2:
        return BraidWord(((1, 1), (3, 1), (5, -1)))
    raise ValueError(
        "CZ on an adjacent pair is not braid-reachable for n >= 3 "
        "(same symplectic coset as the unreachable SWAP); "
        "use synth.reachability for the certificate"
    )
