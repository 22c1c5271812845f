"""Exact enumeration of finite matrix groups by Dimino's inductive closure,
plus the derived order/center/membership queries used to certify the
group-order and reachability claims.

Strict mode enumerates matrices as-is; projective mode enumerates the
phase-stripped canonical forms produced by projective_canonical (multiply
by the z-power that moves the first nonzero entry into the scalar
fundamental domain), so two matrices collide iff they differ by a global
z-power.

Dimino extends a subgroup H by whole cosets H*t, and H*t is disjoint from
every stored element whenever t is not stored yet (Butler, Fundamental
Algorithms for Permutation Groups, LNCS 559, 1991).  So the closure pushes
each coset as blocks without a membership test per element, and checks
only that the stored count grew by each block's length.

enumerate_group runs over key bytes: a group's elements are stored only
as DenseMatrix.key() bytes, whose planes take the narrowest integer type
that holds each element (one byte per coefficient for the braid images).
Each coset H*t is one stacked product per block of matrix.BLOCK_ROWS
elements of H, stacked straight from the joined keys at their own width,
and a block of products goes back as its keys; only the few products that
find coset representatives build a matrix.  GroupEnumeration.elements
builds the int64 matrices from the keys on first read; order, membership
and the center read keys only.

center() tests a block of candidates against each generator at once,
keeping only the survivors for the next generator.  When the group holds
every single-qubit X and Z up to phase, as the braid images do, only its
elements z^e sigma_v can be central, so center() tests those and no
others.

dimino itself takes any hashable elements, by default with one product
per element; symplectic.symplectic_subgroup closes a BitMatrix group that
way as the test oracle of gf2.StabiliserChain, from which the library
takes GF(2) group orders.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .braid import RepContext, braid_generator, eval_word, monodromy_word
from .matrix import BLOCK_ROWS, DenseMatrix, MatrixStack, matrices_from_keys
from .pauli import PauliElement, pauli_vector_matrix

DEFAULT_CAP = 10 ** 8


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded cap of {cap} elements")
        self.cap = cap


def _strict_mul(a, b):
    return a @ b


def dimino(generators, identity, mul=_strict_mul, cap: int = DEFAULT_CAP,
           cosets=None) -> dict:
    """All elements of the group generated by `generators`, as the keys of
    a dict (values None) in enumeration order.

    Inductive closure over an increasing chain of subgroups, starting
    from the trivial one: each generator extends the group by whole
    cosets, so the first one only adds its powers.  Elements must be
    hashable with exact equality.  `cosets(prev)`, if given, returns a
    function mapping t to the products e*t for e in prev (a nonempty
    list), in order, as an iterable of blocks (lists); by default, and
    while prev is empty, the whole coset is one block of `mul` products.
    A block is pushed without a membership test, so one that holds a
    stored element (or one element twice) raises RuntimeError.
    """
    gens = [g for g in generators if g != identity]
    elements = {identity: None}

    def push(block):
        if len(elements) + len(block) > cap:
            raise EnumerationCapExceeded(cap)
        size = len(elements)
        elements.update(dict.fromkeys(block))
        if len(elements) != size + len(block):
            raise RuntimeError("a Dimino coset overlaps the stored elements")

    for i in range(len(gens)):
        if gens[i] in elements:
            continue
        # the identity, stored first, maps t to t itself
        prev = list(elements)[1:]
        coset = cosets(prev) if cosets and prev else (lambda t: ([mul(e, t) for e in prev],))
        reps = []

        def add_coset(t):
            reps.append(t)
            push([t])
            for block in coset(t):
                push(block)

        add_coset(gens[i])
        for rep in reps:  # grows while it is read
            for s in gens[: i + 1]:
                t = mul(rep, s)
                if t not in elements:
                    add_coset(t)
        del prev, coset
    return elements


def _key_mul(projective: bool):
    """Product of two matrices given and returned as keys."""
    def mul(a, b):
        x, y = matrices_from_keys([a, b])
        xy = x @ y
        return (xy.projective_canonical()[1] if projective else xy).key()
    return mul


def _key_cosets(projective: bool):
    """The coset hook of dimino over keys: each block of BLOCK_ROWS elements
    of prev times t is one stacked product, returned as its keys."""
    def cosets(prev):
        stack = MatrixStack.from_keys(prev)
        blocks = [stack[s:s + BLOCK_ROWS] for s in range(0, len(stack), BLOCK_ROWS)]

        def coset(t):
            (tm,) = matrices_from_keys([t])
            for block in blocks:
                x = block @ tm
                yield (x.projective_canonical()[1] if projective else x).keys()
        return coset
    return cosets


class GroupEnumeration:
    """An enumerated group of DenseMatrix elements: its generators
    (canonical in projective mode), its mode ("strict" or "projective") and
    the keys (DenseMatrix.key()) of its elements, held once as the set-like,
    ordered view `keys` of the dict that dimino returns (enumeration
    order); `elements` builds the matrices on first read."""

    __slots__ = ("generators", "mode", "keys", "_elements")

    def __init__(self, generators, mode: str, ordered: dict):
        self.generators = tuple(generators)
        self.mode = mode
        self.keys = ordered.keys()
        self._elements = None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(matrices_from_keys(list(self.keys)))
        return self._elements

    @property
    def order(self) -> int:
        return len(self.keys)

    def canonical(self, element):
        if self.mode == "projective":
            return element.projective_canonical()[1]
        return element

    def contains(self, element) -> bool:
        return self.canonical(element).key() in self.keys

    def _stored_keys(self, m: DenseMatrix) -> list[bytes]:
        """Keys under which a z-power multiple of m would be stored."""
        if self.mode == "projective":
            return [self.canonical(m).key()]
        return [m.mul_zeta(e).key() for e in range(8)]

    def _pauli_keys(self) -> frozenset | None:
        """Keys of every z^e sigma_v when keys holds a z-power multiple of
        each single-qubit X_q and Z_q, else None."""
        if not self.generators:
            return None
        dim = self.generators[0].dim
        n = dim.bit_length() - 1
        if dim != 1 << n:
            return None
        for q in range(1, n + 1):
            for axis in (1, 3):
                single = PauliElement.single(n, q, axis).to_matrix()
                if self.keys.isdisjoint(self._stored_keys(single)):
                    return None
        return frozenset(k for x in range(4 ** n)
                         for k in self._stored_keys(pauli_vector_matrix(x, n)))

    def center(self) -> list:
        """Elements commuting with every generator (up to a global phase in
        projective mode), in the order of `elements`.

        When the group holds a z-power multiple of every X_q and Z_q, a
        central element commutes (up to phase) with every Pauli and so is
        z^e sigma_v: only those elements are tested.  Otherwise every
        element is.  Each block of candidates is stacked from its keys and
        tested against one generator at a time, and only its survivors
        meet the next one."""
        gens = [self.canonical(g) for g in self.generators]
        paulis = self._pauli_keys()
        candidates = (list(self.keys) if paulis is None
                      else [k for k in self.keys if k in paulis])
        out = []
        for start in range(0, len(candidates), BLOCK_ROWS):
            block = candidates[start:start + BLOCK_ROWS]
            x, keep = MatrixStack.from_keys(block), np.arange(len(block))
            for g in gens:
                a, b = x @ g, x.premul(g)
                if self.mode == "projective":
                    a, b = a.projective_canonical()[1], b.projective_canonical()[1]
                same = a.rows_equal(b)
                x, keep = x[same], keep[same]
                if not len(keep):
                    break
            out.extend(block[i] for i in keep.tolist())
        return matrices_from_keys(out)

    def summary(self) -> dict:
        return {
            "order": self.order,
            "mode": self.mode,
            "center_size": len(self.center()),
            "generator_count": len(self.generators),
        }


def enumerate_group(generators, mode: str = "strict",
                    cap: int = DEFAULT_CAP) -> GroupEnumeration:
    """Enumerate the DenseMatrix group generated by `generators`, over
    their keys.

    Generators must be square, same-dimensional and unitary; projective
    mode enumerates global-phase classes.
    """
    if mode not in ("strict", "projective"):
        raise ValueError("mode must be strict or projective")
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise ValueError("generators must share a dimension")
        if not g.is_unitary():
            raise ValueError("non-unitary generator")
    identity = DenseMatrix.identity(dim)
    projective = mode == "projective"
    if projective:
        gens = [g.projective_canonical()[1] for g in gens]
        identity = identity.projective_canonical()[1]
    ordered = dimino([g.key() for g in gens], identity.key(), _key_mul(projective), cap,
                     _key_cosets(projective))
    return GroupEnumeration(gens, mode, ordered)


@lru_cache(maxsize=None)
def braid_image(n: int, parity: int = 1, mode: str = "strict") -> GroupEnumeration:
    """Enumeration of the image of the braid group on 2n+2 strands in the
    compressed n-qubit representation."""
    ctx = RepContext(n, parity)
    gens = [braid_generator(ctx, j) for j in range(1, ctx.generator_count + 1)]
    return enumerate_group(gens, mode=mode)


@lru_cache(maxsize=None)
def monodromy_image(n: int, parity: int = 1) -> GroupEnumeration:
    """Enumeration of the monodromy subgroup image <A_ij> (word forms)."""
    ctx = RepContext(n, parity)
    gens = [eval_word(ctx, monodromy_word(i, j))
            for i in range(1, ctx.strands) for j in range(i + 1, ctx.strands + 1)]
    return enumerate_group(gens, mode="strict")


@lru_cache(maxsize=None)
def pauli_group_matrices(n: int) -> GroupEnumeration:
    """Enumeration of <sigma1^(q), sigma2^(q), i*I> as explicit matrices."""
    gens = [PauliElement.single(n, q, axis).to_matrix()
            for q in range(1, n + 1) for axis in (1, 2)]
    gens.append(DenseMatrix.identity(2 ** n).mul_zeta(2))
    return enumerate_group(gens, mode="strict")


@dataclass(frozen=True)
class MonodromyPauliVerdict:
    n: int
    monodromy_order: int
    pauli_order: int
    equal: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def monodromy_equals_pauli(n: int, parity: int = 1) -> MonodromyPauliVerdict:
    """Set equality of the monodromy image and the full Pauli group,
    both enumerated as explicit exact matrices."""
    mono = monodromy_image(n, parity)
    pauli = pauli_group_matrices(n)
    return MonodromyPauliVerdict(n, mono.order, pauli.order,
                                 mono.keys == pauli.keys)
