"""Exact enumeration of finite matrix groups by Dimino's inductive closure,
plus the derived order/center/membership queries used to certify the
group-order and reachability claims.

Strict mode enumerates matrices as-is; projective mode enumerates the
phase-stripped canonical forms produced by projective_canonical (multiply
by the z-power that moves the first nonzero entry into the scalar
fundamental domain), so two matrices collide iff they differ by a global
z-power.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import RepContext, braid_generator, eval_word, monodromy_word
from .matrix import DenseMatrix
from .pauli import PauliElement

DEFAULT_CAP = 10 ** 8


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded cap of {cap} elements")
        self.cap = cap


def _strict_mul(a, b):
    return a @ b


def _projective_mul(a, b):
    return (a @ b).projective_canonical()[1]


def dimino(generators, identity, mul=_strict_mul, cap: int = DEFAULT_CAP) -> list:
    """All elements of the group generated by `generators`.

    Inductive closure over an increasing chain of subgroups: close the
    first generator into a cyclic group, then extend by whole cosets for
    each later generator.  Elements must be hashable with exact equality.
    """
    gens = [g for g in generators if g != identity]
    elements = {identity: None}
    order = [identity]

    def push(x):
        if x not in elements:
            if len(elements) >= cap:
                raise EnumerationCapExceeded(cap)
            elements[x] = None
            order.append(x)
            return True
        return False

    if not gens:
        return order

    g = gens[0]
    x = g
    while x != identity:
        push(x)
        x = mul(x, g)

    for i in range(1, len(gens)):
        if gens[i] in elements:
            continue
        prev = list(order)
        rep_queue = [gens[i]]
        push(gens[i])
        for e in prev:
            push(mul(e, gens[i]))
        qi = 0
        while qi < len(rep_queue):
            rep = rep_queue[qi]
            qi += 1
            for s in gens[: i + 1]:
                t = mul(rep, s)
                if t not in elements:
                    rep_queue.append(t)
                    push(t)
                    for e in prev:
                        if e is not identity:
                            push(mul(e, t))
        del prev
    return order


@dataclass(frozen=True)
class GroupEnumeration:
    generators: tuple
    mode: str                    # "strict" | "projective"
    elements: tuple
    keys: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)

    def canonical(self, element):
        if self.mode == "projective":
            return element.projective_canonical()[1]
        return element

    def contains(self, element) -> bool:
        x = self.canonical(element)
        return (x.key() if isinstance(x, DenseMatrix) else x) in self.keys

    def center(self) -> list:
        """Elements commuting with every generator."""
        gens = [self.canonical(g) for g in self.generators]
        out = []
        for x in self.elements:
            if all(_commutes(x, g, self.mode) for g in gens):
                out.append(x)
        return out

    def summary(self) -> dict:
        return {
            "order": self.order,
            "mode": self.mode,
            "center_size": len(self.center()),
            "generator_count": len(self.generators),
        }


def _commutes(x, g, mode) -> bool:
    a, b = x @ g, g @ x
    if mode == "projective":
        a = a.projective_canonical()[1]
        b = b.projective_canonical()[1]
    return a == b


def enumerate_group(generators, mode: str = "strict", cap: int = DEFAULT_CAP,
                    identity=None) -> GroupEnumeration:
    """Enumerate the matrix group generated by `generators`.

    Generators must be square, same-dimensional and unitary; projective
    mode enumerates global-phase classes.
    """
    if mode not in ("strict", "projective"):
        raise ValueError("mode must be strict or projective")
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if isinstance(gens[0], DenseMatrix):
        dim = gens[0].dim
        for g in gens:
            if g.dim != dim:
                raise ValueError("generators must share a dimension")
            if not g.is_unitary():
                raise ValueError("non-unitary generator")
        if identity is None:
            identity = DenseMatrix.identity(dim)
    elif identity is None:
        raise ValueError("identity required for non-DenseMatrix elements")
    mul = _strict_mul
    if mode == "projective":
        mul = _projective_mul
        gens = [g.projective_canonical()[1] for g in gens]
        identity = identity.projective_canonical()[1]
    elements = dimino(gens, identity, mul, cap)
    keys = frozenset(e.key() if isinstance(e, DenseMatrix) else e for e in elements)
    return GroupEnumeration(tuple(gens), mode, tuple(elements), keys)


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
        return {
            "n": self.n,
            "monodromy_order": self.monodromy_order,
            "pauli_order": self.pauli_order,
            "equal": self.equal,
        }


def monodromy_equals_pauli(n: int, parity: int = 1) -> MonodromyPauliVerdict:
    """Set equality of the monodromy image and the full Pauli group,
    both enumerated as explicit exact matrices."""
    mono = monodromy_image(n, parity)
    pauli = pauli_group_matrices(n)
    return MonodromyPauliVerdict(n, mono.order, pauli.order,
                                 mono.keys == pauli.keys)
