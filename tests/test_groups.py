import hashlib
import itertools
import random

import pytest

from anyonbraid.braid import RepContext, braid_generator, eval_word, phase_word
from anyonbraid.gates import swap_gate
from anyonbraid.groups import (EnumerationCapExceeded, GroupEnumeration, _key_cosets,
                               _key_mul, braid_image, dimino, enumerate_group,
                               monodromy_equals_pauli, monodromy_image,
                               pauli_group_matrices)
from anyonbraid.matrix import DenseMatrix
from anyonbraid.ring import I_UNIT


def strict_mul(a, b):
    return a @ b


def projective_mul(a, b):
    return (a @ b).projective_canonical()[1]


def bfs_closure(generators, identity, mul=strict_mul, cap=10 ** 8) -> list:
    """Plain breadth-first closure; the oracle that dimino is checked against."""
    elements = {identity: None}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = mul(x, g)
                if y not in elements:
                    if len(elements) >= cap:
                        raise EnumerationCapExceeded(cap)
                    elements[y] = None
                    new.append(y)
        frontier = new
    return list(elements)


def bfs_keys(generators, mode="strict", cap=10 ** 8) -> frozenset:
    """Keys of the oracle closure, canonicalised as enumerate_group does."""
    identity = DenseMatrix.identity(generators[0].dim)
    mul = strict_mul
    if mode == "projective":
        generators = [g.projective_canonical()[1] for g in generators]
        identity = identity.projective_canonical()[1]
        mul = projective_mul
    return frozenset(e.key() for e in bfs_closure(generators, identity, mul, cap))


def commutes(x, g, mode) -> bool:
    """The per-element commute test that the stacked center() replaced."""
    a, b = x @ g, g @ x
    if mode == "projective":
        a = a.projective_canonical()[1]
        b = b.projective_canonical()[1]
    return a == b


def center_by_elements(enum) -> list:
    """The center oracle: one commute test per element and generator."""
    gens = [enum.canonical(g) for g in enum.generators]
    return [x for x in enum.elements if all(commutes(x, g, enum.mode) for g in gens)]


def b4_generators():
    ctx = RepContext(1)
    return [braid_generator(ctx, j) for j in (1, 2, 3)]


def test_b4_orders():
    assert braid_image(1, 1, "strict").order == 96
    assert braid_image(1, 1, "projective").order == 24
    assert braid_image(1, -1, "strict").order == 96


def test_dimino_independent_of_generator_order():
    gens = b4_generators()
    orders = set()
    keysets = set()
    for perm in itertools.permutations(range(3)):
        e = enumerate_group([gens[i] for i in perm], mode="strict")
        orders.add(e.order)
        keysets.add(frozenset(e.keys))
    assert orders == {96}
    assert len(keysets) == 1


def test_dimino_agrees_with_bfs_closure():
    gens = b4_generators()
    a = enumerate_group(gens, mode="strict")
    b = bfs_keys(gens, "strict")
    assert a.order == len(b) == 96
    assert a.keys == b
    ap = enumerate_group(gens, mode="projective")
    bp = bfs_keys(gens, "projective")
    assert ap.order == len(bp) == 24
    assert ap.keys == bp


def test_pauli_group_from_squares_and_phase_element():
    # squares of the B_4 generators plus the i*I word generate P_1
    ctx = RepContext(1)
    squares = [eval_word(ctx, [(j, 2)]) for j in (1, 2, 3)]
    phase = eval_word(ctx, phase_word(ctx))
    enum = enumerate_group(squares + [phase], mode="strict")
    assert enum.order == 16
    assert enum.keys == pauli_group_matrices(1).keys


def test_enumeration_cap():
    gens = b4_generators()
    with pytest.raises(EnumerationCapExceeded):
        enumerate_group(gens, mode="strict", cap=50)
    with pytest.raises(EnumerationCapExceeded):
        bfs_keys(gens, "strict", cap=50)
    # the cap is the largest order that enumerates
    for mode, order in (("strict", 96), ("projective", 24)):
        assert enumerate_group(gens, mode=mode, cap=order).order == order
        with pytest.raises(EnumerationCapExceeded):
            enumerate_group(gens, mode=mode, cap=order - 1)


def test_dimino_rejects_a_coset_that_overlaps_stored_elements():
    # blocks are pushed without a membership test; an element already
    # stored, or one element twice in a block, must raise, not shrink the order
    keys = [g.key() for g in b4_generators()]
    ident = DenseMatrix.identity(2).key()
    assert len(dimino(keys, ident, _key_mul(False), cosets=_key_cosets(False))) == 96

    def stale(prev):
        coset = _key_cosets(False)(prev)
        return lambda t: [*coset(t), [prev[0]]]

    def doubled(prev):
        coset = _key_cosets(False)(prev)
        return lambda t: [block + block[-1:] for block in coset(t)]

    for hook in (stale, doubled):
        with pytest.raises(RuntimeError, match="overlaps"):
            dimino(keys, ident, _key_mul(False), cosets=hook)

    # the default hook, one block of `mul` products, on BitMatrix elements:
    # a wrong product that lands in the stored subgroup <g0>
    from anyonbraid.gf2 import BitMatrix
    from anyonbraid.symplectic import braid_symplectic
    gens = [braid_symplectic(2, j) for j in range(1, 6)]
    ident = BitMatrix.identity(4)
    assert len(dimino(gens, ident)) == 720

    def wrong_mul(a, b):
        return a if (a, b) == (gens[0], gens[1]) else a @ b

    with pytest.raises(RuntimeError, match="overlaps"):
        dimino(gens, ident, wrong_mul)


def test_elements_are_built_from_keys():
    # the key-backed elements equal those of the per-element closure over
    # DenseMatrix objects, in the same order, down to hash, entries and _maxabs
    gens = b4_generators()
    for mode, mul in (("strict", strict_mul), ("projective", projective_mul)):
        enum = enumerate_group(gens, mode=mode)
        eager = dimino(enum.generators, enum.canonical(DenseMatrix.identity(2)), mul)
        elements = enum.elements
        assert type(elements) is tuple and enum.elements is elements
        assert len(elements) == enum.order == len(eager)
        for x, y in zip(elements, eager):
            assert x.key() == y.key() and hash(x) == hash(y) and x == y
            assert [x.entry(i, j) for i in range(2) for j in range(2)] == \
                [y.entry(i, j) for i in range(2) for j in range(2)]
            assert x._maxabs == y._maxabs
            assert enum.contains(x)
    # _maxabs is exact, so the overflow guard still sees a large factor
    big = DenseMatrix.from_entries([[1 << 60, 0], [0, 1]])
    for x in braid_image(1, 1, "strict").elements:
        with pytest.raises(ValueError, match="overflow"):
            x @ big


def test_non_invertible_generator_rejected():
    from anyonbraid.gamma import projector
    with pytest.raises(ValueError):
        enumerate_group([projector(1, 1)], mode="strict")


def test_contains_identity_and_phases():
    enum = braid_image(1, 1, "strict")
    assert enum.contains(DenseMatrix.identity(2))
    assert enum.contains(DenseMatrix.identity(2).mul_zeta(2))
    zeta_id = DenseMatrix.identity(2).mul_zeta(1)
    assert not enum.contains(zeta_id)  # zeta*I is not in the strict image
    assert braid_image(1, 1, "projective").contains(zeta_id)


def test_center_of_b4():
    cen = braid_image(1, 1, "strict").center()
    assert len(cen) == 4
    ident = DenseMatrix.identity(2)
    assert set(x.key() for x in cen) == set(
        ident.mul_zeta(2 * m).key() for m in range(4)
    )


@pytest.mark.slow
def test_center_matches_elementwise_oracle():
    for mode in ("strict", "projective"):
        # B_4 and B_6 hold every X_q and Z_q up to phase, so center() tests
        # only their elements z^e sigma_v; the oracle tests every element
        for n in (1, 2):
            for parity in (1, -1):
                enum = braid_image(n, parity, mode)
                assert enum._pauli_keys() is not None
                cen = enum.center()
                assert cen == center_by_elements(enum), (n, mode, parity)
                assert len(cen) == (4 if mode == "strict" else 1)
        # A seeded sample of B_6 over several blocks, with the center and the
        # powers of the first generator, which commute with some generators
        # but not all.  The sample misses some X_q or Z_q, so every element
        # is tested.
        b6 = braid_image(2, 1, mode)
        rng = random.Random(6)
        sample = rng.sample(b6.elements, 2500) + list(b6.elements[:8]) + b6.center()
        enum = GroupEnumeration(b6.generators, mode, dict.fromkeys(x.key() for x in sample))
        assert enum._pauli_keys() is None
        cen = enum.center()
        assert cen == center_by_elements(enum)
        assert len(cen) >= len(b6.center())


def test_center_of_abelian_group_is_everything():
    g = DenseMatrix.from_entries([[1, 0], [0, I_UNIT]])
    enum = enumerate_group([g], mode="strict")
    assert enum.order == 4
    assert enum._pauli_keys() is None
    assert len(enum.center()) == 4


def test_center_without_paulis_scans_every_element():
    # the cyclic group of one braid generator holds no sigma1 of qubit 2, so
    # center() cannot restrict to Pauli candidates; the group is abelian
    gen = braid_generator(RepContext(2), 1)
    for mode in ("strict", "projective"):
        enum = enumerate_group([gen], mode=mode)
        assert enum._pauli_keys() is None
        cen = enum.center()
        assert cen == center_by_elements(enum) == list(enum.elements)


def test_center_of_pauli_group_keeps_phased_paulis():
    # projectively the Pauli group is abelian, so every candidate z^e sigma_v
    # is central; strictly only its four scalars are
    strict = pauli_group_matrices(2)
    proj = enumerate_group(strict.generators, mode="projective")
    assert proj.order == 16 and proj._pauli_keys() is not None
    assert proj.center() == center_by_elements(proj) == list(proj.elements)
    assert strict.center() == center_by_elements(strict)
    assert len(strict.center()) == 4


def test_monodromy_image_is_pauli_group():
    for n in (1, 2):
        verdict = monodromy_equals_pauli(n)
        assert verdict.equal
        assert verdict.monodromy_order == 2 ** (2 * n + 2)
    assert monodromy_equals_pauli(1).pauli_order == 16
    assert monodromy_equals_pauli(2).pauli_order == 64


def test_monodromy_contains_i_identity():
    enum = monodromy_image(2)
    assert enum.contains(DenseMatrix.identity(4).mul_zeta(2))
    assert enum.contains(DenseMatrix.identity(4).mul_zeta(6))


def test_monodromy_elements_have_identity_symplectic_part():
    from anyonbraid.gf2 import BitMatrix
    from anyonbraid.symplectic import CliffordAction, clifford_check
    enum = monodromy_image(1)
    for el in enum.elements:
        act = clifford_check(el)
        assert isinstance(act, CliffordAction)
        assert act.s == BitMatrix.identity(2)


def test_summary_shape():
    enum = braid_image(1, 1, "strict")
    s = enum.summary()
    assert s == {"order": 96, "mode": "strict", "center_size": 4,
                 "generator_count": 3}


def test_b6_contains_swap_projectively():
    enum = braid_image(2, 1, "projective")
    assert enum.order == 11520
    assert enum.contains(swap_gate(2, 1, 2))


def test_b6_strict_order_and_center():
    enum = braid_image(2, 1, "strict")
    assert enum.order == 46080
    cen = enum.center()
    ident = DenseMatrix.identity(4)
    assert set(x.key() for x in cen) == set(
        ident.mul_zeta(2 * m).key() for m in range(4)
    )


# SHA-256 of the B_6 elements in enumeration order, each as dim and k
# (little-endian uint32) and its planes as little-endian int64, captured
# before Dimino's coset step took stacked products
B6_ORDER_DIGESTS = {
    "strict": "f1c9a36115c03afd2c2f0fd08b6ad91032f3ca2faa68347be5b148942e76ee61",
    "projective": "91a91ab25fe6c34dfa79c7c481098d9da081b341b70b755937cb4e9906e71e7d",
}


def test_b6_element_order_is_pinned():
    for mode, digest in B6_ORDER_DIGESTS.items():
        records = b"".join(x.dim.to_bytes(4, "little") + x.k.to_bytes(4, "little")
                           + x.planes.astype("<i8").tobytes()
                           for x in braid_image(2, 1, mode).elements)
        assert hashlib.sha256(records).hexdigest() == digest, mode


def test_group_keys_take_one_byte_per_coefficient():
    """Every coefficient of these groups fits in int8, so each stored key
    is the 8-byte header and 4 d^2 bytes of planes: the store cannot widen
    without this count changing."""
    groups = [braid_image(n, parity, mode) for n in (1, 2) for parity in (1, -1)
              for mode in ("strict", "projective")]
    groups += [monodromy_image(2), pauli_group_matrices(2)]
    for group in groups:
        d = group.generators[0].dim
        assert {len(key) for key in group.keys} == {8 + 4 * d * d}, (d, group.mode)


def test_b6_dimino_agrees_with_bfs():
    ctx = RepContext(2)
    gens = [braid_generator(ctx, j) for j in range(1, 6)]
    assert bfs_keys(gens, "strict") == braid_image(2, 1, "strict").keys


def test_strict_over_projective_is_center_size():
    for n in (1, 2):
        strict = braid_image(n, 1, "strict")
        proj = braid_image(n, 1, "projective")
        assert strict.order == 4 * proj.order
        assert len(strict.center()) == 4


def test_lagrange_sanity():
    for n in (1, 2):
        assert braid_image(n, 1, "strict").order % monodromy_image(n).order == 0
        assert monodromy_image(n).keys <= braid_image(n, 1, "strict").keys


def test_dimino_on_permutation_like_bitmatrices():
    from anyonbraid.gf2 import BitMatrix
    from anyonbraid.symplectic import braid_symplectic
    gens = [braid_symplectic(2, j) for j in range(1, 6)]
    ident = BitMatrix.identity(4)
    a = dimino(gens, ident)
    b = bfs_closure(gens, ident)
    assert len(a) == len(b) == 720
    assert set(a) == set(b)
