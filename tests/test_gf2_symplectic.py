import itertools
import random
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import RepContext, braid_generator, eval_word
from anyonbraid.gates import cz_gate, hadamard_gate, phase_gate, swap_gate
from anyonbraid.gf2 import BitMatrix, StabiliserChain, is_symplectic, omega_matrix
from anyonbraid.groups import EnumerationCapExceeded, dimino
from anyonbraid.matrix import DenseMatrix
from anyonbraid.pauli import PauliElement
from anyonbraid.ring import CycScalar
from anyonbraid.symplectic import (CliffordAction, NonClifford, basis_change_t,
                                   braid_symplectic, clifford_check,
                                   faithfulness_check, group_orders, sp_order,
                                   symplectic_subgroup, tilde_basis, tilde_printed)
from oracles import sp_bruteforce_order


def rand_bitmatrix(rng, n):
    while True:
        m = BitMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
        try:
            m.inverse()
        except ZeroDivisionError:
            continue
        return m


def test_bitmatrix_roundtrips():
    rng = random.Random(51)
    for n in (2, 4, 6):
        for _ in range(20):
            a = rand_bitmatrix(rng, n)
            bits = [[int(c) for c in s] for s in a.to_bitstrings()]
            assert bits == [[a.entry(i, j) for j in range(n)] for i in range(n)]
            assert BitMatrix.from_rows(bits) == a
            assert a.transpose().transpose() == a
            assert a @ a.inverse() == BitMatrix.identity(n)
            b = rand_bitmatrix(rng, n)
            assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_bitmatrix_mul_matches_naive():
    rng = random.Random(52)
    for _ in range(20):
        a, b = rand_bitmatrix(rng, 4), rand_bitmatrix(rng, 4)
        prod = a @ b
        for i in range(4):
            for j in range(4):
                want = sum(a.entry(i, k) * b.entry(k, j) for k in range(4)) & 1
                assert prod.entry(i, j) == want


def test_bitmatrix_mul_vec_matches_naive():
    rng = random.Random(53)
    for size in (2, 6, 16):
        for _ in range(20):
            a, v = rand_bitmatrix(rng, size), rng.randrange(1 << size)
            want = sum((sum(a.entry(i, k) * ((v >> k) & 1) for k in range(size)) & 1) << i
                       for i in range(size))
            assert a.mul_vec(v) == want


def test_omega_matrix():
    m = omega_matrix(2)
    assert m.to_bitstrings() == ["0100", "1000", "0001", "0010"]
    assert is_symplectic(BitMatrix.identity(4))
    assert is_symplectic(m)


def test_sp_order_formula():
    assert sp_order(1, 2) == 6
    assert sp_order(2, 2) == 720
    assert sp_order(3, 2) == 1451520
    assert sp_order(2, 3) == 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)


def test_sp_order_matches_bruteforce():
    t0 = time.perf_counter()
    assert sp_bruteforce_order(1) == 6
    assert sp_bruteforce_order(2) == 720
    assert time.perf_counter() - t0 <= 10.0


def test_group_orders_table():
    o1 = group_orders(1)
    assert (o1.pauli, o1.projective_clifford, o1.braid_image,
            o1.braid_image_mod_center) == (16, 24, 96, 24)
    o2 = group_orders(2)
    assert (o2.projective_clifford, o2.braid_image, o2.braid_image_mod_center) == \
        (11520, 46080, 11520)
    o3 = group_orders(3)
    assert o3.projective_clifford == 92897280
    assert o3.braid_image == 2 ** 8 * 40320 == 10321920
    assert o3.braid_image_mod_center == 2580480
    assert group_orders(2).projective_pauli == 16


def test_clifford_check_hadamard():
    act = clifford_check(hadamard_gate(1, 1))
    assert isinstance(act, CliffordAction)
    # sigma1 <-> sigma3 swap: column of e1 is (1,1) (sigma3 class), and
    # H sigma2 H = -sigma2 keeps the second column
    assert act.s == BitMatrix.from_rows([[1, 0], [1, 1]])
    s1 = PauliElement(0, 0b01, 1).to_matrix()
    h = hadamard_gate(1, 1)
    img = h @ s1 @ h.dagger()
    assert img == PauliElement(act.f[0], 0b11, 1).to_matrix()


def test_clifford_check_phase_gate():
    act = clifford_check(phase_gate(1, 1))
    assert isinstance(act, CliffordAction)
    assert act.s == BitMatrix.from_rows([[0, 1], [1, 0]])  # sigma1 <-> sigma2


def test_clifford_check_rejects_t_gate():
    t = DenseMatrix.from_entries([[1, 0], [0, CycScalar(0, 1, 0, 0)]])
    verdict = clifford_check(t)
    assert isinstance(verdict, NonClifford)
    assert verdict.generator == 0b01
    assert len(verdict.expansion) == 2


def test_clifford_check_requires_unitary():
    with pytest.raises(ValueError):
        clifford_check(DenseMatrix.from_entries([[1, 1], [0, 1]]))


def test_kernel_property_paulis_map_to_identity():
    rng = random.Random(53)
    for n in (1, 2, 3):
        ident = BitMatrix.identity(2 * n)
        for _ in range(10):
            p = PauliElement(rng.randrange(4), rng.randrange(4 ** n), n)
            act = clifford_check(p.to_matrix())
            assert isinstance(act, CliffordAction)
            assert act.s == ident


def test_homomorphism_on_braid_words():
    rng = random.Random(54)
    for n in (1, 2):
        ctx = RepContext(n)
        for _ in range(20):
            wa = [(rng.randrange(1, 2 * n + 2), rng.choice((1, -1)))
                  for _ in range(rng.randrange(1, 6))]
            wb = [(rng.randrange(1, 2 * n + 2), rng.choice((1, -1)))
                  for _ in range(rng.randrange(1, 6))]
            u, v = eval_word(ctx, wa), eval_word(ctx, wb)
            su = clifford_check(u).s
            sv = clifford_check(v).s
            suv = clifford_check(u @ v).s
            assert suv == su @ sv


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("parity", [1, -1])
def test_braid_symplectic_matches_clifford_check(n, parity):
    ctx = RepContext(n, parity)
    for j in range(1, 2 * n + 2):
        printed = braid_symplectic(n, j)
        assert is_symplectic(printed)
        act = clifford_check(braid_generator(ctx, j))
        assert isinstance(act, CliffordAction)
        assert act.s == printed


def test_braid_symplectic_examples():
    # S_1 has the [[0,1],[1,0]] block in slot 1 for every n
    for n in (1, 2, 3):
        s1 = braid_symplectic(n, 1)
        assert s1.entry(0, 1) == s1.entry(1, 0) == 1
        assert s1.entry(0, 0) == s1.entry(1, 1) == 0
        for r in range(2, 2 * n):
            assert s1.entry(r, r) == 1
    assert braid_symplectic(2, 2).to_bitstrings() == ["1000", "1110", "0010", "1011"]
    assert braid_symplectic(1, 2).to_bitstrings() == ["11", "01"]
    with pytest.raises(IndexError):
        braid_symplectic(2, 6)


def test_basis_change_self_inverse_and_tilde_forms():
    for n in (1, 2, 3):
        t = basis_change_t(n)
        assert t @ t == BitMatrix.identity(2 * n)
        t2, tildes = tilde_basis(n)
        assert t2 == t
        for j in range(1, 2 * n + 2):
            assert tildes[j - 1] == tilde_printed(n, j)
        # tilde-S_j for j <= 2n-1 are elementary transpositions
        for j in range(1, 2 * n):
            perm = tildes[j - 1]
            assert sum(r.bit_count() for r in perm.rows) == 2 * n
            assert perm.entry(j - 1, j) == perm.entry(j, j - 1) == 1
        # tilde-S_2n has the all-ones last column
        last = tildes[2 * n - 1]
        assert all(last.entry(r, 2 * n - 1) == 1 for r in range(2 * n))


def test_tilde_t_not_required_symplectic():
    # the tilde basis change is linear but not symplectic for n >= 2;
    # the subgroup structure is conjugation-invariant anyway
    assert not is_symplectic(basis_change_t(2))


@pytest.mark.parametrize("n,expected", [(1, 6), (2, 720), (3, 40320)])
def test_faithfulness(n, expected):
    v = faithfulness_check(n)
    assert v.subgroup_order == expected
    assert v.ok
    assert len(symplectic_subgroup(n)) == expected
    for s in list(symplectic_subgroup(n))[:50]:
        assert is_symplectic(s)


CHAIN_EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)
DIMINO_CAP = 50_000  # about 0.4 s of GF(2) Dimino


def chain_alphabet(n):
    """The printed S_j and the images of every SWAP and CZ embedding."""
    gens = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)]
    for a, b in itertools.combinations(range(1, n + 1), 2):
        gens += [clifford_check(swap_gate(n, a, b)).s, clifford_check(cz_gate(n, a, b)).s]
    return gens


@st.composite
def generator_subsets(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    alphabet = chain_alphabet(n)
    picks = draw(st.lists(st.integers(0, len(alphabet) - 1), min_size=1, max_size=6,
                          unique=True))
    return n, [alphabet[i] for i in picks]


@CHAIN_EXAMPLES
@given(generator_subsets())
def test_chain_order_equals_dimino(data):
    n, gens = data
    chain = StabiliserChain(gens, 2 * n)
    assert sp_order(n, 2) % chain.order() == 0
    assert all(chain.contains(g) for g in gens)
    try:
        elements = dimino(gens, BitMatrix.identity(2 * n), cap=DIMINO_CAP)
    except EnumerationCapExceeded:
        assert chain.order() > DIMINO_CAP
    else:
        assert chain.order() == len(elements)


def test_chain_contains_matches_enumeration_on_sp4():
    # every element of Sp_4(2), in or out of the group of S_1 and S_3
    whole = dimino(chain_alphabet(2), BitMatrix.identity(4))
    assert len(whole) == sp_order(2, 2)
    small = [braid_symplectic(2, 1), braid_symplectic(2, 3)]
    members = set(dimino(small, BitMatrix.identity(4)))
    chain = StabiliserChain(small, 4)
    assert chain.order() == len(members) < len(whole)
    assert [chain.contains(s) for s in whole] == [s in members for s in whole]
    assert not chain.contains(BitMatrix.identity(2))


@CHAIN_EXAMPLES
@given(st.lists(st.integers(0, len(chain_alphabet(3)) - 1), max_size=12))
def test_chain_contains_matches_symplectic_subgroup(word):
    alphabet = chain_alphabet(3)
    s = BitMatrix.identity(6)
    for i in word:
        s = s @ alphabet[i]
    chain = StabiliserChain(alphabet[:7], 6)
    assert chain.contains(s) == (s in symplectic_subgroup(3))


@pytest.mark.parametrize("n", [4, 5])
def test_chain_orders_match_closed_forms(n):
    braids = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)]
    assert StabiliserChain(braids, 2 * n).order() == factorial(2 * n + 2)
    swap = clifford_check(swap_gate(n, 1, 2)).s
    assert StabiliserChain(braids + [swap], 2 * n).order() == sp_order(n, 2)


@pytest.mark.parametrize("n, words", [(6, 3), (7, 2), (8, 1)])
def test_clifford_check_matches_printed_images_at_large_n(n, words):
    """S of seeded random braid words equals the product of the printed
    S_j at n = 6..8, where clifford_check forms row 0 of every
    U sigma_g U^dagger as one product with the 2n rows as its fixed factor."""
    rng = random.Random(60 + n)
    for i in range(words):
        ctx = RepContext(n, (1, -1)[i % 2])
        word = [(rng.randint(1, 2 * n + 1), rng.choice((1, -1)))
                for _ in range(rng.randint(10, 30))]
        want = BitMatrix.identity(2 * n)
        for j, e in word:
            s_j = braid_symplectic(n, j)
            want = want @ (s_j if e > 0 else s_j.inverse())
        act = clifford_check(eval_word(ctx, word))
        assert isinstance(act, CliffordAction) and act.s == want


@st.composite
def word_pairs(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    ctx = RepContext(n, draw(st.sampled_from((1, -1))))
    words = [tuple(draw(st.lists(st.tuples(st.integers(1, ctx.generator_count),
                                           st.sampled_from((1, -1, 2))), max_size=10)))
             for _ in range(2)]
    return ctx, words


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(word_pairs())
def test_symplectic_image_is_a_homomorphism(case):
    """S_UV = S_U S_V for braid words U, V, in both parity sectors."""
    ctx, (a, b) = case
    s_a, s_b, s_ab = (clifford_check(eval_word(ctx, w)).s for w in (a, b, a + b))
    assert s_ab == s_a @ s_b
