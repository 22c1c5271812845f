import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import BraidWord, RepContext, eval_word
from anyonbraid.gates import cnot_gate, cz_gate, hadamard_gate, swap_gate
from anyonbraid.gf2 import BitMatrix
from anyonbraid.matrix import DenseMatrix
from anyonbraid.pauli import (PauliElement, pauli_basis_decompose, pauli_sparse,
                              pauli_columns, pauli_vector_matrix, qubit_bits,
                              read_term, star_product, symplectic_form)
from anyonbraid.ring import ONE, ZETA, CycScalar
from anyonbraid.symplectic import CliffordAction, NonClifford, clifford_check
from oracles import pauli_term

# reproducible examples, no example database left in the working tree
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def rand_pauli(rng, n, high=False):
    """A random i^m sigma_x; with high, x sets its top bit 2n - 1."""
    return PauliElement(rng.randrange(4), rng.randrange(4 ** n) | high << 2 * n - 1, n)


def test_vector_encoding_matches_matrices():
    from anyonbraid.gamma import SIGMA1, SIGMA2, SIGMA3
    ident = DenseMatrix.identity(2)
    assert pauli_vector_matrix(0b00, 1) == ident
    assert pauli_vector_matrix(0b01, 1) == SIGMA1
    assert pauli_vector_matrix(0b10, 1) == SIGMA2
    assert pauli_vector_matrix(0b11, 1) == SIGMA3.mul_zeta(2)  # i*sigma3


def test_single_qubit_products():
    s1 = PauliElement(0, 0b01, 1)
    s2 = PauliElement(0, 0b10, 1)
    is3 = PauliElement(0, 0b11, 1)
    # sigma1 sigma2 = i sigma3 and sigma2 sigma1 = -i sigma3
    assert s1 * s2 == is3
    assert s2 * s1 == PauliElement(2, 0b11, 1)
    # sigma2 * (i sigma3) = -sigma1 and (i sigma3) * sigma2 = +sigma1:
    # the formula sigma_p sigma_q = (-1)^(p*q) sigma_(p xor q) with the
    # standard Pauli matrices fixes these signs (checked against exact
    # matrix products below)
    assert s2 * is3 == PauliElement(2, 0b01, 1)
    assert is3 * s2 == PauliElement(0, 0b01, 1)
    for a in (s1, s2, is3):
        for b in (s1, s2, is3):
            assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_mul_matches_matrix_mul_random():
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 5):
        for i in range(25):
            a, b = rand_pauli(rng, n, high=i % 2 == 0), rand_pauli(rng, n, high=i % 3 == 0)
            assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_inverse_and_identity():
    rng = random.Random(32)
    for n in (1, 2, 3):
        e = PauliElement.identity(n)
        assert e.to_matrix() == DenseMatrix.identity(2 ** n)
        for _ in range(25):
            a = rand_pauli(rng, n)
            assert a * a.inverse() == e
            assert a.inverse() * a == e


def test_symplectic_form_examples():
    assert symplectic_form(0b01, 0b10) == 1          # sigma1 vs sigma2
    assert symplectic_form(0b11, 0b11) == 0          # omega(p, p) = 0
    assert symplectic_form(0b0001, 0b1000) == 0      # disjoint support
    with pytest.raises(ValueError):
        PauliElement(0, 0b01, 1) * PauliElement(0, 0b01, 2)
    with pytest.raises(ValueError):
        PauliElement(0, 0b100, 1)                    # wider than 2n bits


def test_symplectic_form_detects_commutation():
    rng = random.Random(33)
    for n in (1, 2, 3, 4, 5):
        zero = DenseMatrix.zeros(2 ** n)
        for i in range(25):
            a, b = rand_pauli(rng, n, high=i % 2 == 0), rand_pauli(rng, n, high=i % 3 == 0)
            ma, mb = a.to_matrix(), b.to_matrix()
            commutes = (ma @ mb - mb @ ma) == zero
            assert commutes == (symplectic_form(a.x, b.x) == 0)
            assert a.commutes_with(b) == commutes


def test_star_product_convention():
    # p*q = sum_i p_(2i+1) q_(2i), bits counted from 0
    assert star_product(0b10, 0b01) == 1
    assert star_product(0b01, 0b10) == 0
    assert star_product(0b10 << 8, 0b01 << 8) == 1


def test_single_constructor():
    s3 = PauliElement.single(1, 1, 3)
    from anyonbraid.gamma import SIGMA3
    assert s3.to_matrix() == SIGMA3
    s2q2 = PauliElement.single(3, 2, 2)
    assert s2q2.x == 0b001000
    with pytest.raises(IndexError):
        PauliElement.single(2, 3, 1)


def test_decomposition_roundtrip():
    rng = random.Random(34)
    for n in (1, 2):
        terms = {}
        for _ in range(3):
            v = rng.randrange(4 ** n)
            c = CycScalar(rng.randint(-3, 3), rng.randint(-3, 3),
                          rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 2))
            if not c.is_zero():
                terms[v] = terms.get(v, CycScalar(0)) + c
        mat = DenseMatrix.zeros(2 ** n)
        for v, c in terms.items():
            mat = mat + pauli_vector_matrix(v, n).scale(c)
        got = dict(pauli_basis_decompose(mat))
        want = {v: c for v, c in terms.items() if not c.is_zero()}
        assert got == want


def t_gate(n: int, qubit: int) -> DenseMatrix:
    """diag(1, z) on one qubit; not a Clifford gate."""
    t = DenseMatrix.from_entries([[ONE, 0], [0, ZETA]])
    mats = [t if q == qubit else DenseMatrix.identity(2) for q in range(1, n + 1)]
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


@st.composite
def braid_unitaries(draw, max_qubits=4):
    """A random braid word of either parity, optionally followed by a T gate."""
    n = draw(st.integers(1, max_qubits))
    ctx = RepContext(n, draw(st.sampled_from((1, -1))))
    letters = draw(st.lists(st.tuples(st.integers(1, ctx.generator_count),
                                      st.sampled_from((1, -1))), max_size=12))
    u = eval_word(ctx, BraidWord(tuple(letters)))
    qubit = draw(st.integers(0, n))
    return u @ t_gate(n, qubit) if qubit else u


def clifford_check_by_expansion(u: DenseMatrix):
    """The Pauli-basis expansion loop that clifford_check replaced: the oracle."""
    n = u.dim.bit_length() - 1
    udag = u.dagger()
    cols, phases = [], []
    for g in range(2 * n):
        v = 1 << g
        terms = pauli_basis_decompose(u @ pauli_vector_matrix(v, n) @ udag)
        if len(terms) != 1:
            return NonClifford(n, v, tuple((tv, c.to_list()) for tv, c in terms))
        tv, c = terms[0]
        m = c.ipower()
        if m is None:
            return NonClifford(n, v, ((tv, c.to_list()),))
        cols.append(tv)
        phases.append(m)
    s = BitMatrix(2 * n, tuple(
        sum((cols[g] >> i & 1) << g for g in range(2 * n)) for i in range(2 * n)
    ))
    return CliffordAction(s, tuple(phases))


@EXACT
@given(braid_unitaries())
def test_pauli_term_agrees_with_expansion(u):
    n = u.dim.bit_length() - 1
    udag = u.dagger()
    for g in range(2 * n):
        v = 1 << g
        u_sigma = u @ pauli_vector_matrix(v, n)
        assert DenseMatrix(pauli_columns(u, [v])[0], u.k) == u_sigma
        w = u_sigma @ udag
        terms = pauli_basis_decompose(w)
        assert pauli_term(w) == (terms[0] if len(terms) == 1 else None)


@EXACT
@given(braid_unitaries())
def test_clifford_check_matches_expansion_oracle(u):
    assert clifford_check(u) == clifford_check_by_expansion(u)


@EXACT
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 4 ** n - 1),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(0, 3))))
def test_pauli_term_reads_scaled_paulis(data):
    n, x, coeffs, k = data
    c = CycScalar(*coeffs, k)
    got = pauli_term(pauli_vector_matrix(x, n).scale(c))
    assert got == (None if c.is_zero() else (x, c))


def test_pauli_term_rejects_non_terms():
    h = hadamard_gate(1, 1)
    not_terms = [
        DenseMatrix.identity(2) + pauli_vector_matrix(0b11, 1),     # two terms
        DenseMatrix.from_entries([[ONE, 0], [0, ZETA]]),             # diag(1, z)
        DenseMatrix.from_entries([[0, 0], [0, 1]]),                  # row 0 zero
        DenseMatrix.zeros(4),
        h,                                                           # row 0 has two entries
        cz_gate(2, 1, 2),             # passes the per-qubit reading, fails row 3
        swap_gate(2, 1, 2),                                          # monomial, not Pauli
        DenseMatrix.from_entries([[0, 1], [1, 1]]),                  # sigma1 plus an entry
        h @ pauli_vector_matrix(0b01, 1) @ h.dagger() + pauli_vector_matrix(0b01, 1),
    ]
    for mat in not_terms:
        assert pauli_term(mat) is None
        assert len(pauli_basis_decompose(mat)) != 1
    with pytest.raises(ValueError):
        pauli_term(DenseMatrix.identity(3))


def pauli_sparse_by_loop(x, n):
    """The per-row loop that built the sparse Pauli tables: the oracle."""
    perm, ipow = [], []
    for r in range(2 ** n):
        c, e = r, 0
        for q in range(n):
            b1, b2 = (x >> 2 * q) & 1, (x >> 2 * q + 1) & 1
            bit = (r >> (n - 1 - q)) & 1
            if b1 and b2:        # i*sigma3: diag(i, -i)
                e += 1 if bit == 0 else 3
            elif b1:             # sigma1: flip
                c ^= 1 << (n - 1 - q)
            elif b2:             # sigma2: row 0 -> -i at col 1, row 1 -> i at col 0
                e += 3 if bit == 0 else 1
                c ^= 1 << (n - 1 - q)
        perm.append(c)
        ipow.append(e % 4)
    return perm, ipow


def test_pauli_sparse_matches_loop():
    for n in (1, 2, 3):
        for x in range(4 ** n):
            perm, ipow = pauli_sparse(x, n)
            assert (perm.tolist(), ipow.tolist()) == pauli_sparse_by_loop(x, n)


def clifford_check_by_dense_products(u: DenseMatrix):
    """The per-generator reader clifford_check replaced: W = (U sigma_g) U^dagger
    as two dense products, read by pauli_term.  The oracle."""
    if not u.is_unitary():
        raise ValueError("input is not unitary")
    n = u.dim.bit_length() - 1
    udag = u.dagger()
    cols, phases = [], []
    for g in range(2 * n):
        v = 1 << g
        w = u @ pauli_vector_matrix(v, n) @ udag
        term = pauli_term(w)
        if term is None:
            return NonClifford(n, v, tuple((tv, c.to_list()) for tv, c in pauli_basis_decompose(w)))
        tv, c = term
        m = c.ipower()
        if m is None:
            return NonClifford(n, v, ((tv, c.to_list()),))
        cols.append(tv)
        phases.append(m)
    s = BitMatrix(2 * n, tuple(
        sum((cols[g] >> i & 1) << g for g in range(2 * n)) for i in range(2 * n)
    ))
    return CliffordAction(s, tuple(phases))


def failing_stage(u: DenseMatrix) -> str | None:
    """The stage of clifford_check's reading at which the first generator
    whose image is not an i-power Pauli fails, from the full W."""
    n = u.dim.bit_length() - 1
    for g in range(2 * n):
        v = 1 << g
        w = u @ pauli_vector_matrix(v, n) @ u.dagger()
        row0 = [x for x in range(w.dim) if not w.entry(0, x).is_zero()]
        if len(row0) != 1:
            return "row 0"
        col = row0[0]
        bits = qubit_bits(n)
        tv = read_term(w.planes[:, 0, col], w.planes[:, bits, bits ^ col], col)
        if tv is None:
            return "z sign"
        # w[0, col] = i^m sigma_tv[0, col] = i^(m + ipow[0])
        m = w.entry(0, col).ipower()
        if m is None:
            return "i-power"
        m -= int(pauli_sparse(tv, n)[1][0])
        if w != pauli_vector_matrix(tv, n).mul_zeta(2 * m):
            return "confirm"
    return None


def ccz_gate() -> DenseMatrix:
    return DenseMatrix.from_entries([[(-1 if r == c == 7 else 1) if r == c else 0
                                      for c in range(8)] for r in range(8)])


def diagonal_gate(phases) -> DenseMatrix:
    """diag(z^e) for the listed exponents."""
    d = len(phases)
    return DenseMatrix.from_entries([[ONE.mul_zeta(phases[r]) if r == c else 0
                                      for c in range(d)] for r in range(d)])


# U, and the stage at which its first offending generator fails
STAGED_INPUTS = (
    # H T: H T X T^dagger H = (Z - Y)/sqrt(2), two entries in row 0
    (lambda: hadamard_gate(1, 1) @ t_gate(1, 1), "row 0"),
    # T X T^dagger = [[0, z^-1], [z, 0]]: z is not +-z^-1
    (lambda: t_gate(1, 1), "z sign"),
    # C X1X2X3 C^dagger with C = diag(z^[popcount(r) <= 1]) is D X1X2X3,
    # D = diag(z, z, z, z^-1, z, z^-1, z^-1, z^-1): the reading passes, c = z
    (lambda: diagonal_gate([int(bin(r).count("1") <= 1) for r in range(8)])
     @ cnot_gate(3, 1, 2) @ cnot_gate(3, 1, 3), "i-power"),
    # H1 CCZ: X1 goes to Z1 CZ23, read as Z1 from rows 0, 4, 2, 1
    (lambda: hadamard_gate(3, 1) @ ccz_gate(), "confirm"),
)


@pytest.mark.parametrize("make, stage", STAGED_INPUTS, ids=[s for _, s in STAGED_INPUTS])
def test_clifford_check_fails_at_each_stage(make, stage):
    u = make()
    assert failing_stage(u) == stage
    got = clifford_check(u)
    assert isinstance(got, NonClifford)
    assert got == clifford_check_by_dense_products(u)
    assert got == clifford_check_by_expansion(u)


@st.composite
def mixed_unitaries(draw, max_qubits=3):
    """Products of braid words with T, H and (at n = 3) CCZ factors."""
    n = draw(st.integers(1, max_qubits))
    ctx = RepContext(n, draw(st.sampled_from((1, -1))))
    u = DenseMatrix.identity(2 ** n)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("word", "word", "t", "h", "ccz")))
        if kind == "word":
            letters = draw(st.lists(st.tuples(st.integers(1, ctx.generator_count),
                                              st.sampled_from((1, -1))), max_size=8))
            u = u @ eval_word(ctx, BraidWord(tuple(letters)))
        elif kind == "t":
            u = u @ t_gate(n, draw(st.integers(1, n)))
        elif kind == "h":
            u = u @ hadamard_gate(n, draw(st.integers(1, n)))
        elif n == 3:
            u = u @ ccz_gate()
    return u


@EXACT
@given(st.one_of(braid_unitaries(), mixed_unitaries()))
def test_clifford_check_matches_dense_product_reader(u):
    assert clifford_check(u) == clifford_check_by_dense_products(u)


def test_witness_expansion_leaves_the_pauli_cache_small():
    """A non-Clifford witness expands in all 4^n Paulis without caching
    their tables: after T on qubit 1 at n = 5 the pauli_sparse cache holds
    at most the 4n entries that clifford_check itself reads (not 4^n)."""
    n = 5
    d = 1 << n
    t = DenseMatrix.phased_permutation(np.arange(d), (np.arange(d) >> (n - 1)) & 1)
    pauli_sparse.cache_clear()
    verdict = clifford_check(t)
    assert isinstance(verdict, NonClifford) and len(verdict.expansion) == 2
    assert pauli_sparse.cache_info().currsize <= 4 * n
