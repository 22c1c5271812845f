import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import BraidWord, RepContext, eval_word
from anyonbraid.gates import cz_gate, hadamard_gate, swap_gate
from anyonbraid.gf2 import BitMatrix
from anyonbraid.matrix import DenseMatrix
from anyonbraid.pauli import (PauliElement, pauli_basis_decompose, pauli_term,
                              pauli_vector_matrix, star_product, symplectic_form,
                              times_pauli)
from anyonbraid.ring import ONE, ZETA, CycScalar
from anyonbraid.symplectic import CliffordAction, NonClifford, clifford_check

# reproducible examples, no example database left in the working tree
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def rand_pauli(rng, n):
    return PauliElement(rng.randrange(4), tuple(rng.randrange(2) for _ in range(2 * n)))


def test_vector_encoding_matches_matrices():
    from anyonbraid.gamma import SIGMA1, SIGMA2, SIGMA3
    ident = DenseMatrix.identity(2)
    assert pauli_vector_matrix((0, 0)) == ident
    assert pauli_vector_matrix((1, 0)) == SIGMA1
    assert pauli_vector_matrix((0, 1)) == SIGMA2
    assert pauli_vector_matrix((1, 1)) == SIGMA3.mul_zeta(2)  # i*sigma3


def test_single_qubit_products():
    s1 = PauliElement(0, (1, 0))
    s2 = PauliElement(0, (0, 1))
    is3 = PauliElement(0, (1, 1))
    # sigma1 sigma2 = i sigma3 and sigma2 sigma1 = -i sigma3
    assert s1 * s2 == is3
    assert s2 * s1 == PauliElement(2, (1, 1))
    # sigma2 * (i sigma3) = -sigma1 and (i sigma3) * sigma2 = +sigma1:
    # the formula sigma_p sigma_q = (-1)^(p*q) sigma_(p xor q) with the
    # standard Pauli matrices fixes these signs (checked against exact
    # matrix products below)
    assert s2 * is3 == PauliElement(2, (1, 0))
    assert is3 * s2 == PauliElement(0, (1, 0))
    for a in (s1, s2, is3):
        for b in (s1, s2, is3):
            assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_mul_matches_matrix_mul_random():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a, b = rand_pauli(rng, n), rand_pauli(rng, n)
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
    assert symplectic_form((1, 0), (0, 1)) == 1          # sigma1 vs sigma2
    assert symplectic_form((1, 1), (1, 1)) == 0          # omega(p, p) = 0
    assert symplectic_form((1, 0, 0, 0), (0, 0, 0, 1)) == 0   # disjoint support
    with pytest.raises(ValueError):
        symplectic_form((1, 0), (1, 0, 0, 0))


def test_symplectic_form_detects_commutation():
    rng = random.Random(33)
    for n in (1, 2, 3):
        zero = DenseMatrix.zeros(2 ** n)
        for _ in range(25):
            a, b = rand_pauli(rng, n), rand_pauli(rng, n)
            ma, mb = a.to_matrix(), b.to_matrix()
            commutes = (ma @ mb - mb @ ma) == zero
            assert commutes == (symplectic_form(a.v, b.v) == 0)
            assert a.commutes_with(b) == commutes


def test_star_product_convention():
    # p*q = sum p_2i q_2i-1 in 1-based labels
    assert star_product((0, 1), (1, 0)) == 1
    assert star_product((1, 0), (0, 1)) == 0


def test_single_constructor():
    s3 = PauliElement.single(1, 1, 3)
    from anyonbraid.gamma import SIGMA3
    assert s3.to_matrix() == SIGMA3
    s2q2 = PauliElement.single(3, 2, 2)
    assert s2q2.v == (0, 0, 0, 1, 0, 0)
    with pytest.raises(IndexError):
        PauliElement.single(2, 3, 1)


def test_decomposition_roundtrip():
    rng = random.Random(34)
    for n in (1, 2):
        terms = {}
        for _ in range(3):
            v = tuple(rng.randrange(2) for _ in range(2 * n))
            c = CycScalar(rng.randint(-3, 3), rng.randint(-3, 3),
                          rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 2))
            if not c.is_zero():
                terms[v] = terms.get(v, CycScalar(0)) + c
        mat = DenseMatrix.zeros(2 ** n)
        for v, c in terms.items():
            mat = mat + pauli_vector_matrix(v).scale(c)
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
        v = tuple(1 if b == g else 0 for b in range(2 * n))
        terms = pauli_basis_decompose(u @ pauli_vector_matrix(v) @ udag)
        if len(terms) != 1:
            return NonClifford(v, tuple((tv, c.to_list()) for tv, c in terms))
        tv, c = terms[0]
        m = c.ipower()
        if m is None:
            return NonClifford(v, ((tv, c.to_list()),))
        cols.append(tv)
        phases.append(m)
    s = BitMatrix(2 * n, tuple(
        sum(cols[g][i] << g for g in range(2 * n)) for i in range(2 * n)
    ))
    return CliffordAction(s, tuple(phases))


@EXACT
@given(braid_unitaries())
def test_pauli_term_agrees_with_expansion(u):
    n = u.dim.bit_length() - 1
    udag = u.dagger()
    for g in range(2 * n):
        v = tuple(1 if b == g else 0 for b in range(2 * n))
        u_sigma = u @ pauli_vector_matrix(v)
        assert times_pauli(u, v) == u_sigma
        w = u_sigma @ udag
        terms = pauli_basis_decompose(w)
        assert pauli_term(w) == (terms[0] if len(terms) == 1 else None)


@EXACT
@given(braid_unitaries())
def test_clifford_check_matches_expansion_oracle(u):
    assert clifford_check(u) == clifford_check_by_expansion(u)


@EXACT
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(0, 3))))
def test_pauli_term_reads_scaled_paulis(data):
    v, coeffs, k = data
    c = CycScalar(*coeffs, k)
    got = pauli_term(pauli_vector_matrix(v).scale(c))
    assert got == (None if c.is_zero() else (tuple(v), c))


def test_pauli_term_rejects_non_terms():
    h = hadamard_gate(1, 1)
    not_terms = [
        DenseMatrix.identity(2) + pauli_vector_matrix((1, 1)),      # two terms
        DenseMatrix.from_entries([[ONE, 0], [0, ZETA]]),             # diag(1, z)
        DenseMatrix.from_entries([[0, 0], [0, 1]]),                  # row 0 zero
        DenseMatrix.zeros(4),
        h,                                                           # row 0 has two entries
        cz_gate(2, 1, 2),             # passes the per-qubit reading, fails row 3
        swap_gate(2, 1, 2),                                          # monomial, not Pauli
        DenseMatrix.from_entries([[0, 1], [1, 1]]),                  # sigma1 plus an entry
        h @ pauli_vector_matrix((1, 0)) @ h.dagger() + pauli_vector_matrix((1, 0)),
    ]
    for mat in not_terms:
        assert pauli_term(mat) is None
        assert len(pauli_basis_decompose(mat)) != 1
    with pytest.raises(ValueError):
        pauli_term(DenseMatrix.identity(3))
