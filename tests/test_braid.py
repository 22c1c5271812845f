import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import (BraidWord, RepContext, _apply_letter, _gamma_pauli,
                              _letter_rows, braid_generator, braid_generator_inverse,
                              cz_pair_word, eval_word, exchange_table, expand_moves, monodromy,
                              monodromy_closed_form, monodromy_word, named_gate,
                              phase_element, phase_word, rep_identity, square_formulas)
from anyonbraid.gamma import SIGMA1, SIGMA3, compress_matrix, gamma, projector
from anyonbraid.gates import cz_gate, hadamard_gate, phase_gate, swap_gate
from anyonbraid.matrix import DenseMatrix, MatrixStack
from anyonbraid.pauli import PauliElement
from anyonbraid.ring import BRAID_PHASE, CycScalar, I_UNIT

ALL_FORM_CONTEXTS = [
    RepContext(n, parity, form)
    for n in (1, 2, 3)
    for form in ("compressed", "projected", "unprojected")
    for parity in ((1,) if form == "unprojected" else (1, -1))
]


def test_context_validation():
    with pytest.raises(ValueError):
        RepContext(0)
    with pytest.raises(ValueError):
        RepContext(1, 2)
    with pytest.raises(ValueError):
        RepContext(1, 1, "squeezed")
    ctx = RepContext(2, -1, "projected")
    assert ctx.strands == 6 and ctx.generator_count == 5 and ctx.dim == 8


def test_generator_examples_n1():
    ctx = RepContext(1)
    assert braid_generator(ctx, 1) == DenseMatrix.from_entries(
        [[1, 0], [0, I_UNIT]]
    )
    ident = DenseMatrix.identity(2)
    want = (ident + SIGMA1.mul_zeta(2)).scale(BRAID_PHASE)  # (I + i sigma1) prefactor
    assert braid_generator(ctx, 2) == want
    assert braid_generator(ctx, 3) == braid_generator(ctx, 1)


def test_generator_index_errors():
    ctx = RepContext(1)
    with pytest.raises(IndexError):
        braid_generator(ctx, 4)
    with pytest.raises(IndexError):
        eval_word(ctx, "4")


@pytest.mark.parametrize("ctx", ALL_FORM_CONTEXTS, ids=str)
def test_fourth_power_and_unitarity(ctx):
    unit = rep_identity(ctx)
    for j in range(1, ctx.generator_count + 1):
        g = braid_generator(ctx, j)
        assert g @ g @ g @ g == unit
        assert g @ g.dagger() == unit
        assert g @ braid_generator_inverse(ctx, j) == unit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_braid_relations(n):
    for form in ("compressed", "projected", "unprojected"):
        for parity in (1,) if form == "unprojected" else (1, -1):
            ctx = RepContext(n, parity, form)
            for j in range(1, ctx.generator_count):
                a, b = braid_generator(ctx, j), braid_generator(ctx, j + 1)
                assert a @ b @ a == b @ a @ b
            for j in range(1, ctx.generator_count + 1):
                for k in range(j + 2, ctx.generator_count + 1):
                    a, b = braid_generator(ctx, j), braid_generator(ctx, k)
                    assert a @ b == b @ a


def test_eval_word_identities():
    ctx = RepContext(2)
    assert eval_word(ctx, BraidWord()) == rep_identity(ctx)
    assert eval_word(ctx, [(3, 1), (3, -1)]) == rep_identity(ctx)
    assert eval_word(ctx, "2 -2") == rep_identity(ctx)


def test_cz_word():
    ctx = RepContext(2)
    assert eval_word(ctx, "1 3 -5") == cz_gate(2, 1, 2)


def test_word_parsing_roundtrip():
    w = BraidWord.from_text("1 3 -5")
    assert w.letters == ((1, 1), (3, 1), (5, -1))
    assert w.to_text() == "1 3 -5"
    assert BraidWord.from_json(w.to_json()) == w
    assert BraidWord(((2, 3),)).to_text() == "2 2 2"
    assert len(BraidWord(((2, 3), (1, -2)))) == 5
    assert w.inverse().letters == ((5, 1), (3, -1), (1, -1))
    with pytest.raises(ValueError):
        BraidWord(((1, 0),))
    with pytest.raises(ValueError):
        BraidWord.from_text("1 0 2")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unprojected_squares_all_indices(n):
    ctx = RepContext(n, form="unprojected")
    for j in range(1, 2 * n + 2):
        g = braid_generator(ctx, j)
        assert g @ g == (gamma(n + 1, j) @ gamma(n + 1, j + 1)).mul_zeta(-2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("parity", [1, -1])
def test_square_formulas(n, parity):
    ctx = RepContext(n, parity)
    formulas = dict(square_formulas(ctx))
    assert set(formulas) == set(range(1, 2 * n + 2))
    for j, pel in formulas.items():
        assert eval_word(ctx, [(j, 2)]) == pel.to_matrix()


def test_square_formula_values_n2():
    ctx = RepContext(2, 1)
    f = dict(square_formulas(ctx))
    s3_1 = f[1].to_matrix()
    assert s3_1 == SIGMA3.kron(DenseMatrix.identity(2))
    s22 = f[2].to_matrix()
    from anyonbraid.gamma import SIGMA2
    assert s22 == SIGMA2.kron(SIGMA2)
    # (R_2n)^2 = -sigma3^(n-1) x sigma1, (R_2n+1)^2 = +sigma3^n for parity +
    assert f[4].to_matrix() == -(SIGMA3.kron(SIGMA1))
    assert f[5].to_matrix() == SIGMA3.kron(SIGMA3)
    minus = dict(square_formulas(RepContext(2, -1)))
    assert minus[4].to_matrix() == SIGMA3.kron(SIGMA1)
    assert minus[5].to_matrix() == -(SIGMA3.kron(SIGMA3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phase_element(n):
    for form in ("compressed", "projected"):
        ctx = RepContext(n, 1, form)
        assert phase_element(ctx) == rep_identity(ctx).mul_zeta(2)
        el = eval_word(ctx, phase_word(ctx))
        assert el @ el @ el @ el == rep_identity(ctx)
    with pytest.raises(ValueError):
        phase_element(RepContext(n, -1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_last_two_generator_phase_relation(n):
    for ctx in (RepContext(n, 1), RepContext(n, -1), RepContext(n, form="unprojected")):
        r_a = braid_generator(ctx, 2 * n)
        r_b = braid_generator(ctx, 2 * n + 1)
        sq = r_b @ r_b
        assert r_a @ sq @ r_a == sq.mul_zeta(2)


def test_monodromy_examples():
    ctx = RepContext(1)
    r1 = braid_generator(ctx, 1)
    assert monodromy(ctx, 1, 2) == r1 @ r1
    assert monodromy(ctx, 1, 2) == SIGMA3
    un = RepContext(1, form="unprojected")
    assert monodromy(un, 1, 3) == (gamma(2, 1) @ gamma(2, 3)).mul_zeta(2)
    with pytest.raises(IndexError):
        monodromy(ctx, 2, 2)
    with pytest.raises(IndexError):
        monodromy(ctx, 3, 1)


def test_monodromy_word_structure():
    w = monodromy_word(2, 5)
    assert w.letters == ((4, -1), (3, -1), (2, 2), (3, 1), (4, 1))
    assert monodromy_word(3, 4).letters == ((3, 2),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monodromy_closed_form_agrees_with_words(n):
    for form in ("compressed", "unprojected"):
        for parity in (1,) if form == "unprojected" else (1, -1):
            ctx = RepContext(n, parity, form)
            for i in range(1, ctx.strands):
                for j in range(i + 1, ctx.strands + 1):
                    assert monodromy(ctx, i, j) == monodromy_closed_form(ctx, i, j)


def test_projector_commutes_with_products():
    rng = random.Random(41)
    for n in (1, 2):
        for parity in (1, -1):
            proj_ctx = RepContext(n, parity, "projected")
            un_ctx = RepContext(n, form="unprojected")
            p = projector(n + 1, parity)
            for _ in range(10):
                letters = tuple(
                    (rng.randrange(1, 2 * n + 2), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 8))
                )
                assert eval_word(proj_ctx, letters) == eval_word(un_ctx, letters) @ p


def test_compressed_equals_compressed_projected_word():
    rng = random.Random(42)
    for n in (1, 2):
        for parity in (1, -1):
            comp = RepContext(n, parity)
            proj = RepContext(n, parity, "projected")
            for _ in range(10):
                letters = tuple(
                    (rng.randrange(1, 2 * n + 2), rng.choice((1, -1)))
                    for _ in range(rng.randrange(1, 8))
                )
                assert eval_word(comp, letters) == compress_matrix(
                    eval_word(proj, letters), n, parity
                )


def test_b4_degeneracy_negative_parity():
    minus = RepContext(1, -1)
    assert braid_generator(minus, 3) == braid_generator_inverse(minus, 1).mul_zeta(2)


def test_named_gate_phase():
    ctx = RepContext(2)
    word, mat = named_gate(ctx, "phase", 1)
    assert word.to_text() == "1"
    assert mat == phase_gate(2, 1)
    diag = [mat.entry(i, i) for i in range(4)]
    assert diag == [CycScalar(1), CycScalar(1), I_UNIT, I_UNIT]
    word, mat = named_gate(ctx, "phase", 2)
    assert mat == phase_gate(2, 2)
    with pytest.raises(IndexError):
        named_gate(ctx, "phase", 3)


@pytest.mark.parametrize("n", [1, 2])
def test_named_gate_hadamard_last(n):
    ctx = RepContext(n)
    word, mat = named_gate(ctx, "hadamard_last")
    expect = ((2 * n - 1, 2), (2 * n + 1, 1), (2 * n, 1), (2 * n + 1, -1))
    assert word.letters == expect
    t, canon = mat.projective_canonical()
    th, hcanon = hadamard_gate(n, n).projective_canonical()
    assert canon == hcanon  # H up to a zeta power
    assert mat == hadamard_gate(n, n).mul_zeta((t - th) % 8)


def test_named_gate_cz_swap_pair():
    ctx = RepContext(2)
    word, mat = named_gate(ctx, "cz_swap_pair", 1)
    assert word.letters == ((2, 1), (3, 1), (1, 1), (2, 1))
    want = (cz_gate(2, 1, 2) @ swap_gate(2, 1, 2)).mul_zeta(2)
    assert mat == want
    rows = [[mat.mul_zeta(-2).entry(i, j) for j in range(4)] for i in range(4)]
    flat = [[int(s.c0) for s in row] for row in rows]
    assert flat == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]]


def test_named_gate_cz_pair():
    ctx = RepContext(2)
    word, mat = named_gate(ctx, "cz_pair", 1)
    assert word.to_text() == "1 3 -5"
    assert mat == cz_gate(2, 1, 2)
    with pytest.raises(ValueError):
        cz_pair_word(RepContext(3), 1)
    with pytest.raises(ValueError):
        named_gate(ctx, "bell")


def test_pair_exchange_is_i_cz_swap_for_all_adjacent_pairs():
    for n in (2, 3):
        ctx = RepContext(n)
        for j in range(1, n):
            word = BraidWord(((2 * j, 1), (2 * j + 1, 1), (2 * j - 1, 1), (2 * j, 1)))
            got = eval_word(ctx, word)
            want = (cz_gate(n, j, j + 1) @ swap_gate(n, j, j + 1)).mul_zeta(2)
            assert got == want


# -- the gamma-matrix construction as the oracle for the letter rule --------

EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def gamma_generator(ctx: RepContext, j: int, inverse: bool) -> DenseMatrix:
    """R_j^(+-1) = ((1 +- i)/2)(I -+ gamma_j gamma_j+1) built from dense
    gamma-matrix products, then projected and compressed per ctx."""
    m = ctx.n_qubits + 1
    gg = gamma(m, j) @ gamma(m, j + 1)
    ident = DenseMatrix.identity(2 ** m)
    if inverse:
        mat = (ident + gg).scale(BRAID_PHASE.conjugate())
    else:
        mat = (ident - gg).scale(BRAID_PHASE)
    if ctx.form == "unprojected":
        return mat
    mat = mat @ projector(m, ctx.parity)
    if ctx.form == "projected":
        return mat
    return compress_matrix(mat, ctx.n_qubits, ctx.parity)


def gamma_word(ctx: RepContext, word: BraidWord) -> DenseMatrix:
    """The word as a left-to-right product of gamma-built generators."""
    out = rep_identity(ctx)
    for j, e in word.letters:
        for _ in range(abs(e)):
            out = out @ gamma_generator(ctx, j, e < 0)
    return out


@st.composite
def contexts_and_words(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    form = draw(st.sampled_from(("compressed", "projected", "unprojected")))
    ctx = RepContext(n, 1 if form == "unprojected" else draw(st.sampled_from((1, -1))), form)
    letters = draw(st.lists(st.tuples(st.integers(1, ctx.generator_count),
                                      st.sampled_from((1, -1, 2, -3))), max_size=10))
    return ctx, BraidWord(tuple(letters))


@pytest.mark.parametrize("ctx", ALL_FORM_CONTEXTS + [
    RepContext(4, parity, form) for form in ("compressed", "projected")
    for parity in (1, -1)] + [RepContext(4, form="unprojected")], ids=str)
def test_generators_equal_gamma_construction(ctx):
    for j in range(1, ctx.generator_count + 1):
        for inverse, got in ((False, braid_generator(ctx, j)),
                             (True, braid_generator_inverse(ctx, j))):
            want = gamma_generator(ctx, j, inverse)
            assert (got.k, got.planes.tobytes()) == (want.k, want.planes.tobytes())


@EXACT
@given(contexts_and_words())
def test_eval_word_equals_gamma_products(case):
    ctx, word = case
    got, want = eval_word(ctx, word), gamma_word(ctx, word)
    assert got == want and got.k == want.k


@pytest.mark.parametrize("ctx", [RepContext(5, 1), RepContext(5, -1, "projected"),
                                 RepContext(5, form="unprojected"), RepContext(6, -1)],
                         ids=str)
def test_eval_word_equals_gamma_products_large(ctx):
    m = ctx.generator_count
    word = BraidWord(((m, 1), (1, -1), (m - 1, 2), (3, 1), (m, -1), (2, 1), (m - 1, -1)))
    assert eval_word(ctx, word) == gamma_word(ctx, word)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("parity", [1, -1])
def test_exchange_table_is_i_times_square(n, parity):
    """In compressed form G_j = i R_j^2, i times the Pauli square_formulas states."""
    ctx = RepContext(n, parity)
    for j, pel in square_formulas(ctx):
        perm, ipow = exchange_table(ctx, j)
        want = PauliElement(pel.m + 1, pel.v).to_matrix()
        assert want == DenseMatrix.from_entries(
            [[I_UNIT.mul_zeta(2 * int(ipow[r]) - 2) if c == perm[r] else 0
              for c in range(ctx.dim)] for r in range(ctx.dim)])


def test_gamma_pauli_strings_match_gamma_matrices():
    for m in (1, 2, 3):
        for j in range(1, 2 * m + 1):
            assert _gamma_pauli(m, j).to_matrix() == gamma(m, j)


def test_letter_rule_overflow_raises():
    ctx = RepContext(1)
    def scaled_identity(c):
        return DenseMatrix(DenseMatrix.identity(2).planes * c, 0)

    for inverse in (False, True):
        with pytest.raises(ValueError, match="overflow"):
            _apply_letter(_letter_rows(ctx, 1, inverse), scaled_identity(1 << 60))
    ok = _apply_letter(_letter_rows(ctx, 1, False), scaled_identity(1 << 59))
    assert ok == braid_generator(ctx, 1).scale(1 << 59)


@pytest.mark.parametrize("ctx", ALL_FORM_CONTEXTS, ids=str)
def test_expand_moves_equals_generator_products(ctx):
    """Row i * M + m of the stacked expansion is stack[i] times move m, in
    the alphabet order R_1, R_1^(-1), R_2, ...; rows have k > 0 and
    negative coefficients, and in projected form X = X P for the projector P."""
    rng = random.Random(str(ctx))
    unit = rep_identity(ctx)
    mats = [DenseMatrix.from_entries(
                [[CycScalar(*(rng.randint(-5, 5) for _ in range(4)), k=rng.randint(0, 3))
                  for _ in range(ctx.dim)] for _ in range(ctx.dim)]) @ unit
            for _ in range(3)]
    assert any(m.k > 0 for m in mats) and any((m.planes < 0).any() for m in mats)
    moves = [g(ctx, j) for j in range(1, ctx.generator_count + 1)
             for g in (braid_generator, braid_generator_inverse)]
    got = expand_moves(ctx, MatrixStack.of(mats))
    assert len(got) == len(mats) * len(moves)
    want = [m @ g for m in mats for g in moves]
    for row, key, w in zip(got.matrices(), got.keys(), want):
        assert row.k == w.k and (row.planes == w.planes).all() and key == w.key()


def test_expand_moves_overflow_raises():
    ctx = RepContext(1)
    big = MatrixStack.of([DenseMatrix(DenseMatrix.identity(2).planes << 61, 0)])
    for overflowing in (lambda: expand_moves(ctx, big), lambda: big @ braid_generator(ctx, 1)):
        with pytest.raises(ValueError, match="exact matrix coefficients would overflow int64"):
            overflowing()


# -- BraidWord text and JSON round trips --------------------------------------

letter_lists = st.lists(st.tuples(st.integers(1, 12),
                                  st.integers(-4, 4).filter(bool)), max_size=12)


@EXACT
@given(letter_lists)
def test_word_json_round_trip(letters):
    w = BraidWord(tuple(letters))
    assert BraidWord.from_json(json.loads(json.dumps(w.to_json()))) == w


@EXACT
@given(letter_lists)
def test_word_text_round_trip(letters):
    w = BraidWord(tuple(letters))
    text = w.to_text()
    back = BraidWord.from_text(text)
    assert back.to_text() == text and len(back) == len(w)
    assert all(abs(e) == 1 for _, e in back.letters)
    if all(abs(e) == 1 for _, e in letters):
        assert back == w
