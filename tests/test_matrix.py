import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import BraidWord, RepContext, eval_word
from anyonbraid.matrix import BLOCK_ROWS, DenseMatrix, MatrixStack
from anyonbraid.ring import BRAID_PHASE, INV_SQRT2, CycScalar, ONE, ZERO

# reproducible examples, no example database left in the working tree
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def rand_scalar(rng, span=3, kmax=2):
    return CycScalar(*(rng.randint(-span, span) for _ in range(4)), k=rng.randint(0, kmax))


def rand_matrix(rng, dim, span=3, kmax=2):
    return DenseMatrix.from_entries(
        [[rand_scalar(rng, span, kmax) for _ in range(dim)] for _ in range(dim)]
    )


def naive_mul(a, b):
    d = a.dim
    return DenseMatrix.from_entries([
        [sum((a.entry(i, k) * b.entry(k, j) for k in range(d)), ZERO) for j in range(d)]
        for i in range(d)
    ])


def test_matmul_matches_scalar_arithmetic():
    rng = random.Random(11)
    for dim in (2, 4, 8):
        for _ in range(20):
            a, b = rand_matrix(rng, dim), rand_matrix(rng, dim)
            assert a @ b == naive_mul(a, b)


def test_bigint_fallback_stays_exact():
    """Large coefficients stay exact in int64; an operation whose result
    could overflow int64 raises instead of falling back to bigints."""
    rng = random.Random(12)
    huge = 1 << 45
    a = DenseMatrix.from_entries([
        [CycScalar(huge, -huge, 3, 1), CycScalar(0, huge, 0, 0)],
        [CycScalar(1, 2, 3, 4, 2), CycScalar(huge, 0, 0, -huge)],
    ])
    b = rand_matrix(rng, 2)
    assert a @ b == naive_mul(a, b)
    for overflowing in (lambda: a @ a, lambda: a.kron(a), lambda: a.scale(CycScalar(huge))):
        with pytest.raises(ValueError, match="overflow"):
            overflowing()
    edge = DenseMatrix.from_entries([[1 << 61, 0], [0, 1]])
    with pytest.raises(ValueError, match="overflow"):
        edge + edge
    with pytest.raises(ValueError, match="overflow"):
        DenseMatrix.from_entries([[1 << 62, 0], [0, 1]])
    # the stacked product keeps the guard: 4 d max|X| max|g| >= 2^62 raises
    stack = MatrixStack.of([a])
    assert (stack @ b).matrices() == [a @ b]
    assert stack.premul(b).matrices() == [b @ a]
    for overflowing in (lambda: stack @ a, lambda: stack.premul(a)):
        with pytest.raises(ValueError, match="overflow"):
            overflowing()


def test_add_sub_scale():
    rng = random.Random(13)
    for _ in range(20):
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        s = rand_scalar(rng)
        assert (a + b) - b == a
        left = a.scale(s)
        naive = DenseMatrix.from_entries(
            [[s * a.entry(i, j) for j in range(4)] for i in range(4)]
        )
        assert left == naive


def test_dagger_and_trace():
    rng = random.Random(14)
    for _ in range(20):
        a = rand_matrix(rng, 4)
        d = a.dagger()
        for i in range(4):
            for j in range(4):
                assert d.entry(i, j) == a.entry(j, i).conjugate()
        assert a.trace() == sum((a.entry(i, i) for i in range(4)), ZERO)
        assert (a @ a.dagger()).is_hermitian()


def test_kron_matches_entrywise():
    rng = random.Random(15)
    for da, db in ((2, 2), (2, 4), (4, 2)):
        a, b = rand_matrix(rng, da), rand_matrix(rng, db)
        k = a.kron(b)
        assert k.dim == da * db
        for i in range(k.dim):
            for j in range(k.dim):
                assert k.entry(i, j) == a.entry(i // db, j // db) * b.entry(i % db, j % db)


def test_equality_is_exact_and_hashable():
    a = DenseMatrix.from_entries([[ONE, ZERO], [ZERO, CycScalar(1, 0, 0, 0, 0)]])
    b = DenseMatrix.identity(2)
    assert a == b and hash(a) == hash(b) and a.key() == b.key()
    c = DenseMatrix.from_entries([[CycScalar(2, 0, 0, 0, 1), ZERO], [ZERO, ONE]])
    assert c == b  # 2/2 normalizes to 1


@pytest.mark.parametrize("k", [0, 1, 3, 70])
def test_normal_form_divides_out_powers_of_two(k):
    """Entries over 2^k lose the common power of two (negative entries
    included) down to k = 0 or an odd coefficient; a zero matrix gets k = 0."""
    rng = random.Random(k)
    odd = np.array([rng.choice((-3, -1, 1, 5)) for _ in range(16)], dtype=np.int64)
    base = (odd * np.array([rng.choice((1, 2, 4)) for _ in range(16)])).reshape(4, 2, 2)
    base[0, 0, 0] = -1
    for shift in range(4):
        m = DenseMatrix(base << shift, k)
        keep = min(k, shift)
        assert (m.k, m.planes.tolist()) == (k - keep, (base << (shift - keep)).tolist())
        assert m == DenseMatrix.from_entries(
            [[m.entry(i, j) for j in range(2)] for i in range(2)])
    zero = DenseMatrix(np.zeros((4, 2, 2), dtype=np.int64), k)
    assert zero.k == 0 and zero == DenseMatrix.zeros(2)


def test_mul_zeta_rotation():
    rng = random.Random(17)
    a = rand_matrix(rng, 2)
    for e in range(-8, 9):
        rot = a.mul_zeta(e)
        for i in range(2):
            for j in range(2):
                assert rot.entry(i, j) == a.entry(i, j).mul_zeta(e)


def test_projective_canonical():
    rng = random.Random(18)
    for _ in range(30):
        a = rand_matrix(rng, 2)
        if a.is_zero():
            continue
        t, canon = a.projective_canonical()
        assert canon.mul_zeta(t) == a
        i, j = canon.first_nonzero_entry()
        assert canon.entry(i, j).phase_class()[0] == 0
        # invariance under a global phase
        for e in range(8):
            t2, canon2 = a.mul_zeta(e).projective_canonical()
            assert canon2 == canon


def test_json_roundtrip():
    rng = random.Random(19)
    a = rand_matrix(rng, 4)
    blob = json.dumps(a.to_json_dict())
    assert DenseMatrix.from_json_dict(json.loads(blob)) == a
    with pytest.raises(ValueError):
        DenseMatrix.from_json_dict({"dim": 3, "entries": a.to_json_dict()["entries"]})


def test_dimension_mismatch_errors():
    a = DenseMatrix.identity(2)
    b = DenseMatrix.identity(4)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        DenseMatrix.from_entries([[1, 2, 3], [4, 5, 6]])


@st.composite
def braid_stacks(draw):
    """(g, mats, rows): braid-word matrices for n = 1..4 in either parity,
    each times a scalar with its own denominator, and a stack row count of
    1, len(mats) or more than one block (row i holds mats[i % len(mats)])."""
    n = draw(st.integers(1, 4))
    ctx = RepContext(n, draw(st.sampled_from((1, -1))))
    words = st.lists(st.tuples(st.integers(1, ctx.generator_count),
                               st.sampled_from((1, -1))), max_size=8)
    scales = st.sampled_from((ONE, INV_SQRT2, BRAID_PHASE, CycScalar(3, 0, 0, 1, 2),
                              CycScalar(2), CycScalar(0, 0, -1, 0)))

    def draw_matrix():
        return eval_word(ctx, BraidWord(tuple(draw(words)))).scale(draw(scales))

    g = draw_matrix()
    mats = [draw_matrix() for _ in range(draw(st.integers(1, 4)))]
    rows = draw(st.sampled_from((1, len(mats), BLOCK_ROWS + 5)))
    return g, mats, rows


@EXACT
@given(braid_stacks())
def test_stacked_products_match_elementwise(data):
    g, mats, rows = data
    stack = MatrixStack.of([mats[i % len(mats)] for i in range(rows)])
    assert len(stack) == rows
    for prod, single in ((stack @ g, lambda m: m @ g), (stack.premul(g), lambda m: g @ m)):
        want = [single(m) for m in mats[:rows]]
        canon = [m.projective_canonical() for m in want]
        t, prod_canon = prod.projective_canonical()
        got, got_canon = prod.matrices(), prod_canon.matrices()
        keys, canon_keys = list(prod.keys()), list(prod_canon.keys())
        for i in range(rows):
            w, (tw, cw) = want[i % len(want)], canon[i % len(want)]
            assert got[i] == w and keys[i] == w.key() and got[i].key() == w.key()
            assert t[i] == tw and got_canon[i] == cw and canon_keys[i] == cw.key()
    assert (stack @ g).matrices()[0] == naive_mul(mats[0], g)
    assert stack.premul(g).matrices()[0] == naive_mul(g, mats[0])


def test_stack_keys_and_canonical_edge_cases():
    """keys() and projective_canonical() on stacks agree with DenseMatrix row
    by row: a zero row (k = 0), k = 300 (the key header's k spans two bytes)
    and leading entries that differ only in sign or in plane."""
    def single(lead, k=0):
        planes = np.zeros((4, 2, 2), dtype=np.int64)
        planes[:, 0, 1] = lead
        planes[0, 1, 0] = 3
        return DenseMatrix(planes, k)

    leads = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, -1), (1, 1, 0, 0), (-1, -1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0)]
    mats = [single(lead, k) for lead in leads for k in (0, 1)]
    mats.append(single((5, -3, 0, 1), 300))
    assert mats[-1].k == 300
    zero = DenseMatrix.zeros(2)
    stack = MatrixStack.of(mats + [zero])
    assert stack.keys() == [m.key() for m in mats + [zero]]
    assert stack.keys()[-2][4:8] == (300).to_bytes(4, "little")
    assert [m.key() for m in stack.matrices()] == [m.key() for m in mats + [zero]]
    with pytest.raises(ValueError, match="zero matrix"):
        stack.projective_canonical()
    t, canon = MatrixStack.of(mats).projective_canonical()
    for m, tm, key, row in zip(mats, t, canon.keys(), canon.matrices()):
        want_t, want = m.projective_canonical()
        assert tm == want_t and key == want.key() and row == want
    assert len(set(t.tolist())) > 4
