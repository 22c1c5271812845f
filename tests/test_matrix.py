import json
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonbraid.braid import BraidWord, RepContext, eval_word
from anyonbraid.matrix import (BLOCK_ROWS, DenseMatrix, MatrixStack, _product, matrices_from_keys,
                               phased_row_index, signed_rows)
from anyonbraid.ring import BRAID_PHASE, INV_SQRT2, CycScalar, ONE, ZERO
from oracles import zeta_power

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


# The operand shapes of the product kernel for inner dimension d: a single
# product, a stack times a matrix, a matrix times a stack (premul) and the
# (2n, 4, 1, d) row slice that clifford_check multiplies by U^dagger.
KERNEL_SHAPES = {
    "single": lambda d: ((4, d, d), (4, d, d)),
    "stack": lambda d: ((3, 4, d, d), (4, d, d)),
    "premul": lambda d: ((4, d, d), (3, 4, d, d)),
    "row_slice": lambda d: ((2 * max(1, d.bit_length() - 1), 4, 1, d), (4, d, d)),
}


def scalar_product(a, b):
    """The planes of a @ b entry by entry in CycScalar arithmetic (Python
    ints, no bound), with the batch axis of either factor."""
    batch = a.shape[:-3] or b.shape[:-3]
    m, d, e = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.zeros(batch + (4, m, e), dtype=object)
    for idx in np.ndindex(batch):
        x, y = a[idx] if a.ndim > 3 else a, b[idx] if b.ndim > 3 else b
        for i in range(m):
            for j in range(e):
                s = sum((CycScalar(*map(int, x[:, i, k])) * CycScalar(*map(int, y[:, k, j]))
                         for k in range(d)), ZERO)
                out[idx + (slice(None), i, j)] = s.coeffs
    return out


def near_bound_operands(shape_a, shape_b, m):
    """Operands with max |a| = max |b| = m whose plane-0 coefficients sum
    all 4d partial products with one sign: c_0 = 4 d m^2, and 4 d m^2 - m
    in row 0 (odd for odd m), next to the kernel's bound 4 d m^2."""
    a = np.full(shape_a, m, dtype=np.int64)
    a[..., 0, 0, 0] = m - 1
    b = np.full(shape_b, -m, dtype=np.int64)
    b[..., 0, :, :] = m
    return a, b


def odd_m(d, above):
    """The largest odd m with 4 d m^2 < 2^53, or the smallest odd m with
    4 d m^2 - m > 2^53."""
    m = isqrt(((1 << 53) - 1) // (4 * d)) | 1
    while 4 * d * m * m >= 1 << 53:
        m -= 2
    while above and 4 * d * m * m - m <= 1 << 53:
        m += 2
    return m


@pytest.mark.parametrize("d", [1, 2, 4, 8])
@pytest.mark.parametrize("kind", sorted(KERNEL_SHAPES))
def test_product_kernel_is_exact(kind, d):
    """_product equals CycScalar arithmetic entry by entry: on small random
    planes, at the float64 route's bound (every partial sum below 2^53), past
    it (odd coefficients above 2^53, which float64 cannot hold, so the
    float route there would fail) and up to the int64 guard, which raises."""
    shape_a, shape_b = KERNEL_SHAPES[kind](d)
    rng = np.random.default_rng(d)
    a, b = rng.integers(-3, 4, shape_a), rng.integers(-3, 4, shape_b)
    assert _product(a, b, 3, 3).tolist() == scalar_product(a, b).tolist()
    for above in (False, True):
        m = odd_m(d, above)
        a, b = near_bound_operands(shape_a, shape_b, m)
        got, want = _product(a, b, m, m), scalar_product(a, b)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        top = 4 * d * m * m - m
        assert (top < 1 << 53) != above and top in want
        if above:
            assert int(float(top)) != top
    # random coefficients past 2^53, up to the int64 guard
    m = isqrt(((1 << 62) - 1) // (4 * d))
    a, b = rng.integers(-m, m + 1, shape_a), rng.integers(-m, m + 1, shape_b)
    max_a, max_b = int(np.abs(a).max()), int(np.abs(b).max())
    want = scalar_product(a, b)
    assert _product(a, b, max_a, max_b).tolist() == want.tolist()
    assert any(int(float(c)) != c for c in want.ravel())
    a[(0,) * a.ndim] = m + 1
    with pytest.raises(ValueError, match="overflow"):
        _product(a, b, m + 1, m + 1)


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


@st.composite
def shifted_stacks(draw):
    """(planes, k, shift): rows of base coefficients in -3..3 times 2^shift
    for shifts up to 61 (each nonzero row has an odd base coefficient, so its
    coefficients' lowest set bit is the shift), with k below, equal to or
    above the shift, and zero rows with k > 0."""
    d = draw(st.integers(1, 3))
    rows, ks, shifts = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        shift = draw(st.integers(0, 61))
        if draw(st.integers(0, 4)) == 0:
            base, k = [0] * (4 * d * d), draw(st.integers(1, 70))
        else:
            base = draw(st.lists(st.integers(-3, 3), min_size=4 * d * d, max_size=4 * d * d))
            base[draw(st.integers(0, 4 * d * d - 1))] = draw(st.sampled_from((-3, -1, 1, 3)))
            k = draw(st.sampled_from((max(shift - 1, 0), shift, shift + 1,
                                      draw(st.integers(0, 70)))))
        rows.append(np.array(base, dtype=np.int64).reshape(4, d, d) << shift)
        ks.append(k)
        shifts.append(shift)
    return np.stack(rows), np.array(ks, dtype=np.int64), shifts


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shifted_stacks())
def test_normal_form_agrees_for_stacks_matrices_and_scalars(data):
    """MatrixStack.normalized, DenseMatrix(planes, k) and the CycScalar of
    every entry apply one rule (ring.twos_shift): row by row they give the
    same planes and k, the shift is min(k, shift) (all of k for a zero row),
    and the matrix's k is the largest k of its entries' normal forms."""
    planes, ks, shifts = data
    stack = MatrixStack.normalized(planes, ks)
    d = planes.shape[-1]
    for i, shift in enumerate(shifts):
        k = int(ks[i])
        m = DenseMatrix(planes[i], k)
        assert stack.planes[i].tolist() == m.planes.tolist() and int(stack.k[i]) == m.k
        if planes[i].any():
            assert m.k == k - min(k, shift)
            assert m.planes.tolist() == (planes[i] >> min(k, shift)).tolist()
        else:
            assert m.k == 0 and not m.planes.any()
        entries = [CycScalar(*planes[i][:, a, b].tolist(), k)
                   for a in range(d) for b in range(d)]
        assert [m.entry(a, b) for a in range(d) for b in range(d)] == entries
        assert m.k == max(s.k for s in entries)


def test_mul_zeta_rotation():
    rng = random.Random(17)
    a = rand_matrix(rng, 2)
    for e in range(-8, 9):
        rot = a.mul_zeta(e)
        for i in range(2):
            for j in range(2):
                assert rot.entry(i, j) == a.entry(i, j).mul_zeta(e)


def phased_permutation_by_entries(perm, zpow):
    """G[r, perm[r]] = z^zpow[r] entry by entry, z^e a product of ZETAs."""
    d = len(perm)
    return DenseMatrix.from_entries([[zeta_power(int(zpow[r])) if c == perm[r] else 0
                                      for c in range(d)] for r in range(d)])


def test_z_power_gathers_match_products():
    """Every gather that reads ring.ZROT against G @ X, where G is built
    entrywise from products of ZETA and multiplied by the GEMM kernel."""
    rng = random.Random(23)
    for d in (1, 2, 4, 8):
        for _ in range(6):
            x = rand_matrix(rng, d, kmax=3)
            for e in range(-16, 17):
                assert x.mul_zeta(e) == phased_permutation_by_entries(range(d), [e] * d) @ x
            perm = np.array(rng.sample(range(d), d))
            for parity in (0, 1):   # all odd or all even z-powers, then mixed
                zpow = np.array([2 * rng.randint(-8, 8) + parity for _ in range(d)])
                g = phased_permutation_by_entries(perm, zpow)
                assert DenseMatrix.phased_permutation(perm, zpow) == g
                got = DenseMatrix(signed_rows(x.planes)[phased_row_index(perm, zpow)], x.k)
                assert got == g @ x
            zpow = np.array([rng.randint(-16, 16) for _ in range(d)])
            g = phased_permutation_by_entries(perm, zpow)
            assert DenseMatrix.phased_permutation(perm, zpow) == g
            assert DenseMatrix(signed_rows(x.planes)[phased_row_index(perm, zpow)], x.k) == g @ x
        # the stacked rotation of MatrixStack.projective_canonical, row by row
        mats = [rand_matrix(rng, d, kmax=3) for _ in range(40)]
        mats = [m.mul_zeta(e % 8) for e, m in enumerate(mats) if not m.is_zero()]
        t, canon = MatrixStack.of(mats).projective_canonical()
        for m, ti, c in zip(mats, t.tolist(), canon.matrices()):
            assert c == phased_permutation_by_entries(range(d), [-ti] * d) @ m
            assert c == m.projective_canonical()[1]
        assert len(set(t.tolist())) > 1


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


def test_stacks_and_matrices_from_keys():
    """MatrixStack.from_keys inverts keys(), and matrices_from_keys builds
    each matrix from its own key, keeping that key, with an exact _maxabs."""
    rng = random.Random(17)
    mats = [DenseMatrix.from_entries([[rand_scalar(rng, span=9, kmax=3) for _ in range(3)]
                                      for _ in range(3)]) for _ in range(6)]
    mats.append(DenseMatrix.zeros(3))
    keys = [m.key() for m in mats]
    stack = MatrixStack.from_keys(keys)
    assert stack.keys() == keys
    assert stack.rows_equal(MatrixStack.of(mats)).all()
    built = matrices_from_keys(keys)
    for m, key, b in zip(mats, keys, built):
        assert b == m and hash(b) == hash(m) and b.key() is key
        assert b.k == m.k and b._maxabs == m._maxabs
        assert not b.planes.flags.writeable
    assert built[-1]._maxabs == 0
    assert matrices_from_keys([]) == []


def width_edge_matrices():
    """Matrices whose largest coefficient magnitude sits on each side of
    every key width's bound, positive and negative, at d = 2, plus k = 300,
    a zero matrix and a matrix beyond int32, each with the width in bytes
    that its key must use."""
    def single(top, k=0):
        planes = np.zeros((4, 2, 2), dtype=np.int64)
        planes[1, 0, 1] = top
        planes[3, 1, 0] = 1 if top % 2 == 0 else 2
        return DenseMatrix(planes, k)

    cases = []
    for bits, width in ((7, 1), (15, 2), (31, 4)):
        bound = 1 << bits
        for top in (bound - 1, -(bound - 1), bound, -bound):
            cases.append((single(top), width if abs(top) < bound else 2 * width))
    cases += [(single(5, 300), 1), (single(-(1 << 40) - 1, 3), 8),
              (DenseMatrix.zeros(2), 1), (single(-3), 1)]
    for m, _ in cases:
        assert m.k in (0, 3, 300) and m._maxabs == int(np.abs(m.planes).max())
    return cases


def test_keys_take_the_narrowest_width():
    """Each key is the header and the planes at the narrowest width that
    holds the matrix; stacked keys() equal the single keys row by row, and
    from_keys over the mixed widths and matrices_from_keys rebuild the
    matrices in order, with read-only int64 planes and exact _maxabs."""
    cases = width_edge_matrices()
    mats = [m for m, _ in cases]
    for m, width in cases:
        key = m.key()
        assert len(key) == 8 + 4 * 4 * width
        assert key[:8] == (2).to_bytes(4, "little") + m.k.to_bytes(4, "little")
        planes = np.frombuffer(key, dtype=f"i{width}", offset=8).reshape(4, 2, 2)
        assert (planes == m.planes).all()
    assert len({len(m.key()) for m in mats}) == 4
    keys = [m.key() for m in mats]
    stack = MatrixStack.of(mats)
    assert stack.keys() == keys
    narrow = MatrixStack.from_keys(keys)
    assert narrow.rows_equal(stack).all() and narrow.keys() == keys
    assert narrow.planes.dtype == np.int64 and not narrow.rows_equal(stack[::-1]).all()
    for i in range(len(mats)):       # every rotation of the mixed widths
        order = mats[i:] + mats[:i]
        assert MatrixStack.from_keys([m.key() for m in order]).rows_equal(
            MatrixStack.of(order)).all()
    groups = [[m for m, w in cases if w == width] for width in (1, 2, 4, 8)]
    for width, same in zip((1, 2, 4, 8), groups):    # one width: a narrow view
        one = MatrixStack.from_keys([m.key() for m in same])
        assert one.planes.dtype == np.dtype(f"i{width}") and not one.planes.flags.writeable
        assert one.keys() == [m.key() for m in same]
    for group in groups + [mats]:
        keys = [m.key() for m in group]
        for m, key, b in zip(group, keys, matrices_from_keys(keys)):
            assert b == m and b.key() is key and b.k == m.k and b._maxabs == m._maxabs
            assert b.planes.dtype == np.int64 and not b.planes.flags.writeable
            assert b.planes.shape == (4, 2, 2)


def test_stack_operations_on_narrow_stacks():
    """@, premul, rows_equal, projective_canonical and normalized give the
    same rows on a stack read from narrow keys as on MatrixStack.of of the
    same matrices."""
    rng = random.Random(23)
    edges = [m for m, _ in width_edge_matrices() if not m.is_zero()]
    ctx = RepContext(2)
    braids = [eval_word(ctx, BraidWord(tuple((rng.randint(1, 5), rng.choice((1, -1)))
                                             for _ in range(6)))) for _ in range(6)]
    g = eval_word(ctx, BraidWord(((1, 1), (3, -1))))
    cases = [(edges, DenseMatrix.phased_permutation(np.array([1, 0]), np.array([3, 6])))]
    cases += [(braids, g), (braids + [rand_matrix(rng, 4, span=300) for _ in range(3)], g)]
    for mats, h in cases:
        keys = [m.key() for m in mats]
        wide, narrow = MatrixStack.of(mats), MatrixStack.from_keys(keys)
        d = mats[0].dim
        assert narrow.planes.dtype.itemsize == (max(map(len, keys)) - 8) // (4 * d * d)
        for op in (lambda s: s @ h, lambda s: s.premul(h),
                   lambda s: MatrixStack.normalized(s.planes, s.k + 1),
                   lambda s: s.projective_canonical()[1]):
            a, b = op(narrow), op(wide)
            assert a.rows_equal(b).all() and b.rows_equal(a).all()
            assert a.keys() == b.keys()
        assert (narrow.projective_canonical()[0] == wide.projective_canonical()[0]).all()
        assert narrow.rows_equal(wide).all()
        assert not narrow.rows_equal(MatrixStack.of(mats[1:] + mats[:1])).all()
