"""Braid-word synthesis for Clifford targets and unreachability
certificates via the symplectic quotient.

synthesize() is a breadth-first search over projective canonical keys
(global phases stripped), so it returns words of minimal letter count;
ties are broken toward the lexicographically smallest letter sequence in
the alphabet order 1 < -1 < 2 < -2 < ...  A block of states takes every
move by one gather of signed columns (braid.expand_moves), one projective
canonical form and one key pass, no matrix product, and is visited in
that (state, move) order.  reachability() never searches and never
enumerates: braiding permutes Majorana modes (Ivanov's rule), so
<S_1..S_2n+1> acts as a symmetric group on the Pauli vectors of the
Majorana pairs.  A target's symplectic image either sends some pair vector
outside that set, which certifies it lies outside <S_j>, or permutes the
set; the point permutation is then bubble-sorted into a word in the S_j
whose product must equal the image exactly.  clifford_word_via_quotient()
builds its words from the same permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial
from operator import xor

from .braid import (BraidWord, RepContext, eval_word, expand_moves, phase_word,
                    rep_identity, square_formulas)
from .gates import swap_gate
from .gf2 import BitMatrix, StabiliserChain
from .groups import EnumerationCapExceeded
from .matrix import BLOCK_ROWS, DenseMatrix, MatrixStack
from .pauli import pauli_term
from .symplectic import (CliffordAction, NonClifford, braid_symplectic, clifford_check,
                         group_orders, sp_order, symmetric_degree)

HEAVY_BFS_QUBITS = 3  # full-image BFS beyond this needs an explicit opt-in


@dataclass(frozen=True)
class SynthResult:
    verdict: str                      # "realizable" | "unrealizable" | "exhausted"
    word: BraidWord | None
    phase_power: int | None           # eval(word) = z^phase_power * target
    explored: int
    depth: int
    obstruction: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "explored": self.explored,
            "depth": self.depth,
        }
        if self.word is not None:
            out["word"] = self.word.to_text()
            out["phase_power"] = self.phase_power
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction
        return out


@dataclass(frozen=True)
class ReachResult:
    verdict: str                      # "reachable" | "not_clifford" | "obstruction"
    s_target: BitMatrix | None
    subgroup_order: int | None
    detail: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict}
        if self.s_target is not None:
            out["s_target"] = self.s_target.to_bitstrings()
        if self.subgroup_order is not None:
            out["subgroup_order"] = self.subgroup_order
        if self.detail is not None:
            out.update(self.detail)
        return out


def _letters_to_word(letters) -> BraidWord:
    return BraidWord(tuple((abs(x), 1 if x > 0 else -1) for x in letters))


@lru_cache(maxsize=None)
def _majorana_table(n: int) -> dict[int, tuple[int, ...]]:
    """The Pauli vectors on which <S_1..S_2n+1> acts as a symmetric group,
    each keyed to the points it names; S_j swaps points j and j + 1.

    For n >= 2 the points are the 2n+2 Majorana modes, and x_ab = w_a + ...
    + w_(b-1) names the pair (a, b) (w_j packs the Pauli that
    square_formulas gives for R_j^2).  For n = 1 complementary pairs share a
    vector and S_4 acts through S_3, so the points are the three nonzero
    vectors w_2, w_1 + w_2, w_1 themselves.  Every printed S_j is checked to
    permute the table, so an image that sends a vector outside it is
    certified to lie outside <S_j>.
    """
    w = {j: sum(bit << i for i, bit in enumerate(p.v))
         for j, p in square_formulas(RepContext(n))}
    if n == 1:
        table = {w[2]: (1,), w[1] ^ w[2]: (2,), w[1]: (3,)}
    else:
        table = {reduce(xor, (w[k] for k in range(a, b))): (a, b)
                 for a, b in combinations(range(1, 2 * n + 3), 2)}
    for j in range(1, 2 * n + 2):
        s = braid_symplectic(n, j)
        if any(s.mul_vec(x) not in table for x in table):
            raise RuntimeError(f"printed S_{j} does not permute the Majorana pair vectors")
    return table


def _majorana_letters(n: int, s: BitMatrix) -> tuple[list[int] | None, list[list[int]]]:
    """(letters, []) with S_letters[0] @ ... @ S_letters[-1] == s exactly,
    or (None, escapes) when s sends table vectors outside the table; escapes
    lists the points those vectors name, which certifies s is outside <S_j>.

    Each point's image is the one point common to the images of all the
    table vectors that name it.  Bubble sort undoes that permutation one
    adjacent swap at a time, and the swaps read backwards spell it.
    """
    table = _majorana_table(n)
    images = {x: s.mul_vec(x) for x in table}
    escapes = [list(table[x]) for x, y in images.items() if y not in table]
    if escapes:
        return None, escapes
    perm = []
    for a in range(1, symmetric_degree(n) + 1):
        common = set.intersection(*(set(table[y]) for x, y in images.items()
                                    if a in table[x]))
        if len(common) != 1:
            raise RuntimeError("symplectic image permutes the pair vectors but no point")
        perm.extend(common)
    swaps = []
    for end in range(len(perm) - 1, 0, -1):
        for j in range(1, end + 1):
            if perm[j - 1] > perm[j]:
                perm[j - 1], perm[j] = perm[j], perm[j - 1]
                swaps.append(j)
    letters = swaps[::-1]
    product = BitMatrix.identity(2 * n)
    for j in letters:
        product = product @ braid_symplectic(n, j)
    if product != s:
        raise RuntimeError("Majorana permutation word does not reproduce the symplectic image")
    return letters, []


def reachability(ctx: RepContext, target: DenseMatrix) -> ReachResult:
    """Certificate-level reachability: a Clifford target is braid-reachable
    iff its symplectic image lies in <S_1..S_2n+1>, because the kernel of
    the symplectic map (Pauli gates and i-powers) is entirely reachable.
    An obstruction lists the Majorana pairs whose vectors the image sends
    outside the pair set; a reachable image was rebuilt exactly from the
    S_j."""
    if not ctx.compressed:
        raise ValueError("reachability runs on the compressed representation")
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    act = clifford_check(target)
    if isinstance(act, NonClifford):
        return ReachResult("not_clifford", None, None, act.to_json_dict())
    n = ctx.n_qubits
    order = factorial(symmetric_degree(n))
    _letters, escapes = _majorana_letters(n, act.s)
    if escapes:
        return ReachResult("obstruction", act.s, order,
                           {"escapes": escapes, "sp_order": sp_order(n, 2)})
    return ReachResult("reachable", act.s, order)


def synthesize(ctx: RepContext, target: DenseMatrix, max_depth: int | None = None,
               cap: int = 10 ** 7, allow_heavy: bool = False) -> SynthResult:
    """BFS for a shortest braid word whose evaluation equals the target up
    to a z-power (re-verified exactly before returning)."""
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    if not target.is_unitary():
        raise ValueError("target is not unitary")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    reach = reachability(ctx, target)
    if reach.verdict != "reachable":
        return SynthResult("unrealizable", None, None, 0, 0, reach.to_json_dict())
    if ctx.n_qubits >= HEAVY_BFS_QUBITS and max_depth is None and not allow_heavy:
        raise ValueError(
            "full-image BFS for n >= 3 is heavy; pass max_depth or allow_heavy=True"
        )

    t_target, target_canon = target.projective_canonical()
    target_key = target_canon.key()
    start = rep_identity(ctx)
    t0, start_canon = start.projective_canonical()
    # the letters of the moves in the order expand_moves applies them
    moves = [x for j in range(1, ctx.generator_count + 1) for x in (j, -j)]
    seen = {start_canon.key()}
    frontier, paths = MatrixStack.of([start_canon]), [()]
    # states per block, so that a block's moves fill at most BLOCK_ROWS rows
    states = max(1, BLOCK_ROWS // len(moves))
    depth = 0

    def finish(letters) -> SynthResult:
        word = _letters_to_word(letters)
        ev = eval_word(ctx, word)
        t_ev, ev_canon = ev.projective_canonical()
        if ev_canon != target_canon:
            raise RuntimeError("synthesized word failed projective re-verification")
        p = (t_ev - t_target) % 8
        if ev != target.mul_zeta(p):
            raise RuntimeError("synthesized word failed re-verification")
        return SynthResult("realizable", word, p, len(seen), len(letters))

    if start_canon == target_canon:
        return finish(())
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            return SynthResult("exhausted", None, None, len(seen), depth)
        depth += 1
        new, new_paths = [], []
        for first in range(0, len(frontier), states):
            # row i * len(moves) + m is state i times move m: the order in
            # which the states of the level are visited
            step = expand_moves(ctx, frontier[first:first + states]).projective_canonical()[1]
            fresh = []
            for i, key in enumerate(step.keys()):
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise EnumerationCapExceeded(cap)
                seen.add(key)
                seq = paths[first + i // len(moves)] + (moves[i % len(moves)],)
                if key == target_key:
                    return finish(seq)
                fresh.append(i)
                new_paths.append(seq)
            new.append(step[fresh])
        frontier, paths = MatrixStack.concatenate(new), new_paths
    return SynthResult("exhausted", None, None, len(seen), depth)


def _pauli_fixup_word(n: int, v) -> BraidWord:
    """A braid word whose evaluation is sigma_v up to a global phase.

    sigma3 on qubit q is (R_{2q-1})^2; sigma2 on qubit q is, up to phase,
    (R_{2q})^2 (R_{2q+2})^2 ... (R_{2n})^2 (R_{2n+1})^2; sigma1 is sigma2
    times sigma3 up to phase.
    """
    letters = []

    def sigma3(q):
        letters.append((2 * q - 1, 2))

    def sigma2(q):
        for r in range(2 * q, 2 * n + 2, 2):
            letters.append((r, 2))
        letters.append((2 * n + 1, 2))

    for q in range(1, n + 1):
        b1, b2 = v[2 * q - 2], v[2 * q - 1]
        if b1 and b2:
            sigma3(q)
        elif b1:
            sigma2(q)
            sigma3(q)
        elif b2:
            sigma2(q)
    return BraidWord(tuple(letters))


def clifford_word_via_quotient(ctx: RepContext, target: DenseMatrix) -> tuple[BraidWord, int]:
    """Constructive synthesis through the symplectic quotient.

    Spells the target's symplectic image as a word in the S_j from the
    Majorana permutation it induces (a reduced word for that permutation),
    then corrects the Pauli-group remainder with squares of generators.
    Words are not length-minimal; the result satisfies
    eval(word) = z^p * target exactly and (word, p) is returned.
    """
    if not ctx.compressed:
        raise ValueError("synthesis runs on the compressed representation")
    act = clifford_check(target)
    if isinstance(act, NonClifford):
        raise ValueError("target is not a Clifford gate")
    n = ctx.n_qubits
    letters, _escapes = _majorana_letters(n, act.s)
    if letters is None:
        raise ValueError("target's symplectic image lies outside the braid image")
    w1 = _letters_to_word(letters)
    v_mat = eval_word(ctx, w1)
    d = v_mat.dagger() @ target
    term = pauli_term(d)
    if term is None:
        raise RuntimeError("quotient remainder is not a single Pauli")
    v, _c = term
    word = w1 + _pauli_fixup_word(n, v)
    ev = eval_word(ctx, word)
    t_ev, ev_canon = ev.projective_canonical()
    t_target, target_canon = target.projective_canonical()
    if ev_canon != target_canon:
        raise RuntimeError("quotient synthesis failed projectively")
    p = (t_ev - t_target) % 8
    if ev != target.mul_zeta(p):
        raise RuntimeError("quotient synthesis failed re-verification")
    return word, p


def exact_clifford_word(ctx: RepContext, target: DenseMatrix) -> BraidWord:
    """A braid word evaluating to the target exactly (no phase).

    Only possible when some z-power class member of the target with phase
    1 lies in the strict image; the residual phase is always a power of i
    for such targets and is cancelled with the i*I braid word.
    """
    word, p = clifford_word_via_quotient(ctx, target)
    if p % 2:
        raise ValueError("target differs from every braid image element "
                         "by an odd z-power; only phase-equivalence is possible")
    m = (-(p // 2)) % 4
    for _ in range(m):
        word = word + phase_word(ctx)
    ev = eval_word(ctx, word)
    if ev != target:
        raise RuntimeError("phase correction failed")
    return word


def coverage_ratio(n: int) -> Fraction:
    """|PC_n| / |Image(B_2n+2)/Z4| from the closed forms."""
    orders = group_orders(n)
    return Fraction(orders.projective_clifford, orders.braid_image_mod_center)


@dataclass(frozen=True)
class MissingGateReport:
    n: int
    subgroup_order: int
    sp_full_order: int
    coset_count: int
    swap_pairs_obstructed: tuple[tuple[int, int], ...]
    swap_pairs_reachable: tuple[tuple[int, int], ...]
    swap_plus_braid_generates_sp: bool | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "subgroup_order": self.subgroup_order,
            "sp_full_order": self.sp_full_order,
            "coset_count": self.coset_count,
            "swap_pairs_obstructed": [list(p) for p in self.swap_pairs_obstructed],
            "swap_pairs_reachable": [list(p) for p in self.swap_pairs_reachable],
            "swap_plus_braid_generates_sp": self.swap_plus_braid_generates_sp,
        }


def missing_gate_report(n: int, check_generation: bool = False) -> MissingGateReport:
    """Computational survey of which SWAP embeddings escape the braid image
    and whether adding one of them recovers the full symplectic group.

    With check_generation, the order of <S_1..S_2n+1, S_SWAP> for the first
    obstructed SWAP comes from its stabiliser chain and is compared with
    |Sp_2n(2)|; no element list is stored, so n = 4..6 answer in seconds."""
    order = factorial(symmetric_degree(n))
    full = sp_order(n, 2)
    obstructed, reachable = [], []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            act = clifford_check(swap_gate(n, a, b))
            if not isinstance(act, CliffordAction):
                raise RuntimeError(f"SWAP({a},{b}) is not Clifford")
            _letters, escapes = _majorana_letters(n, act.s)
            (obstructed if escapes else reachable).append((a, b))
    generates = None
    if check_generation and obstructed:
        a, b = obstructed[0]
        act = clifford_check(swap_gate(n, a, b))
        gens = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)] + [act.s]
        generates = StabiliserChain(gens, 2 * n).order() == full
    return MissingGateReport(
        n, order, full, full // order,
        tuple(obstructed), tuple(reachable), generates,
    )
