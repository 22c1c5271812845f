"""Braid-word synthesis for Clifford targets and unreachability
certificates via the symplectic quotient.

synthesize() is a breadth-first search over projective canonical keys
(global phases stripped), so it returns words of minimal letter count;
ties are broken toward the lexicographically smallest letter sequence in
the alphabet order 1 < -1 < 2 < -2 < ...  Each level is computed as
stacked products, one per move and block of states, and then visited in
that (state, move) order.  reachability() never searches:
it tests membership of the target's symplectic image in the subgroup
generated by the braid generators' images, which is exact and cheap even
where full enumeration is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .braid import (BraidWord, RepContext, braid_generator,
                    braid_generator_inverse, eval_word, phase_word, rep_identity)
from .gates import swap_gate
from .gf2 import BitMatrix
from .groups import EnumerationCapExceeded
from .matrix import BLOCK_ROWS, DenseMatrix, MatrixStack
from .pauli import pauli_term
from .symplectic import (CliffordAction, NonClifford, braid_symplectic,
                         clifford_check, group_orders, sp_order, symplectic_subgroup)

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


def _moves(ctx: RepContext):
    out = []
    for j in range(1, ctx.generator_count + 1):
        out.append((j, braid_generator(ctx, j)))
        out.append((-j, braid_generator_inverse(ctx, j)))
    return out


def _letters_to_word(letters) -> BraidWord:
    return BraidWord(tuple((abs(x), 1 if x > 0 else -1) for x in letters))


def reachability(ctx: RepContext, target: DenseMatrix) -> ReachResult:
    """Certificate-level reachability: a Clifford target is braid-reachable
    iff its symplectic image lies in <S_1..S_2n+1>, because the kernel of
    the symplectic map (Pauli gates and i-powers) is entirely reachable."""
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    act = clifford_check(target)
    if isinstance(act, NonClifford):
        return ReachResult("not_clifford", None, None, act.to_json_dict())
    sub = symplectic_subgroup(ctx.n_qubits)
    if act.s in sub:
        return ReachResult("reachable", act.s, len(sub))
    return ReachResult("obstruction", act.s, len(sub),
                       {"sp_order": sp_order(ctx.n_qubits, 2)})


def synthesize(ctx: RepContext, target: DenseMatrix, max_depth: int | None = None,
               cap: int = 10 ** 7, allow_heavy: bool = False) -> SynthResult:
    """BFS for a shortest braid word whose evaluation equals the target up
    to a z-power (re-verified exactly before returning)."""
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    if not target.is_unitary():
        raise ValueError("target is not unitary")
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
    moves = _moves(ctx)
    parents: dict = {start_canon.key(): None}
    frontier, paths = MatrixStack.of([start_canon]), [()]
    # states per block, so that a block's products fill at most BLOCK_ROWS rows
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
        return SynthResult("realizable", word, p, len(parents), len(letters))

    if start_canon == target_canon:
        return finish(())
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            return SynthResult("exhausted", None, None, len(parents), depth)
        depth += 1
        new, new_paths = [], []
        for first in range(0, len(frontier), states):
            block = frontier[first:first + states]
            # row i * len(moves) + m is state i times move m: the order in
            # which the states of the level are visited
            step = MatrixStack.interleave([(block @ g).projective_canonical()[1]
                                           for _, g in moves])
            fresh = []
            for i, key in enumerate(step.keys()):
                if key in parents:
                    continue
                if len(parents) >= cap:
                    raise EnumerationCapExceeded(cap)
                letters = paths[first + i // len(moves)]
                letter = moves[i % len(moves)][0]
                parents[key] = (letters, letter)
                seq = letters + (letter,)
                if key == target_key:
                    return finish(seq)
                fresh.append(i)
                new_paths.append(seq)
            new.append(step[fresh])
        frontier, paths = MatrixStack.concatenate(new), new_paths
    return SynthResult("exhausted", None, None, len(parents), depth)


@lru_cache(maxsize=None)
def _symplectic_parents(n: int) -> dict[BitMatrix, tuple[BitMatrix, int] | None]:
    """BFS tree over <S_j> with parent pointers (moves multiply on the right)."""
    gens = [(j, braid_symplectic(n, j)) for j in range(1, 2 * n + 2)]
    ident = BitMatrix.identity(2 * n)
    parents: dict[BitMatrix, tuple[BitMatrix, int] | None] = {ident: None}
    frontier = [ident]
    while frontier:
        new = []
        for s in frontier:
            for j, g in gens:
                t = s @ g
                if t not in parents:
                    parents[t] = (s, j)
                    new.append(t)
        frontier = new
    return parents


def _symplectic_word(n: int, s: BitMatrix) -> list[int]:
    parents = _symplectic_parents(n)
    if s not in parents:
        raise KeyError("symplectic matrix outside the braid-image subgroup")
    letters = []
    cur = s
    while parents[cur] is not None:
        prev, j = parents[cur]
        letters.append(j)
        cur = prev
    return letters[::-1]


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

    Finds a word matching the target's symplectic image, then corrects the
    Pauli-group remainder with squares of generators.  Words are not
    length-minimal; the result satisfies eval(word) = z^p * target exactly
    and (word, p) is returned.
    """
    if not ctx.compressed:
        raise ValueError("synthesis runs on the compressed representation")
    act = clifford_check(target)
    if isinstance(act, NonClifford):
        raise ValueError("target is not a Clifford gate")
    n = ctx.n_qubits
    letters = _symplectic_word(n, act.s)
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
    and whether adding one of them recovers the full symplectic group."""
    ctx = RepContext(n)
    sub = symplectic_subgroup(n)
    full = sp_order(n, 2)
    obstructed, reachable = [], []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            act = clifford_check(swap_gate(n, a, b))
            if not isinstance(act, CliffordAction):
                raise RuntimeError(f"SWAP({a},{b}) is not Clifford")
            (reachable if act.s in sub else obstructed).append((a, b))
    generates = None
    if check_generation and obstructed:
        from .groups import dimino

        a, b = obstructed[0]
        act = clifford_check(swap_gate(n, a, b))
        gens = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)] + [act.s]
        generates = len(dimino(gens, BitMatrix.identity(2 * n))) == full
    return MissingGateReport(
        n, len(sub), full, full // len(sub),
        tuple(obstructed), tuple(reachable), generates,
    )
