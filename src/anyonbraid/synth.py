"""Braid-word synthesis for Clifford targets and unreachability
certificates via the symplectic quotient.

Braiding permutes Majorana modes (Ivanov's rule): R_j sends gamma_j to
gamma_(j+1) and gamma_(j+1) to -gamma_j.  So conjugation by an element of
the braid image is a signed permutation of the 2n+2 modes, read exactly
from the Pauli images of the bilinears G_a = gamma_a gamma_(a+1) and
fixed up to the global flip; for n >= 2 it names the projective class.
For n = 1, where gamma_1 gamma_2 and gamma_3 gamma_4 are one Pauli up to
phase, the three Paulis take the part of the modes.  That reading is made
once per target, and every route below starts from it.  The Pauli
elements are pauli.PauliElement on the one packed vector encoding (v_i in
bit i) that the symplectic images act on, so their product rule lives in
pauli.py only.

synthesize() is a breadth-first search over those signed permutations, so
it returns words of minimal letter count; ties are broken toward the
lexicographically smallest letter sequence in the alphabet order
1 < -1 < 2 < -2 < ...  A state is one byte per mode, a level is one
gather of its states by the move tables, visited in (state, move) order,
and one sort of their keys (one int64 each up to n = 3); no matrix enters
the search, and the word found is re-verified by exact evaluation.

reachability() never searches and never enumerates: a target whose
bilinears all map to +- bilinears has a signed permutation, and its
points, bubble-sorted into a word in the S_j, must rebuild the target's
symplectic image exactly; a target that sends some pair vector outside
the pair set is certified to lie outside <S_1..S_2n+1>, and those pairs
are listed.  clifford_word_via_quotient() is a signed sort: the same
bubble sort spells the points in R_j letters, and R_j^2 letters, which
flip modes j and j+1, clear the signs that differ from the target's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial
from operator import mul

import numpy as np

from .braid import BraidWord, RepContext, eval_word, phase_word, square_formulas
from .gates import swap_gate
from .gf2 import BitMatrix, StabiliserChain
from .groups import EnumerationCapExceeded
from .matrix import DenseMatrix
from .pauli import PauliElement
from .symplectic import (CliffordAction, NonClifford, braid_symplectic, clifford_check,
                         group_orders, sp_order, symmetric_degree)

HEAVY_BFS_QUBITS = 4  # full-image BFS from this n on needs a max_depth


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
def _bilinears(ctx: RepContext) -> dict[int, tuple[tuple[int, ...], int]]:
    """The Majorana bilinears of ctx as exact Pauli elements i^m sigma_x:
    x -> (the points the bilinear names, m).

    For n >= 2 the pair (a, b) names gamma_a gamma_b = G_a ... G_(b-1),
    where G_j = gamma_j gamma_(j+1) = i R_j^2 is i times the Pauli that
    square_formulas gives.  For n = 1 complementary pairs are one Pauli up
    to phase, so the points are the three elements G_2, G_1 G_2 and G_1
    themselves.  Every printed S_j is checked to permute the vectors, so an
    image that sends one outside them is certified to lie outside <S_j>.
    """
    g = {j: PauliElement(p.m + 1, p.x, ctx.n_qubits) for j, p in square_formulas(ctx)}
    if ctx.n_qubits == 1:
        items = [((1,), g[2]), ((2,), g[1] * g[2]), ((3,), g[1])]
    else:
        items = [((a, b), reduce(mul, (g[k] for k in range(a, b))))
                 for a, b in combinations(range(1, ctx.strands + 1), 2)]
    table = {p.x: (points, p.m) for points, p in items}
    for j in range(1, ctx.generator_count + 1):
        s = braid_symplectic(ctx.n_qubits, j)
        if any(s.mul_vec(x) not in table for x in table):
            raise RuntimeError(f"printed S_{j} does not permute the Majorana pair vectors")
    return table


def _signed_majorana(ctx: RepContext, conj) -> tuple[int, ...] | None:
    """The signed permutation of a conjugation map conj on PauliElements:
    entry a is +-b when conj(gamma_a) = +-gamma_b, or None when conj sends
    a bilinear's vector outside the bilinears' (no signed permutation: an
    obstruction).

    For n >= 2 it is read from the images of the 2n+1 adjacent G_a, and
    normalised so that mode 1 keeps its sign (conjugation fixes a signed
    permutation only up to the global flip).  For n = 1 it is the signed
    permutation of the three points of _bilinears, which conj fixes
    exactly.  Raises RuntimeError when an image is i times a bilinear or
    the images are not a signed permutation.
    """
    table = _bilinears(ctx)
    points, signs = [], []
    for x, (named, m) in table.items():
        if len(named) == 2 and named[1] != named[0] + 1:
            continue
        image = conj(PauliElement(m, x, ctx.n_qubits))
        hit = table.get(image.x)
        if hit is None:
            return None
        if (image.m - hit[1]) % 2:
            raise RuntimeError("a Majorana bilinear maps outside +- the bilinears")
        points.append(hit[0])
        signs.append((image.m - hit[1]) % 4 // 2)
    if ctx.n_qubits == 1:
        perm = [p for (p,) in points]
    else:
        # mode a goes to the mode that the images of G_(a-1) and G_a share
        pairs = [set(p) for p in points]
        links = [pairs[0] - pairs[1], *(p & q for p, q in zip(pairs, pairs[1:])),
                 pairs[-1] - pairs[-2]]
        perm = [x.pop() if len(x) == 1 else 0 for x in links]
        # gamma_a gamma_(a+1) -> s_a s_(a+1) gamma_perm(a) gamma_perm(a+1), and
        # the bilinear of the sorted pair differs from that by the order
        flips = [0]
        for a, sign in enumerate(signs):
            flips.append(flips[-1] ^ sign ^ (perm[a] > perm[a + 1]))
        signs = flips
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise RuntimeError("the Majorana images are not a signed permutation")
    return tuple(-b if s else b for b, s in zip(perm, signs))


def _action_conjugator(act: CliffordAction):
    """P -> U P U^dagger on PauliElements, from U's CliffordAction: sigma_x
    is the ordered product of the generator Paulis sigma_(1 << g) with bit
    g set in x, and U sigma_(1 << g) U^dagger = i^f_g sigma_(S (1 << g))."""
    n = act.s.n // 2
    images = [PauliElement(f, act.s.mul_vec(1 << g), n) for g, f in enumerate(act.f)]

    def conj(p: PauliElement) -> PauliElement:
        return reduce(mul, (image for g, image in enumerate(images) if p.x >> g & 1),
                      PauliElement(p.m, 0, n))
    return conj


@lru_cache(maxsize=None)
def _move_tables(ctx: RepContext) -> tuple[np.ndarray, np.ndarray]:
    """(perm, flip), each (M, K): the M moves R_1, R_1^(-1), R_2, ... as
    signed permutations of the K points, read by _signed_majorana from the
    letter rule on Pauli elements.  R_j P R_j^dagger is P when P commutes
    with G_j = i R_j^2 and P G_j otherwise; for R_j^(-1) it is -P G_j.  For
    n >= 2 each move must follow Ivanov's rule up to the global flip: R_j
    sends gamma_j to gamma_(j+1) and gamma_(j+1) to -gamma_j, R_j^(-1) the
    reverse, and every other mode is fixed."""
    rows = []
    for j, square in square_formulas(ctx):
        for inverse in (False, True):
            def conj(p, square=square, i_power=3 if inverse else 1):
                if p.commutes_with(square):
                    return p
                ps = p * square
                return PauliElement(ps.m + i_power, ps.x, ps.n_qubits)
            signed = _signed_majorana(ctx, conj)
            ivanov = list(range(1, ctx.strands + 1))
            ivanov[j - 1:j + 1] = (-(j + 1), j) if inverse else (j + 1, -j)
            if ctx.n_qubits >= 2 and signed not in (tuple(ivanov), tuple(-b for b in ivanov)):
                raise RuntimeError(f"R_{j}{'^-1' if inverse else ''} does not exchange "
                                   f"modes {j} and {j + 1} with one sign flip")
            rows.append(signed)
    codes = _codes(rows)
    return (codes >> 1).astype(np.intp), codes & 1


def _codes(signed) -> np.ndarray:
    """Signed permutations (rows of +-b) as uint8 codes 2(b - 1) + (1 if
    negative): a BFS state is one row of codes."""
    signed = np.array(signed, dtype=np.int64)
    return (2 * (np.abs(signed) - 1) + (signed < 0)).astype(np.uint8)


def _keys(codes: np.ndarray) -> np.ndarray:
    """One sortable key per row of codes: the row's bytes, zero-padded to
    a multiple of 8, as one int64 when they fit (n <= 3) and as one void
    scalar otherwise."""
    rows, k = codes.shape
    width = -(-k // 8) * 8
    padded = np.zeros((rows, width), dtype=np.uint8)
    padded[:, :k] = codes
    return padded.view(np.int64 if width == 8 else np.dtype((np.void, width)))[:, 0]


def _sort_letters(signed) -> list[int]:
    """R_j letters (equally S_j letters) whose word moves the points as the
    signed permutation does, signs aside.  Bubble sort undoes the point
    permutation one adjacent swap at a time, and the swaps read backwards
    spell it."""
    perm = [abs(b) for b in signed]
    swaps = []
    for end in range(len(perm) - 1, 0, -1):
        for j in range(1, end + 1):
            if perm[j - 1] > perm[j]:
                perm[j - 1], perm[j] = perm[j], perm[j - 1]
                swaps.append(j)
    return swaps[::-1]


def _phase_power(ctx: RepContext, word: BraidWord, target: DenseMatrix) -> int:
    """p with eval(word) = z^p * target, re-verified exactly; RuntimeError
    when no z-power fits."""
    ev = eval_word(ctx, word)
    for p in range(8):
        if ev == target.mul_zeta(p):
            return p
    raise RuntimeError("synthesized word failed re-verification")


def reachability(ctx: RepContext, target: DenseMatrix) -> ReachResult:
    """Certificate-level reachability: a Clifford target is braid-reachable
    iff its symplectic image lies in <S_1..S_2n+1>, because the kernel of
    the symplectic map (Pauli gates and i-powers) is entirely reachable.
    The target's signed permutation (_signed_majorana: entry a is +-b when
    gamma_a goes to +-gamma_b) is read once.  When it exists, the S_j word
    of its points must rebuild the image exactly, and "majorana" reports
    it; otherwise the obstruction lists the Majorana pairs whose vectors
    the image sends outside the pair set."""
    if not ctx.compressed:
        raise ValueError("reachability runs on the compressed representation")
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    act = clifford_check(target)
    if isinstance(act, NonClifford):
        return ReachResult("not_clifford", None, None, act.to_json_dict())
    n = ctx.n_qubits
    order = factorial(symmetric_degree(n))
    signed = _signed_majorana(ctx, _action_conjugator(act))
    if signed is None:
        table = _bilinears(ctx)
        escapes = [list(points) for x, (points, _m) in table.items()
                   if act.s.mul_vec(x) not in table]
        return ReachResult("obstruction", act.s, order,
                           {"escapes": escapes, "sp_order": sp_order(n, 2)})
    spelled = BitMatrix.identity(2 * n)
    for j in _sort_letters(signed):
        spelled = spelled @ braid_symplectic(n, j)
    if spelled != act.s:
        raise RuntimeError("Majorana permutation word does not reproduce the symplectic image")
    return ReachResult("reachable", act.s, order, {"majorana": list(signed)})


def synthesize(ctx: RepContext, target: DenseMatrix, max_depth: int | None = None,
               cap: int = 10 ** 7) -> SynthResult:
    """BFS over signed Majorana permutations for a shortest braid word
    whose evaluation equals the target up to a z-power (re-verified
    exactly before returning).  The target's permutation comes from
    reachability(), whose Clifford check also rejects a non-unitary
    target.  From n = HEAVY_BFS_QUBITS on the search needs a max_depth;
    one at or beyond the depth where it ends gives the same result."""
    if target.dim != ctx.dim:
        raise ValueError("target dimension does not match the context")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    if cap < 1:
        raise ValueError("cap must be positive")
    reach = reachability(ctx, target)
    if reach.verdict != "reachable":
        return SynthResult("unrealizable", None, None, 0, 0, reach.to_json_dict())
    if ctx.n_qubits >= HEAVY_BFS_QUBITS and max_depth is None:
        raise ValueError(f"full-image BFS for n >= {HEAVY_BFS_QUBITS} is heavy; "
                         "bound it with --max-depth")

    perm, flip = _move_tables(ctx)
    # the letters of the moves in the order of the move tables
    moves = [x for j in range(1, ctx.generator_count + 1) for x in (j, -j)]
    target_key = _keys(_codes([reach.detail["majorana"]]))[0]
    frontier = _codes([range(1, perm.shape[1] + 1)])
    seen = _keys(frontier)               # sorted
    levels = []                          # (parent, move) of each state, per depth
    depth = 0

    def finish(letters, explored: int) -> SynthResult:
        word = _letters_to_word(letters)
        return SynthResult("realizable", word, _phase_power(ctx, word, target), explored,
                           len(letters))

    if seen[0] == target_key:
        return finish((), 1)
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            return SynthResult("exhausted", None, None, len(seen), depth)
        depth += 1
        # row i * len(moves) + m is state i times move m: the order in
        # which the states of the level are visited
        step = (frontier[:, perm] ^ flip).reshape(-1, perm.shape[1])
        if ctx.n_qubits >= 2:
            step ^= step[:, :1] & 1
        keys = _keys(step)
        uniq, first = np.unique(keys, return_index=True)
        pos = np.searchsorted(seen, uniq)
        new = seen[np.minimum(pos, len(seen) - 1)] != uniq
        fresh = np.sort(first[new])
        hit = np.flatnonzero(keys[fresh] == target_key)
        room = cap - len(seen)
        if len(fresh) > room and not (len(hit) and hit[0] < room):
            raise EnumerationCapExceeded(cap)
        if len(hit):
            i = int(fresh[hit[0]])
            letters = [moves[i % len(moves)]]
            i //= len(moves)
            for parent, move in reversed(levels):
                letters.append(moves[move[i]])
                i = parent[i]
            return finish(letters[::-1], len(seen) + int(hit[0]) + 1)
        seen = np.insert(seen, pos[new], uniq[new])
        levels.append((fresh // len(moves), fresh % len(moves)))
        frontier = step[fresh]
    return SynthResult("exhausted", None, None, len(seen), depth)


def clifford_word_via_quotient(ctx: RepContext, target: DenseMatrix) -> tuple[BraidWord, int]:
    """Constructive synthesis by a signed sort of the target's Majorana
    permutation.

    The bubble sort of reachability() spells the points in R_j letters;
    the word's own signed permutation, composed from the move tables, then
    differs from the target's in an even number of signs (each R_j brings
    one swap and one flip), and R_j^2 letters, which flip modes j and j+1,
    clear them from the left.  Words are not length-minimal; the result
    satisfies eval(word) = z^p * target exactly and (word, p) is returned.
    """
    if not ctx.compressed:
        raise ValueError("synthesis runs on the compressed representation")
    reach = reachability(ctx, target)
    if reach.verdict == "not_clifford":
        raise ValueError("target is not a Clifford gate")
    if reach.verdict != "reachable":
        raise ValueError("target's symplectic image lies outside the braid image")
    letters = _sort_letters(reach.detail["majorana"])
    perm, flip = _move_tables(ctx)
    state = _codes([range(1, perm.shape[1] + 1)])[0]
    for j in letters:
        state = state[perm[2 * (j - 1)]] ^ flip[2 * (j - 1)]
    # mode 1 has a plus sign in both rows (the read normalises it, and the
    # sort only moves gamma_1's image up), so no global flip intervenes
    differ = (state ^ _codes([reach.detail["majorana"]])[0]) & 1
    fixes = []
    for a in range(len(differ) - 1):
        if differ[a]:
            differ[a + 1] ^= 1
            fixes.append((a + 1, 2))
    if differ[-1]:
        raise RuntimeError("the Majorana sign residual is odd")
    word = BraidWord(tuple((j, 1) for j in letters) + tuple(fixes))
    return word, _phase_power(ctx, word, target)


def exact_clifford_word(ctx: RepContext, target: DenseMatrix) -> BraidWord:
    """A braid word evaluating to the target exactly (no phase).

    Only possible when some z-power class member of the target with phase
    1 lies in the strict image; the residual phase is always a power of i
    for such targets and is cancelled with the i*I braid word, or with its
    inverse when three copies would be needed.
    """
    word, p = clifford_word_via_quotient(ctx, target)
    if p % 2:
        raise ValueError("target differs from every braid image element "
                         "by an odd z-power; only phase-equivalence is possible")
    m = (-(p // 2)) % 4
    if m == 3:
        word = word + phase_word(ctx).inverse()
    else:
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
        return asdict(self)


def missing_gate_report(n: int, check_generation: bool = False) -> MissingGateReport:
    """Computational survey of which SWAP embeddings escape the braid image
    and whether adding one of them recovers the full symplectic group.

    With check_generation, the order of <S_1..S_2n+1, S_SWAP> for the first
    obstructed SWAP comes from its stabiliser chain and is compared with
    |Sp_2n(2)|; no element list is stored, so n = 4..6 answer in seconds."""
    order = factorial(symmetric_degree(n))
    full = sp_order(n, 2)
    ctx = RepContext(n)
    obstructed, reachable = {}, []        # obstructed: (a, b) -> the SWAP's image
    for a, b in combinations(range(1, n + 1), 2):
        reach = reachability(ctx, swap_gate(n, a, b))
        if reach.verdict == "not_clifford":
            raise RuntimeError(f"SWAP({a},{b}) is not Clifford")
        if reach.verdict == "obstruction":
            obstructed[a, b] = reach.s_target
        else:
            reachable.append((a, b))
    generates = None
    if check_generation and obstructed:
        gens = [braid_symplectic(n, j) for j in range(1, 2 * n + 2)]
        gens.append(next(iter(obstructed.values())))   # the first obstructed SWAP
        generates = StabiliserChain(gens, 2 * n).order() == full
    return MissingGateReport(
        n, order, full, full // order,
        tuple(obstructed), tuple(reachable), generates,
    )
