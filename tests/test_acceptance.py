"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 10 is split into its SWAP clause (10a), its CZ clause (10b) and
the coverage ratio (10c). The CZ clause asserts that the adjacent-pair CZ
embeddings are obstructed: an adjacent-pair CZ differs from the
adjacent-pair SWAP by the pair-exchange braid word, so the two lie in the
same symplectic coset, and a Majorana pair-set certificate confirms it.
"""

import os
import random
import time
from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from anyonbraid.braid import (BraidWord, RepContext, braid_generator, eval_word,
                              named_gate, square_formulas)
from anyonbraid.cli import main as cli_main
from anyonbraid.fusion import count_paths, enumerate_paths
from anyonbraid.gates import cz_gate, hadamard_gate, swap_gate
from anyonbraid.gf2 import BitMatrix
from anyonbraid.groups import braid_image, monodromy_equals_pauli, monodromy_image
from anyonbraid.symplectic import (CliffordAction, braid_symplectic, clifford_check,
                                   faithfulness_check, group_orders, sp_order,
                                   tilde_basis, tilde_printed)
from anyonbraid.synth import coverage_ratio, reachability, synthesize
from anyonbraid.verify import run_battery
from oracles import sp_bruteforce_order


def _report(num: str, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_orders_by_enumeration():
    t0 = time.perf_counter()
    b4 = braid_image(1, 1, "strict").order
    b6 = braid_image(2, 1, "strict").order
    elapsed = time.perf_counter() - t0
    _report("1", b4 == 96 and b6 == 46080 and elapsed <= 60.0,
            f"|Im(B4)| = {b4}, |Im(B6)| = {b6} by Dimino in {elapsed:.1f}s (limit 60s)")


def test_criterion_02_projective_orders_two_routes():
    p4 = braid_image(1, 1, "projective").order
    p6 = braid_image(2, 1, "projective").order
    closed4 = group_orders(1)
    closed6 = group_orders(2)
    ok = (p4 == 24 == closed4.projective_clifford == closed4.braid_image_mod_center
          and p6 == 11520 == closed6.projective_clifford == closed6.braid_image_mod_center)
    _report("2", ok, f"|Im(B4)/Z4| = {p4} = |PC_1|, |Im(B6)/Z4| = {p6} = |PC_2|, "
                     "enumeration and closed forms agree")


def test_criterion_03_table_row_n3_factored():
    o = group_orders(3)
    mono = monodromy_image(3).order
    sym = faithfulness_check(3).subgroup_order
    factored = mono * sym // 4
    ok = (o.projective_clifford == 92897280
          and o.braid_image_mod_center == 2580480
          and mono == 256 and sym == 40320 and factored == 2580480)
    _report("3", ok, f"|PC_3| = {o.projective_clifford}, |Im(B8)/Z4| = "
                     f"{o.braid_image_mod_center}; factored route {mono} * {sym} / 4 "
                     f"= {factored}")


@pytest.mark.skipif(not os.environ.get("ANYONBRAID_HEAVY"),
                    reason="full B_8 enumeration needs ~20 GB and tens of minutes; "
                           "set ANYONBRAID_HEAVY=1 to run")
def test_criterion_03_optional_full_b8_enumeration():
    enum = braid_image(3, 1, "strict")
    _report("3-heavy", enum.order == 10321920,
            f"full |Im(B8)| = {enum.order} by explicit enumeration")


def test_criterion_04_symplectic_orders_bruteforce():
    t0 = time.perf_counter()
    b1, b2 = sp_bruteforce_order(1), sp_bruteforce_order(2)
    elapsed = time.perf_counter() - t0
    ok = (b1 == 6 == sp_order(1, 2) and b2 == 720 == sp_order(2, 2)
          and elapsed <= 10.0)
    _report("4", ok, f"|Sp_2(2)| = {b1}, |Sp_4(2)| = {b2} match brute force "
                     f"in {elapsed:.1f}s (limit 10s)")


def test_criterion_05_representation_identities():
    results = run_battery(3)
    bad = [name for name, ok, _ in results if not ok]
    code = cli_main(["verify-relations", "--n", "3"])
    _report("5", not bad and code == 0,
            f"{len(results)} exact identity checks for n <= 3, both parities; "
            f"failures: {bad or 'none'}; verify-relations exit {code}")


def test_criterion_06_monodromy_equals_pauli():
    v1 = monodromy_equals_pauli(1)
    v2 = monodromy_equals_pauli(2)
    ok = v1.equal and v2.equal and v1.monodromy_order == 16 and v2.monodromy_order == 64
    _report("6", ok, f"monodromy image = Pauli group as matrix sets: "
                     f"n=1 ({v1.monodromy_order} elements), n=2 ({v2.monodromy_order})")


def test_criterion_07_clifford_containment():
    rng = random.Random(777)
    checked = 0
    ok = True
    for n in (1, 2, 3):
        for parity in (1, -1):
            ctx = RepContext(n, parity)
            for j in range(1, 2 * n + 2):
                act = clifford_check(braid_generator(ctx, j))
                ok = ok and isinstance(act, CliffordAction)
                ok = ok and act.s == braid_symplectic(n, j)
            for _ in range(34):
                letters = tuple((rng.randrange(1, 2 * n + 2), rng.choice((1, -1)))
                                for _ in range(rng.randrange(1, 13)))
                act = clifford_check(eval_word(ctx, letters))
                ok = ok and isinstance(act, CliffordAction)
                checked += 1
    _report("7", ok and checked >= 200,
            f"every generator (matching the printed S_j) and {checked} random braid "
            "words for n <= 3, both parities, pass clifford_check")


def test_criterion_08_tilde_basis_and_faithfulness():
    ok = True
    for n in (1, 2, 3):
        t, tildes = tilde_basis(n)
        ok = ok and t @ t == BitMatrix.identity(2 * n)
        ok = ok and all(tildes[j - 1] == tilde_printed(n, j)
                        for j in range(1, 2 * n + 2))
    orders = [faithfulness_check(n).subgroup_order for n in (1, 2, 3)]
    ok = ok and orders == [6, 720, 40320]
    _report("8", ok, f"T self-inverse, tilde-S_j match printed forms, "
                     f"<S_j> orders {orders} = [|S_3|, 6!, 8!]")


def test_criterion_09_gate_synthesis():
    ctx2 = RepContext(2)
    cz = synthesize(ctx2, cz_gate(2, 1, 2))
    ok = (cz.verdict == "realizable" and len(cz.word) == 3
          and eval_word(ctx2, cz.word) == cz_gate(2, 1, 2))
    sw = synthesize(ctx2, swap_gate(2, 1, 2))
    ok = ok and sw.verdict == "realizable" and \
        eval_word(ctx2, sw.word) == swap_gate(2, 1, 2).mul_zeta(sw.phase_power)
    word = BraidWord(((2, 1), (3, 1), (1, 1), (2, 1)))
    ok = ok and eval_word(ctx2, word) == \
        (cz_gate(2, 1, 2) @ swap_gate(2, 1, 2)).mul_zeta(2)
    had_ok = True
    for n in (1, 2):
        ctx = RepContext(n)
        _, mat = named_gate(ctx, "hadamard_last")
        h = hadamard_gate(n, n)
        had_ok = had_ok and mat.projective_canonical()[1] == h.projective_canonical()[1]
    ok = ok and had_ok
    _report("9", ok, f"BFS finds CZ word '{cz.word.to_text()}' (length 3) and a SWAP "
                     f"word '{sw.word.to_text()}'; pair exchange = i*CZ*SWAP; "
                     "Hadamard-on-last-qubit words match H up to a zeta power (n = 1, 2)")


def test_criterion_10a_swap_embedding_obstructed():
    ctx = RepContext(3)
    res = reachability(ctx, swap_gate(3, 1, 2))
    _report("10a", res.verdict == "obstruction",
            "S_(SWAP x I) lies outside <S_1..S_7> (subgroup order 40320 in "
            f"Sp_6(2) of order {sp_order(3, 2)})")


def _pair_exchange_word(j: int) -> BraidWord:
    """R_2j R_2j+1 R_2j-1 R_2j, the braid exchanging qubits j and j+1."""
    return BraidWord(((2 * j, 1), (2 * j + 1, 1), (2 * j - 1, 1), (2 * j, 1)))


def _majorana_pair_vectors(ctx: RepContext) -> dict[int, tuple[int, int]]:
    """The Pauli vectors x_ab = w_a + ... + w_(b-1) of the Majorana pair
    operators gamma_a gamma_b, 1 <= a < b <= 2n+2, keyed to (a, b); w_j is
    the vector of the Pauli that square_formulas gives for R_j^2."""
    w = {j: p.x for j, p in square_formulas(ctx)}
    pairs = {}
    for a, b in combinations(range(1, ctx.strands + 1), 2):
        pairs[reduce(xor, (w[k] for k in range(a, b)))] = (a, b)
    return pairs


def test_criterion_10b_cz_embeddings_as_stated():
    # Criterion 10 was first stated with S_(CZ-embeddings) inside <S_1..S_7>.
    # That is false: the pair exchange R_2j R_2j+1 R_2j-1 R_2j evaluates
    # exactly to i CZ(j,j+1) SWAP(j,j+1), so S_CZ = S_word S_SWAP with S_word
    # in <S_1..S_7>, and CZ(j,j+1) sits in the coset of SWAP(j,j+1), which
    # 10a certifies is unreachable.  What holds is asserted instead: the pair
    # exchange CZ.SWAP is reachable and the adjacent CZ embeddings are not.
    # Braiding only permutes Majorana modes (Ivanov's rule), so every S_j
    # permutes the pair vectors x_ab, while each S_CZ sends some outside the
    # set; this certificate does not use the symplectic_subgroup enumeration.
    identity_ok = True
    for parity in (1, -1):
        ctx = RepContext(3, parity)
        for j in (1, 2):
            cz, swap = cz_gate(3, j, j + 1), swap_gate(3, j, j + 1)
            exchange = eval_word(ctx, _pair_exchange_word(j))
            identity_ok = (identity_ok and exchange == (cz @ swap).mul_zeta(2)
                           and clifford_check(cz).s ==
                           clifford_check(exchange).s @ clifford_check(swap).s)

    ctx = RepContext(3)
    verdicts = {}
    for j in (1, 2):
        verdicts[f"CZ({j},{j + 1})"] = reachability(ctx, cz_gate(3, j, j + 1)).verdict
        verdicts[f"exchange({j},{j + 1})"] = \
            reachability(ctx, eval_word(ctx, _pair_exchange_word(j))).verdict
    verdicts_ok = verdicts == {"CZ(1,2)": "obstruction", "exchange(1,2)": "reachable",
                               "CZ(2,3)": "obstruction", "exchange(2,3)": "reachable"}

    pairs = _majorana_pair_vectors(ctx)
    breaking = [j for j in range(1, 8)
                if any(braid_symplectic(3, j).mul_vec(x) not in pairs for x in pairs)]
    escapes = {}
    for j in (1, 2):
        s_cz = clifford_check(cz_gate(3, j, j + 1)).s
        escapes[f"CZ({j},{j + 1})"] = sorted(pairs[x] for x in pairs
                                             if s_cz.mul_vec(x) not in pairs)
    certificate_ok = len(pairs) == 28 and not breaking and all(escapes.values())

    _report("10b", identity_ok and verdicts_ok and certificate_ok,
            "pair exchange = i*CZ(j,j+1)*SWAP(j,j+1) exactly and S_CZ = S_word*S_SWAP "
            f"(j = 1, 2, both parities): {identity_ok}; reachability {verdicts}; "
            f"{len(pairs)} Majorana pair vectors, S_j not preserving them: "
            f"{breaking or 'none'}; first pairs sent outside by "
            + ", ".join(f"{g}: {e[:3]}" for g, e in escapes.items()))


def test_criterion_10c_coverage_ratio():
    r = coverage_ratio(3)
    _report("10c", r == 36, f"coverage_ratio(3) = {r} = 92897280/2580480")


def test_criterion_11_fusion_combinatorics():
    ok = count_paths(8, 1) == 8 and count_paths(8, -1) == 8
    for num_sigma in range(2, 18, 2):
        for parity in (1, -1):
            ok = ok and len(enumerate_paths(num_sigma, parity)) == \
                count_paths(num_sigma, parity)
    _report("11", ok, "count_paths(8, +/-) = 8; exhaustive enumeration agrees "
                      "up to 16 sigma fields")
