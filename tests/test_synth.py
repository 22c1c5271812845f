import itertools
import json
import os
import random
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anyonbraid.synth as synth
from anyonbraid.braid import BraidWord, RepContext, eval_word
from anyonbraid.gates import (cnot_gate, cz_gate, hadamard_gate, parse_gate_target,
                              pauli_gate, phase_gate, swap_gate)
from anyonbraid.gf2 import StabiliserChain
from anyonbraid.matrix import DenseMatrix
from anyonbraid.ring import CycScalar
from anyonbraid.symplectic import braid_symplectic, clifford_check, symplectic_subgroup
from anyonbraid.synth import (clifford_word_via_quotient, coverage_ratio,
                              exact_clifford_word, missing_gate_report,
                              reachability, synthesize)

# reproducible examples, no example database left in the working tree
EXACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)
GOLDEN_DIR = Path(__file__).parent / "golden"


def test_identity_synthesis_is_empty_word():
    res = synthesize(RepContext(1), DenseMatrix.identity(2))
    assert res.verdict == "realizable"
    assert res.word.letters == ()
    assert res.phase_power == 0


def test_cz_word_rediscovered():
    ctx = RepContext(2)
    res = synthesize(ctx, cz_gate(2, 1, 2))
    assert res.verdict == "realizable"
    assert len(res.word) == 3
    assert res.word.to_text() == "1 3 -5"
    assert res.phase_power == 0
    assert eval_word(ctx, res.word) == cz_gate(2, 1, 2)


def test_cz_word_minimality_exhaustive():
    ctx = RepContext(2)
    target_canon = cz_gate(2, 1, 2).projective_canonical()[1]
    letters = [x for j in range(1, 6) for x in (j, -j)]
    for depth in (1, 2):
        for seq in itertools.product(letters, repeat=depth):
            word = [(abs(x), 1 if x > 0 else -1) for x in seq]
            assert eval_word(ctx, word).projective_canonical()[1] != target_canon


def test_swap_synthesis():
    ctx = RepContext(2)
    res = synthesize(ctx, swap_gate(2, 1, 2))
    assert res.verdict == "realizable"
    assert len(res.word) <= 8
    ev = eval_word(ctx, res.word)
    assert ev == swap_gate(2, 1, 2).mul_zeta(res.phase_power)


def test_search_makes_no_matrix_product(monkeypatch):
    """The BFS expands states by the letter rule: a depth-7 search makes
    no more exact products than a depth-1 one (only the checks do)."""
    import anyonbraid.matrix as matrix
    calls = []
    product = matrix._product

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(matrix, "_product", counted)
    counts = {}
    for spec, depth in (("p:1", 1), ("swap:1,2", 7)):
        calls.clear()
        res = synthesize(RepContext(2), parse_gate_target(2, spec))
        assert res.depth == depth
        counts[spec] = len(calls)
    assert counts["swap:1,2"] <= counts["p:1"]


def test_synthesize_validates_input():
    ctx = RepContext(2)
    with pytest.raises(ValueError):
        synthesize(ctx, DenseMatrix.identity(8))
    with pytest.raises(ValueError):
        synthesize(ctx, DenseMatrix.from_entries(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_non_clifford_target_unrealizable_with_witness():
    t = DenseMatrix.from_entries([[1, 0], [0, CycScalar(0, 1, 0, 0)]])
    res = synthesize(RepContext(1), t)
    assert res.verdict == "unrealizable"
    assert res.obstruction["verdict"] == "not_clifford"
    assert "witness" in res.obstruction


def test_depth_exhaustion():
    ctx = RepContext(2)
    res = synthesize(ctx, swap_gate(2, 1, 2), max_depth=2)
    assert res.verdict == "exhausted"
    assert res.depth == 2


def two_qubit_clifford_targets():
    yield cz_gate(2, 1, 2)
    yield swap_gate(2, 1, 2)
    yield cnot_gate(2, 1, 2)
    yield hadamard_gate(2, 1)
    yield hadamard_gate(2, 2)
    yield phase_gate(2, 1)
    for q in (1, 2):
        for axis in (1, 2, 3):
            yield pauli_gate(2, q, axis)


def test_synthesize_and_reachability_agree_for_two_qubits():
    ctx = RepContext(2)
    for target in two_qubit_clifford_targets():
        reach = reachability(ctx, target)
        assert reach.verdict == "reachable"  # PC_2 is fully covered
        res = synthesize(ctx, target)
        assert res.verdict == "realizable"
        assert eval_word(ctx, res.word) == target.mul_zeta(res.phase_power)


def test_synthesize_agrees_on_random_braid_words():
    rng = random.Random(61)
    ctx = RepContext(1)
    for _ in range(10):
        letters = [(rng.randrange(1, 4), rng.choice((1, -1)))
                   for _ in range(rng.randrange(1, 8))]
        target = eval_word(ctx, letters)
        res = synthesize(ctx, target)
        assert res.verdict == "realizable"
        assert len(res.word) <= len(letters)


def test_reachability_n3_swap_and_cz_embeddings():
    # Adjacent-pair SWAP and CZ embeddings share a symplectic coset
    # (pair exchange = i CZ.SWAP is a braid word), so both are obstructed;
    # the non-adjacent SWAP(1,3) embedding turns out reachable.
    ctx = RepContext(3)
    assert reachability(ctx, swap_gate(3, 1, 2)).verdict == "obstruction"
    assert reachability(ctx, swap_gate(3, 2, 3)).verdict == "obstruction"
    assert reachability(ctx, cz_gate(3, 1, 2)).verdict == "obstruction"
    assert reachability(ctx, cz_gate(3, 2, 3)).verdict == "obstruction"
    assert reachability(ctx, cz_gate(3, 1, 3)).verdict == "obstruction"
    assert reachability(ctx, swap_gate(3, 1, 3)).verdict == "reachable"


def test_swap13_constructive_certificate():
    ctx = RepContext(3)
    target = swap_gate(3, 1, 3)
    word, p = clifford_word_via_quotient(ctx, target)
    assert eval_word(ctx, word) == target.mul_zeta(p)
    exact = exact_clifford_word(ctx, target)
    assert eval_word(ctx, exact) == target


def test_quotient_synthesis_two_qubits():
    ctx = RepContext(2)
    for target in (cz_gate(2, 1, 2), swap_gate(2, 1, 2), cnot_gate(2, 1, 2)):
        word, p = clifford_word_via_quotient(ctx, target)
        assert eval_word(ctx, word) == target.mul_zeta(p)


def test_exact_word_rejects_odd_phase_targets():
    # H itself is not in the strict image, only zeta*H
    with pytest.raises(ValueError):
        exact_clifford_word(RepContext(1), hadamard_gate(1, 1))


def test_coverage_ratios():
    assert coverage_ratio(1) == 1
    assert coverage_ratio(2) == 1
    assert coverage_ratio(3) == 36


def test_missing_gate_report():
    rep = missing_gate_report(3)
    assert rep.subgroup_order == 40320
    assert rep.sp_full_order == 1451520
    assert rep.coset_count == 36
    assert rep.swap_pairs_obstructed == ((1, 2), (2, 3))
    assert rep.swap_pairs_reachable == ((1, 3),)


@pytest.mark.slow
def test_missing_gate_report_generation():
    # braid image plus one obstructed SWAP generates the full Sp_6(2)
    rep = missing_gate_report(3, check_generation=True)
    assert rep.swap_plus_braid_generates_sp is True
    golden = (GOLDEN_DIR / "missing_gates_n3_generation.json").read_text(encoding="utf-8")
    assert json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n" == golden


def test_heavy_bfs_requires_opt_in():
    ctx = RepContext(3)
    with pytest.raises(ValueError):
        synthesize(ctx, swap_gate(3, 1, 3))
    res = synthesize(ctx, swap_gate(3, 1, 3), max_depth=1)
    assert res.verdict == "exhausted"


@st.composite
def braid_words(draw, qubits):
    """A context of n qubits in qubits, either parity, and a random braid word."""
    n = draw(st.sampled_from(qubits))
    ctx = RepContext(n, draw(st.sampled_from((1, -1))))
    letters = draw(st.lists(st.tuples(st.integers(1, ctx.generator_count),
                                      st.sampled_from((1, -1))), max_size=14))
    return ctx, BraidWord(tuple(letters))


@EXACT
@given(braid_words((1, 2, 3, 4, 5)))
def test_braid_words_reachable_and_quotient_round_trips(data):
    ctx, word = data
    target = eval_word(ctx, word)
    reach = reachability(ctx, target)
    assert reach.verdict == "reachable"
    assert reach.s_target == clifford_check(target).s
    assert reach.subgroup_order == factorial(3 if ctx.n_qubits == 1 else 2 * ctx.n_qubits + 2)
    quotient, p = clifford_word_via_quotient(ctx, target)
    assert eval_word(ctx, quotient) == target.mul_zeta(p)


@EXACT
@given(braid_words((3, 4)))
def test_braid_word_times_swap_is_obstructed(data):
    ctx, word = data
    res = reachability(ctx, eval_word(ctx, word) @ swap_gate(ctx.n_qubits, 1, 2))
    assert res.verdict == "obstruction"
    assert res.detail["escapes"]
    assert all(1 <= a < b <= ctx.strands for a, b in res.detail["escapes"])
    with pytest.raises(ValueError):
        clifford_word_via_quotient(ctx, eval_word(ctx, word) @ swap_gate(ctx.n_qubits, 1, 2))


def _gates(n):
    """Every SWAP and CZ embedding on n qubits."""
    for a, b in itertools.combinations(range(1, n + 1), 2):
        yield swap_gate(n, a, b)
        yield cz_gate(n, a, b)


@EXACT
@given(braid_words((1, 2, 3)), st.lists(st.integers(0, 5), max_size=3))
def test_verdicts_equal_enumerated_membership(data, picks):
    # braid words interleaved with SWAP and CZ embeddings reach both verdicts
    ctx, word = data
    n = ctx.n_qubits
    gates = list(_gates(n)) or [hadamard_gate(1, 1)]
    target = eval_word(ctx, word)
    for i in picks:
        target = target @ gates[i % len(gates)] @ eval_word(ctx, word)
    res = reachability(ctx, target)
    sub = symplectic_subgroup(n)
    assert res.verdict == ("reachable" if res.s_target in sub else "obstruction")
    assert res.subgroup_order == len(sub)


def test_majorana_table_has_one_vector_per_pair():
    assert len(synth._majorana_table(1)) == 3
    for n in range(2, 9):
        assert sorted(synth._majorana_table(n).values()) == \
            list(itertools.combinations(range(1, 2 * n + 3), 2))


@pytest.mark.parametrize("n", [1, 2])
def test_every_subgroup_element_is_spelled_exactly(n):
    # Sp_2(2) and Sp_4(2) are the whole braid image; each element gets a word
    for s in symplectic_subgroup(n):
        letters, escapes = synth._majorana_letters(n, s)
        assert escapes == []
        product = s.identity(2 * n)
        for j in letters:
            product = product @ braid_symplectic(n, j)
        assert product == s


@pytest.mark.parametrize("swap_in, message", [
    # S_4 replaced by S_SWAP(1,2): the table check fails when it is built,
    # which is what makes an obstruction a certificate
    (lambda n: clifford_check(swap_gate(n, 1, 2)).s, "S_4 does not permute"),
    # S_4 replaced by S_3 S_4 S_3, which permutes the pairs as (3 5): the
    # table check passes and only the exact product check catches it
    (lambda n: braid_symplectic(n, 3) @ braid_symplectic(n, 4) @ braid_symplectic(n, 3),
     "does not reproduce"),
])
def test_wrong_printed_generator_raises(monkeypatch, swap_in, message):
    def printed(n, j):
        return swap_in(n) if j == 4 else braid_symplectic(n, j)

    synth._majorana_table.cache_clear()
    monkeypatch.setattr(synth, "braid_symplectic", printed)
    try:
        with pytest.raises(RuntimeError, match=message):
            reachability(RepContext(3), swap_gate(3, 1, 3))
    finally:
        synth._majorana_table.cache_clear()


@pytest.mark.parametrize("n", [4, 5])
def test_reach_agrees_with_chain_membership(n):
    # the stabiliser chain of <S_j> is an oracle independent of the Majorana
    # table: every SWAP and CZ embedding (all obstructed for n = 4, 5), and
    # braid words alone and times SWAP(1,2)
    chain = StabiliserChain([braid_symplectic(n, j) for j in range(1, 2 * n + 2)], 2 * n)
    assert chain.order() == factorial(2 * n + 2)
    ctx = RepContext(n)
    rng = random.Random(n)
    targets = list(_gates(n))
    for _ in range(3):
        word = BraidWord(tuple((rng.randint(1, ctx.generator_count), rng.choice((1, -1)))
                               for _ in range(6)))
        braid = eval_word(ctx, word)
        targets += [braid, braid @ swap_gate(n, 1, 2)]
    verdicts = set()
    for target in targets:
        res = reachability(ctx, target)
        assert res.verdict == ("reachable" if chain.contains(res.s_target) else "obstruction")
        assert res.subgroup_order == chain.order()
        verdicts.add(res.verdict)
    assert verdicts == {"reachable", "obstruction"}


@pytest.mark.skipif(not os.environ.get("ANYONBRAID_HEAVY"),
                    reason="enumerating <S_j> for n = 4 takes about 45 s and 900 MB; "
                           "set ANYONBRAID_HEAVY=1 to run")
def test_n4_embeddings_match_enumeration():
    ctx = RepContext(4)
    sub = symplectic_subgroup(4)
    for target in _gates(4):
        res = reachability(ctx, target)
        assert res.verdict == ("reachable" if res.s_target in sub else "obstruction")
        assert res.subgroup_order == len(sub)
