import pytest

from anyonbraid.gates import (cnot_gate, cz_gate, hadamard_gate, parse_gate_target, pauli_gate,
                              phase_gate, swap_gate)
from oracles import gate_spec_entries


def assert_entries(mat, entries, label):
    d = len(entries)
    assert mat.dim == d, label
    for i in range(d):
        for j in range(d):
            assert mat.entry(i, j) == entries[i][j], (label, i, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gates_match_basis_action(n):
    """Each constructor, and parse_gate_target, entry by entry against the
    gate built from its action on the basis states."""
    qubits = range(1, n + 1)
    pairs = [(a, b) for a in qubits for b in qubits if a != b]
    cases = [("identity", None)]
    for q in qubits:
        cases += [(f"x:{q}", pauli_gate(n, q, 1)), (f"y:{q}", pauli_gate(n, q, 2)),
                  (f"z:{q}", pauli_gate(n, q, 3)), (f"p:{q}", phase_gate(n, q)),
                  (f"h:{q}", hadamard_gate(n, q))]
    for a, b in pairs:
        cases += [(f"cz:{a},{b}", cz_gate(n, a, b)), (f"swap:{a},{b}", swap_gate(n, a, b)),
                  (f"cnot:{a},{b}", cnot_gate(n, a, b))]
    for spec, mat in cases:
        entries = gate_spec_entries(n, spec)
        if mat is not None:
            assert_entries(mat, entries, spec)
        assert_entries(parse_gate_target(n, spec), entries, spec)


def test_gates_reject_bad_qubits():
    for make in (lambda: pauli_gate(2, 3, 1), lambda: phase_gate(2, 0),
                 lambda: cz_gate(2, 1, 1), lambda: swap_gate(2, 1, 3), lambda: cnot_gate(2, 0, 1)):
        with pytest.raises(IndexError):
            make()
