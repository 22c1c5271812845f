"""Exact constructors for the standard gates used as synthesis targets.

All act on the big-endian n-qubit computational basis (qubit 1 is the
most significant bit), matching the compressed representation basis.
Every gate but the Hadamard is a phased permutation of the basis,
G[r, perm[r]] = z^zpow[r], built by DenseMatrix.phased_permutation.
"""

from __future__ import annotations

import numpy as np

from .gamma import kron_chain
from .matrix import DenseMatrix
from .pauli import PauliElement
from .ring import INV_SQRT2


def _bits(n: int, q: int) -> np.ndarray:
    """Qubit q's bit of every basis index 0..2^n - 1."""
    return (np.arange(2 ** n) >> (n - q)) & 1


def _check_pair(n: int, a: int, b: int) -> None:
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise IndexError("need two distinct qubits in range")


def pauli_gate(n: int, qubit: int, axis: int) -> DenseMatrix:
    return PauliElement.single(n, qubit, axis).to_matrix()


def phase_gate(n: int, qubit: int) -> DenseMatrix:
    """diag(1, i) on one qubit."""
    if not 1 <= qubit <= n:
        raise IndexError("qubit out of range")
    return DenseMatrix.phased_permutation(np.arange(2 ** n), 2 * _bits(n, qubit))


def hadamard_gate(n: int, qubit: int) -> DenseMatrix:
    if not 1 <= qubit <= n:
        raise IndexError("qubit out of range")
    h = DenseMatrix.from_entries([
        [INV_SQRT2, INV_SQRT2],
        [INV_SQRT2, -INV_SQRT2],
    ])
    factors = [DenseMatrix.identity(2)] * n
    factors[qubit - 1] = h
    return kron_chain(factors)


def cz_gate(n: int, a: int, b: int) -> DenseMatrix:
    """diag(-1 where both control bits are 1); symmetric in a, b."""
    _check_pair(n, a, b)
    return DenseMatrix.phased_permutation(np.arange(2 ** n), 4 * (_bits(n, a) & _bits(n, b)))


def swap_gate(n: int, a: int, b: int) -> DenseMatrix:
    _check_pair(n, a, b)
    flip = (_bits(n, a) ^ _bits(n, b)) * ((1 << n - a) | (1 << n - b))
    return DenseMatrix.phased_permutation(np.arange(2 ** n) ^ flip, 0)


def cnot_gate(n: int, control: int, target: int) -> DenseMatrix:
    _check_pair(n, control, target)
    flip = _bits(n, control) << (n - target)
    return DenseMatrix.phased_permutation(np.arange(2 ** n) ^ flip, 0)


def parse_gate_target(n: int, spec: str) -> DenseMatrix:
    """Parse CLI target syntax: cz:1,2 | swap:1,2 | cnot:1,2 | h:1 | p:1 |
    x:1 | y:1 | z:1 | identity."""
    spec = spec.strip()
    if spec == "identity":
        return DenseMatrix.identity(2 ** n)
    if ":" not in spec:
        raise ValueError(f"bad target {spec!r}")
    name, args = spec.split(":", 1)
    parts = [int(p) for p in args.split(",") if p]
    one = {"h": hadamard_gate, "p": phase_gate}
    paulis = {"x": 1, "y": 2, "z": 3}
    two = {"cz": cz_gate, "swap": swap_gate, "cnot": cnot_gate}
    if name in one and len(parts) == 1:
        return one[name](n, parts[0])
    if name in paulis and len(parts) == 1:
        return pauli_gate(n, parts[0], paulis[name])
    if name in two and len(parts) == 2:
        return two[name](n, parts[0], parts[1])
    raise ValueError(f"bad target {spec!r}")
