"""Exact constructors for the standard gates used as synthesis targets.

All act on the big-endian n-qubit computational basis (qubit 1 is the
most significant bit), matching the compressed representation basis.
"""

from __future__ import annotations

import numpy as np

from .gamma import PAULIS, kron_chain
from .matrix import DenseMatrix
from .ring import INV_SQRT2


def _bit(x: int, n: int, q: int) -> int:
    return (x >> (n - q)) & 1


def pauli_gate(n: int, qubit: int, axis: int) -> DenseMatrix:
    if not 1 <= qubit <= n:
        raise IndexError("qubit out of range")
    factors = [PAULIS[0]] * n
    factors[qubit - 1] = PAULIS[axis]
    return kron_chain(factors)


def phase_gate(n: int, qubit: int) -> DenseMatrix:
    """diag(1, i) on one qubit."""
    if not 1 <= qubit <= n:
        raise IndexError("qubit out of range")
    d = 2 ** n
    planes = np.zeros((4, d, d), dtype=np.int64)
    for x in range(d):
        if _bit(x, n, qubit):
            planes[2, x, x] = 1
        else:
            planes[0, x, x] = 1
    return DenseMatrix(planes, 0, _normalized=True)


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
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise IndexError("need two distinct qubits in range")
    d = 2 ** n
    planes = np.zeros((4, d, d), dtype=np.int64)
    for x in range(d):
        planes[0, x, x] = -1 if _bit(x, n, a) and _bit(x, n, b) else 1
    return DenseMatrix(planes, 0, _normalized=True)


def swap_gate(n: int, a: int, b: int) -> DenseMatrix:
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise IndexError("need two distinct qubits in range")
    d = 2 ** n
    planes = np.zeros((4, d, d), dtype=np.int64)
    for x in range(d):
        ba, bb = _bit(x, n, a), _bit(x, n, b)
        y = x
        if ba != bb:
            y ^= (1 << (n - a)) | (1 << (n - b))
        planes[0, y, x] = 1
    return DenseMatrix(planes, 0, _normalized=True)


def cnot_gate(n: int, control: int, target: int) -> DenseMatrix:
    if control == target or not (1 <= control <= n and 1 <= target <= n):
        raise IndexError("need two distinct qubits in range")
    d = 2 ** n
    planes = np.zeros((4, d, d), dtype=np.int64)
    for x in range(d):
        y = x ^ (1 << (n - target)) if _bit(x, n, control) else x
        planes[0, y, x] = 1
    return DenseMatrix(planes, 0, _normalized=True)


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
