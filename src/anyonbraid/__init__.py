"""Exact braid-group representations of Ising anyons: the gamma-matrix
construction of the exchange generators, the Pauli/Clifford/symplectic
tower over GF(2), finite group enumeration, and braiding gate synthesis.
"""

from .braid import (BraidWord, RepContext, braid_generator, braid_generator_inverse,
                    eval_word, monodromy, monodromy_closed_form, named_gate,
                    phase_element, rep_identity, square_formulas)
from .fusion import FusionLabel, FusionPath, count_paths, enumerate_paths
from .gamma import compress_matrix, expand_matrix, gamma, gamma_f, projector
from .gf2 import BitMatrix, is_symplectic, omega_matrix
from .groups import (EnumerationCapExceeded, GroupEnumeration, braid_image, dimino,
                     enumerate_group, monodromy_equals_pauli)
from .matrix import DenseMatrix
from .pauli import PauliElement, pauli_basis_decompose, symplectic_form
from .ring import CycScalar
from .symplectic import (CliffordAction, NonClifford, braid_symplectic,
                         clifford_check, faithfulness_check, group_orders,
                         sp_order, tilde_basis)
from .synth import (SynthResult, clifford_word_via_quotient, coverage_ratio,
                    exact_clifford_word, missing_gate_report, reachability,
                    synthesize)

__all__ = [
    "BitMatrix", "BraidWord", "CliffordAction", "CycScalar", "DenseMatrix",
    "EnumerationCapExceeded", "FusionLabel", "FusionPath", "GroupEnumeration",
    "NonClifford", "PauliElement", "RepContext", "SynthResult",
    "braid_generator", "braid_generator_inverse", "braid_image",
    "braid_symplectic", "clifford_check", "clifford_word_via_quotient",
    "compress_matrix", "count_paths", "coverage_ratio", "dimino",
    "enumerate_group", "enumerate_paths", "eval_word", "exact_clifford_word",
    "expand_matrix", "faithfulness_check", "gamma", "gamma_f", "group_orders",
    "is_symplectic", "missing_gate_report", "monodromy", "monodromy_closed_form",
    "monodromy_equals_pauli", "named_gate", "omega_matrix", "pauli_basis_decompose",
    "phase_element", "projector", "reachability", "rep_identity", "sp_order",
    "square_formulas", "symplectic_form", "synthesize", "tilde_basis",
]

__version__ = "0.1.0"
