"""Exact braid-group representations of Ising anyons: the gamma-matrix
construction of the exchange generators, the Pauli/Clifford/symplectic
tower over GF(2), finite group enumeration, and braiding gate synthesis.
"""

__version__ = "0.1.0"
