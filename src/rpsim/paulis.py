"""Pauli matrices and dense tensor-product embeddings.

Site ordering convention used everywhere in this package: site 0 is the
most significant bit of a computational basis index, so basis state
|b0 b1 ... b_{n-1}> has index b0*2^(n-1) + ... + b_{n-1}.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

LETTERS = ("I", "X", "Y", "Z")


def pauli_string_matrix(letters) -> np.ndarray:
    """Dense Kronecker product of single-site Paulis, site 0 first."""
    out = np.array([[1.0 + 0j]])
    for letter in letters:
        out = np.kron(out, PAULI[letter])
    return out
