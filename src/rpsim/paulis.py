"""Pauli matrices and Pauli strings as signed permutations.

Site ordering convention used everywhere in this package: site 0 is the
most significant bit of a computational basis index, so basis state
|b0 b1 ... b_{n-1}> has index b0*2^(n-1) + ... + b_{n-1}.

A Pauli string P = P_0 (x) ... (x) P_{n-1} has exactly one nonzero entry
per row: P[i, perm[i]] = phase[i], where perm flips the bits of the X
and Y sites and phase is a product of per-site factors (Z: (-1)^b,
Y: -i (-1)^b, for the site's row bit b). `signed_permutation` returns
that (perm, phase) pair, the one representation the engines use; the
dense matrix is built from it.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}

LETTERS = ("I", "X", "Y", "Z")


def signed_permutation(letters) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phase) of a Pauli string, site 0 first: P[i, perm[i]] = phase[i].

    perm is an int array and phase a complex array with entries in
    {1, -1, 1j, -1j}, both of length 2**len(letters).
    """
    n = len(letters)
    rows = np.arange(2**n)
    perm = rows.copy()
    phase = np.ones(2**n, dtype=complex)
    for site, letter in enumerate(letters):
        if letter not in PAULI:
            raise ValueError(f"invalid Pauli letter {letter!r}")
        shift = n - 1 - site
        sign = 1 - 2 * ((rows >> shift) & 1)  # (-1)^b for row bit b
        if letter in "XY":
            perm ^= 1 << shift
        if letter == "Y":
            phase *= -1j * sign
        elif letter == "Z":
            phase *= sign
    return perm, phase


def pauli_string_matrix(letters) -> np.ndarray:
    """Dense matrix of a Pauli string, site 0 first."""
    perm, phase = signed_permutation(letters)
    out = np.zeros((perm.size, perm.size), dtype=complex)
    out[np.arange(perm.size), perm] = phase
    return out
