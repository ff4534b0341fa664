from itertools import product

import numpy as np
import pytest

from rpsim.paulis import pauli_string_matrix, signed_permutation

from util import pauli_string_oracle


def _strings():
    """All 84 strings of length 1-3 plus a fixed sample of 4-letter ones."""
    short = [s for n in (1, 2, 3) for s in product("IXYZ", repeat=n)]
    rng = np.random.default_rng(4)
    long = [tuple(rng.choice(list("IXYZ"), size=4)) for _ in range(32)]
    return short + long


def test_signed_permutation_matches_kron_oracle():
    strings = _strings()
    assert len(strings) == 84 + 32
    for letters in strings:
        want = pauli_string_oracle(letters)
        d = want.shape[0]
        perm, phase = signed_permutation(letters)
        assert sorted(perm) == list(range(d)), letters
        # the one nonzero entry of row i sits at column perm[i]
        rebuilt = np.zeros_like(want)
        for i in range(d):
            rebuilt[i, perm[i]] = phase[i]
        assert np.array_equal(rebuilt, want), letters
        assert np.array_equal(pauli_string_matrix(letters), want), letters


def test_signed_permutation_rejects_unknown_letter():
    with pytest.raises(ValueError, match="Pauli letter"):
        signed_permutation(("X", "W"))
