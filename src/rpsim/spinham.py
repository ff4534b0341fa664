"""Radical-pair spin Hamiltonians as sums of Pauli strings.

The model is two electron spins, each with an isotropic g-factor Zeeman
coupling to an external magnetic field, plus anisotropic hyperfine
couplings between electrons and attached spin-1/2 nuclei:

    H = sum_e g_e mu_B B . S_e  +  sum_i S_e(i) . A_i . I_i

with dimensionless spin operators S = sigma/2, hyperfine tensors A_i in
energy units (neV), and fields in mT. Expanding the spin operators in
Pauli matrices gives Zeeman coefficients g mu_B B_alpha / 2 and
hyperfine coefficients A_ab / 4, which is the form this module emits.

Units: energies in neV, times in us, rates in MHz, fields in mT.
Angular frequencies are then energy / hbar with hbar in neV*us.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .paulis import signed_permutation

HBAR_NEV_US = 0.6582119569
"""Reduced Planck constant in neV*us."""

BOHR_MAGNETON_NEV_PER_MT = 57.8838
"""Bohr magneton in neV/mT."""

_AXES = "xyz"
_AXIS_LETTER = {"x": "X", "y": "Y", "z": "Z"}


@dataclass(frozen=True)
class PauliTerm:
    """One additive Hamiltonian component: c * (tensor product of Paulis).

    Attributes:
        coefficient: real prefactor in neV.
        letters: one of I, X, Y, Z per spin site.
    """

    coefficient: float
    letters: tuple[str, ...]

    def __post_init__(self):
        if not np.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        bad = set(self.letters) - {"I", "X", "Y", "Z"}
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return sum(1 for s in self.letters if s != "I")


@dataclass(frozen=True, eq=False)
class RadicalPairSystem:
    """Physical parameters and site layout of a radical pair.

    Qubit layout is fixed: qubit 0 = electron 1, qubit 1 = electron 2,
    qubits 2.. = nuclei in declaration order.

    Attributes:
        field_magnitude: magnetic flux density B in mT.
        theta: polar angle of the field in radians.
        phi: azimuthal angle of the field in radians.
        g_factors: dimensionless g-factor per electron (g1, g2).
        bohr_magneton: mu_B in neV/mT.
        hbar: reduced Planck constant in neV*us.
        nuclei: (attached_electron_index, 3x3 hyperfine tensor in neV)
            per nucleus.
        k_singlet: singlet recombination rate in MHz.
        k_triplet: triplet recombination rate in MHz.
    """

    field_magnitude: float
    theta: float = 0.0
    phi: float = 0.0
    g_factors: tuple[float, float] = (2.0, 2.0)
    bohr_magneton: float = BOHR_MAGNETON_NEV_PER_MT
    hbar: float = HBAR_NEV_US
    nuclei: tuple = ()
    k_singlet: float = 0.0
    k_triplet: float = 0.0

    def __post_init__(self):
        if self.field_magnitude < 0:
            raise ValueError("field_magnitude must be >= 0")
        if self.k_singlet < 0 or self.k_triplet < 0:
            raise ValueError("recombination rates must be >= 0")
        if len(self.g_factors) != 2:
            raise ValueError("exactly two electron g-factors required")
        if self.hbar <= 0 or self.bohr_magneton <= 0:
            raise ValueError("hbar and bohr_magneton must be positive")
        nuclei = []
        for electron, tensor in self.nuclei:
            if electron not in (0, 1):
                raise ValueError("nucleus must attach to electron 0 or 1")
            arr = np.asarray(tensor, dtype=float)
            if arr.shape != (3, 3):
                raise ValueError("hyperfine tensor must be 3x3")
            nuclei.append((int(electron), arr))
        object.__setattr__(self, "nuclei", tuple(nuclei))

    @property
    def n_nuclei(self) -> int:
        return len(self.nuclei)

    @property
    def n_sites(self) -> int:
        return 2 + self.n_nuclei

    def field_vector(self) -> np.ndarray:
        """Cartesian field components (B_x, B_y, B_z) in mT."""
        b, th, ph = self.field_magnitude, self.theta, self.phi
        return np.array(
            [b * np.sin(th) * np.cos(ph), b * np.sin(th) * np.sin(ph), b * np.cos(th)]
        )

    def with_angles(self, theta: float, phi: float | None = None) -> "RadicalPairSystem":
        """Copy of this system with a new field orientation."""
        return replace(self, theta=theta, phi=self.phi if phi is None else phi)

    def content_hash(self) -> str:
        """Deterministic hash of all physical parameters."""
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self.field_magnitude,
                    self.theta,
                    self.phi,
                    tuple(self.g_factors),
                    self.bohr_magneton,
                    self.hbar,
                    tuple((e, t.tolist()) for e, t in self.nuclei),
                    self.k_singlet,
                    self.k_triplet,
                )
            ).encode()
        )
        return h.hexdigest()[:16]


def prototype_system(theta: float = 0.0, phi: float = 0.0, **overrides) -> RadicalPairSystem:
    """Two electrons and one spin-1/2 nucleus with an axial hyperfine tensor.

    Defaults: B = 0.05 mT, g1 = g2 = 2, one nucleus on electron 0 with
    A = diag(5, 5, 10) neV (so A_x = A_y = A_z/2), k_S = k_T = 1 MHz.
    """
    params = dict(
        field_magnitude=0.05,
        theta=theta,
        phi=phi,
        g_factors=(2.0, 2.0),
        nuclei=((0, np.diag([5.0, 5.0, 10.0])),),
        k_singlet=1.0,
        k_triplet=1.0,
    )
    params.update(overrides)
    return RadicalPairSystem(**params)


def build_pauli_terms(system: RadicalPairSystem) -> list[PauliTerm]:
    """Expand the Hamiltonian into an ordered list of Pauli terms.

    Order is fixed so compiled circuits are reproducible byte for byte:
    electron-1 Zeeman (x, y, z), electron-2 Zeeman (x, y, z), then per
    nucleus the nine (electron-axis, nucleus-axis) pairs in row-major
    order. Zero-coefficient terms are retained; dropping them is a
    lowering-time policy.

    Returns:
        PauliTerm list; Zeeman coefficients g mu_B B_alpha / 2 (neV),
        hyperfine coefficients A_ab / 4 (neV).
    """
    n = system.n_sites
    field = system.field_vector()
    terms: list[PauliTerm] = []
    for electron in range(2):
        g = system.g_factors[electron]
        for axis in range(3):
            letters = ["I"] * n
            letters[electron] = _AXIS_LETTER[_AXES[axis]]
            coeff = g * system.bohr_magneton * field[axis] / 2.0
            terms.append(PauliTerm(coeff, tuple(letters)))
    for position, (electron, tensor) in enumerate(system.nuclei):
        nucleus_site = 2 + position
        for row in range(3):
            for col in range(3):
                letters = ["I"] * n
                letters[electron] = _AXIS_LETTER[_AXES[row]]
                letters[nucleus_site] = _AXIS_LETTER[_AXES[col]]
                terms.append(PauliTerm(tensor[row, col] / 4.0, tuple(letters)))
    return terms


def to_dense_matrix(terms: Sequence[PauliTerm], n_sites: int) -> np.ndarray:
    """Sum the terms into a dense Hermitian matrix of dimension 2**n_sites.

    Raises:
        ValueError: if any term's letter count differs from n_sites.
    """
    dim = 2**n_sites
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        if len(term.letters) != n_sites:
            raise ValueError(
                f"term has {len(term.letters)} letters, expected {n_sites}"
            )
        if term.coefficient == 0.0:
            continue
        perm, phase = signed_permutation(term.letters)
        out[rows, perm] += term.coefficient * phase
    return out
