"""dipolarray: collective-excitation dynamics and decoherence on polar-molecule lattices.

Core pipeline: build a lattice geometry and its r^-3 coupling kernel, build
the spin Hamiltonian per excitation sector on the orbits of the lattice's
symmetry group, evolve the symmetric collective states to extract the
nonlinear phase and gate time, and quantify decoherence from non-symmetric
couplings (spin-wave channel) and crystal phonons.
"""

__version__ = "0.1.0"

from .basis import ResourceLimitError, dicke_state, sector_basis
from .dynamics import (
    GateNotReached,
    compute_trajectory,
    evolve,
    gate_time,
)
from .hamiltonian import (
    EffectiveGateParams,
    chi_eff,
    full_hamiltonian,
    gate_params,
    theta_analytic,
)
from .lattice import Lattice, build_lattice, coupling_kernel, momentum_grid
from .phonon import (
    PhononModel,
    UnstableCrystalError,
    build_phonon_model,
    dynamical_matrix,
    gamma1_fgr,
    gamma1_time,
    gamma2,
    sound_speeds,
)
from .spinwave import (
    dispersion,
    dispersion_asymptote_check,
    dispersion_curve,
    fgr_scaling_diagnostic,
    fourier_kernel,
    perturbative_decay2,
    spin_wave_energies,
)
from .stark import (
    MOLECULES,
    SRO,
    BasisNotConvergedError,
    MolecularParams,
    dressed_pair,
    rotor_eigensystem,
)

__all__ = [
    "__version__",
    "Lattice",
    "build_lattice",
    "coupling_kernel",
    "momentum_grid",
    "sector_basis",
    "dicke_state",
    "ResourceLimitError",
    "full_hamiltonian",
    "chi_eff",
    "gate_params",
    "theta_analytic",
    "EffectiveGateParams",
    "evolve",
    "compute_trajectory",
    "gate_time",
    "GateNotReached",
    "dispersion",
    "dispersion_curve",
    "dispersion_asymptote_check",
    "fourier_kernel",
    "spin_wave_energies",
    "perturbative_decay2",
    "fgr_scaling_diagnostic",
    "MolecularParams",
    "SRO",
    "MOLECULES",
    "rotor_eigensystem",
    "dressed_pair",
    "BasisNotConvergedError",
    "PhononModel",
    "UnstableCrystalError",
    "build_phonon_model",
    "dynamical_matrix",
    "sound_speeds",
    "gamma1_time",
    "gamma1_fgr",
    "gamma2",
]
