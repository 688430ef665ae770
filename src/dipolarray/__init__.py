"""dipolarray: collective-excitation dynamics and decoherence on polar-molecule lattices.

Core pipeline: build a lattice geometry and its r^-3 coupling kernel, build
the spin Hamiltonian per excitation sector on the orbits of the lattice's
symmetry group, take the symmetric collective states' projections from the
spectra of those orbit blocks (the one evolution path, in
:func:`compute_trajectory`) to extract the nonlinear phase and gate time,
and quantify decoherence from non-symmetric couplings (spin-wave channel)
and crystal phonons.  Every size-dependent table is checked against one
memory budget (:mod:`dipolarray.basis`) and refused with
:class:`ResourceLimitError` before it is built.
"""

__version__ = "0.1.0"

from .basis import ResourceLimitError
from .dynamics import GateNotReached, compute_trajectory, gate_time
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
    perturbative_decay2,
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
    "ResourceLimitError",
    "full_hamiltonian",
    "chi_eff",
    "gate_params",
    "theta_analytic",
    "EffectiveGateParams",
    "compute_trajectory",
    "gate_time",
    "GateNotReached",
    "dispersion",
    "dispersion_curve",
    "dispersion_asymptote_check",
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
    "sound_speeds",
    "gamma1_time",
    "gamma1_fgr",
    "gamma2",
]
