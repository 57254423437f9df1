"""Lorentz-boost effects on photonic entanglement distribution between
satellites: aberration and Wigner phases, the three distribution protocols,
diffraction-degraded entanglement, purification, and link budgets."""

from .diffraction import (
    QuadratureGrid,
    diffracted_reduced_type1,
    make_grid,
)
from .errors import (
    ConfigError,
    DegenerateProtocolError,
    DomainError,
    NumericalConsistencyError,
)
from .lorentz import approx_transform_theta, boost_z, wigner_phases
from .purification import (
    LinkParams,
    PurificationTrace,
    RoundResult,
    attenuation,
    bell_target,
    photon_budget,
    photons_required,
    purify_round,
)
from .quantum import fidelity_to_pure, negativity, purity
from .states import type2_amplitudes, type3_amplitudes

__version__ = "0.1.0"
