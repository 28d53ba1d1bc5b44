"""Two-mode cavity QED frequency up/down-conversion on truncated Fock spaces.

A single driven three-level atom crossing a two-mode cavity acts as a
nonlinear medium: in the dispersive regime it generates beam-splitter
(up-conversion) and two-mode-squeezing (down-conversion) interactions
between the modes.  The package builds the corresponding interaction
Hamiltonians at every level of approximation, propagates states, evaluates
pair-correlation and squeezing observables, simulates dispersive-probe
phase-space tomography, and exposes the whole lot through deterministic,
config-driven scenarios (see `cavityconv.cli`).
"""

from .hamiltonians import (
    FrameSpec,
    PhysicalParams,
    ProcessKind,
    TimeDependentOperator,
    TraversalSpec,
    effective_pdc_hamiltonian,
    effective_puc_hamiltonian,
    effective_xi,
    fit_traversal_alpha,
    full_pdc_hamiltonian,
    full_puc_hamiltonian,
    gaussian_profile_factor,
    profile_squeezing_factor,
    reduced_bilinear_generator,
    resonance_delta,
    two_photon_coupling,
    two_photon_hamiltonian,
)
from .hilbert import (
    HilbertSpace,
    Operator,
    SpaceMismatchError,
    StateVector,
    annihilation,
    atomic_sigma,
    basis_state,
    creation,
    embed_atom,
    expectation,
    field_space,
    fock_state,
    make_space,
    number_operator,
    project_atom,
    vacuum_state,
)
from .observables import (
    EprMetrics,
    TmsvSpec,
    bell_state,
    bell_state_fidelity,
    epr_metrics,
    fidelity,
    photon_number_distribution,
    quadrature_operator,
    squeezed_variance,
    squeezing_fraction,
    tmsv_analytic,
    tmsv_quality,
    tmsv_tail_mass,
)
from .propagate import (
    PropagationError,
    Trajectory,
    evolve_static,
    evolve_td,
    frame_transform,
)
from .scenarios import (
    ConfigError,
    ConvergenceGateError,
    convergence_sweep,
    list_scenarios,
    prepare_bell,
    run_scenario,
)
from .tomography import (
    PhaseSpaceGrid,
    ProbeOutcome,
    TruncationError,
    displace,
    probe_protocol,
    wigner_direct,
    wigner_via_protocol,
)

__version__ = "0.1.0"
