"""Continuous-variable teleportation fidelities and sub-Planck structure.

A numpy/scipy library for truncated Fock-basis state construction,
phase-space quasidistributions, squeezed-resource teleportation (exact
channels, closed-form fidelities, Monte Carlo trajectories), mixed-state
entanglement fidelity, and split-operator dynamics of a driven
double-well, with the reciprocal fine-scale/extent measures that tie
them together.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryLeakError,
    ConditioningError,
    GridExtentError,
    LeakageError,
    QuadratureError,
    SamplingError,
    SubplanckError,
    TruncationError,
    TruncationWarning,
)
from .fock import (
    ComplexAmplitude,
    DensityOp,
    PureState,
    displacement_element,
    displacement_matrix,
    make_coherent,
    make_compass,
    make_number,
    make_random,
    make_rng,
    make_squeezed,
    make_thermal,
    quad_moments,
)
from .phasespace import (
    PhaseGrid,
    char_fn,
    char_grid,
    default_grid,
    husimi,
    husimi_grid,
    overlap,
    s_quasidist,
    square_grid,
    squasi_grid,
    wigner,
    wigner_grid,
)
from .fidelity import (
    FidelityCurve,
    ScaleReport,
    classical_fidelity,
    coherent_fidelity,
    compass_fidelity,
    fidelity_quadrature,
    max_fidelity_bound,
    number_fidelity,
    random_avg_fidelity,
    random_slope_avg,
    scale_report,
    slope_at_zero,
    squeezed_fidelity,
)
from .protocol import (
    OutcomeSampler,
    alice_outcome_density,
    average_channel,
    conditional_output,
    epr_wigner,
    mc_average,
    p_dist,
    p_tilde,
)
from .mixedstate import (
    bold_phi,
    bold_w,
    entanglement_fidelity,
    entanglement_fidelity_direct,
)
from .dynamics import (
    EvolutionConfig,
    SpatialGrid,
    WaveFunction,
    coherent_wavefunction,
    evolve_chaotic,
    fock_to_wavefunction,
    wavefunction_to_fock,
)
