"""Discrete-time coined walks on an odd ring coupled to a finite unitary bath.

The package simulates the joint walker-environment wavefunction without
ever materializing the full evolution operator, extracts the reduced
position state and its distance to the maximally mixed state, and fits
the two regimes of that distance: exponential relaxation (mixing time)
and the long-time plateau whose level follows a power law in the
bath/lattice dimension ratio.
"""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    NonlocalTemplate,
    ObservableSeries,
    PlateauSummary,
    QuenchResult,
    default_average_start,
    fit_exponential_mixing,
    fit_power_law,
    long_time_average,
    mixing_fit,
    plateau_summary,
    quench_average,
    select_fit_window,
    walk_series,
)
from .classical import (
    classical_mixing_time,
    classical_series,
    spectral_mixing_time,
)
from .core import (
    HADAMARD,
    PLUS_I_COIN,
    LocalEnvironment,
    NonlocalEnvironment,
    PureState,
    WalkModel,
    evolve,
    init_state,
    read_snapshot,
    step,
    step_local,
    step_nonlocal,
    write_snapshot,
)
from .envgen import (
    GateAngles,
    angles_for_gamma,
    commutator_norm,
    load_environment,
    make_local_gate,
    matrix_from_json,
    matrix_to_json,
    rng_stream,
    sample_environment_pair,
    sample_hermitian,
    save_environment,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DomainError,
    FitWindowError,
    NumericsError,
    QuenchSampleError,
    RingwalkError,
)
from .observables import (
    DensityMatrix,
    apply_cp_map,
    kraus_completeness_defect,
    kraus_generators,
    page_entropy,
    position_distribution,
    position_mixedness,
    reduce_to_position_coin,
)
