"""Quantum correlations of spin-1/2 pairs in a nanopore spin gas.

Closed-form entanglement (concurrence, entanglement of formation),
quantum discord and geometric discord for the centrosymmetric reduced
states of the nanopore model, together with a dense brute-force engine
that validates every closed form.
"""

__version__ = "0.1.0"

from .cs_matrix import (
    CSDensityMatrix,
    check_cs_rows,
    cs_bloch,
    cs_eigenvalues,
    cs_from_params,
    cs_from_vector,
    cs_spectrum,
)
from .discord import (
    DiscordResult,
    MeasurementBasis,
    discord_bell_diagonal,
    discord_cs,
    discord_cs_rows,
    discord_high_t_asymptotic,
    discord_low_t_asymptotic,
    discord_numeric,
    measurement_conditional_entropy,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence_cs,
    concurrence_numeric,
    entanglement_of_formation,
)
from .exact_oracle import (
    DenseState,
    ResourceLimitError,
    evolve,
    measure_correlations,
    pair_correlations,
    partial_trace_pair,
    thermal_initial,
)
from .geometric_discord import (
    geometric_discord_cs,
    geometric_discord_generic,
    geometric_discord_high_t_asymptotic,
)
from .nanopore import (
    CorrelationSet,
    NanoporeParams,
    beta_from_temperature,
    concurrence_nanopore,
    correlations,
    cs_from_correlations,
    reduced_density,
    special_time_correlations,
    tau_special,
    temperature_from_beta,
)
from .states import (
    InvalidStateError,
    bloch_data,
    check_density_matrix,
)
from ._kernels import kernel_backend
from .verification import (
    DEFAULT_TOLERANCES,
    VerificationReport,
    format_report,
    run_verification,
)
