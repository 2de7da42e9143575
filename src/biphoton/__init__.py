"""Polarization-entangled photon pairs in dispersive fiber.

Simulates type-II parametric down-conversion pairs whose coincidence-time
structure is magnified by fiber group-velocity dispersion, including the
retarder-plate interference surfaces, Bell-state post-selection by arrival
time, Faraday-mirror cancellation of polarization drift, and a Monte Carlo
of the start-stop coincidence electronics.
"""

from .coincidence import (
    DetectorParams,
    Histogram,
    VisibilityEstimate,
    channel_visibility,
    drift_timeseries,
    estimate_visibility,
    simulate_histogram,
    simulate_histograms,
)
from .correlation import (
    PLUS_MINUS,
    PLUS_PLUS,
    AnalyzerConfig,
    CorrelationResult,
    PostSelectionResult,
    PostSelectionWindow,
    g2_analytic,
    g2_numeric,
    postselect,
    visibility,
)
from .errors import ConfigurationError
from .fiber import (
    DriftProcess,
    FiberChannel,
    drift_operators,
    drift_walk,
    tau_f,
    transmittance,
)
from .jones import (
    RetarderSpec,
    analyzer_vector,
    backward,
    faraday_mirror,
    is_unitary,
    random_unitary,
    retarder,
    rotator,
    round_trip,
    unitarity_residual,
)
from .state import (
    PSI_MINUS,
    PSI_PLUS,
    BiphotonState,
    CrystalParams,
    FrequencyGrid,
    apply_local,
    pdc_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerConfig",
    "BiphotonState",
    "ConfigurationError",
    "CorrelationResult",
    "CrystalParams",
    "DetectorParams",
    "DriftProcess",
    "FiberChannel",
    "FrequencyGrid",
    "Histogram",
    "PLUS_MINUS",
    "PLUS_PLUS",
    "PSI_MINUS",
    "PSI_PLUS",
    "PostSelectionResult",
    "PostSelectionWindow",
    "RetarderSpec",
    "VisibilityEstimate",
    "analyzer_vector",
    "apply_local",
    "backward",
    "channel_visibility",
    "drift_operators",
    "drift_timeseries",
    "drift_walk",
    "estimate_visibility",
    "faraday_mirror",
    "g2_analytic",
    "g2_numeric",
    "is_unitary",
    "pdc_state",
    "postselect",
    "random_unitary",
    "retarder",
    "rotator",
    "round_trip",
    "simulate_histogram",
    "simulate_histograms",
    "tau_f",
    "transmittance",
    "unitarity_residual",
    "visibility",
]
