"""Angular two-photon amplitude and azimuthal entanglement of noncollinear
type-I SPDC, with a multichannel channelization model."""

__version__ = "0.1.0"

from .amplitude import (
    AmplitudeKind,
    AmplitudeModel,
    AngularPair,
    AzimuthMode,
    GeometryMode,
    amplitude,
    probability_density,
    pump_azimuth_cos,
    pump_polar_angle,
    transverse_sum_diff,
    validity_report,
)
from .analysis import (
    AzimuthalDistribution,
    SchmidtMethod,
    SchmidtSpectrum,
    azimuthal_density,
    azimuthal_widths,
    coefficient_check,
    oam_spectrum,
    r_parameter,
    schmidt_analytic,
    schmidt_modes,
    schmidt_numeric,
)
from .configio import RunConfig, load_run_config
from .crystal import (
    DerivedScales,
    ExperimentConfig,
    SellmeierSet,
    collinear_threshold,
    cone_angle,
    derive_scales,
    extraordinary_index,
    load_crystal,
    ordinary_index,
    pump_index,
    walkoff_slope,
)
from .errors import (
    BiphotonError,
    ConfigError,
    DegenerateGeometryError,
    InfeasibleLayoutError,
    RegimeError,
    ResolutionError,
    WavelengthRangeError,
)
from .multichannel import (
    ChannelLayout,
    MultichannelState,
    build_state,
    equally_spaced_layout,
    multichannel_entanglement,
    validate_layout,
)
