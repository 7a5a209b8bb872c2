"""Link-level simulation and error-rate analysis for quadrature spatial
scattering modulation (QSSM) over geometric mmWave channels."""

__version__ = "0.1.0"

from .analysis import (
    AbepPoint,
    EtaBar,
    EtaCase,
    NumericalError,
    abep_point,
    abep_point_ssm,
    abep_union_bound,
    abep_union_bound_ssm,
    eta_bar,
    pep_asymptotic,
    pep_closed_form,
    pep_conditional,
    pep_quadrature,
    q_function,
    snr_db_to_rho,
)
from .channel import (
    DFT_GRID,
    MIN_SEP,
    ArrayGeometry,
    ChannelRealization,
    array_response,
    channel_matrix,
    dft_grid_sines,
    orthogonality_defect,
    realization_from_json,
    realization_to_json,
    sample_channel,
)
from .modem import (
    PSK,
    QAM,
    Constellation,
    QssmSymbol,
    SymbolBook,
    build_constellation,
    build_symbol_book,
    demap_symbol,
    hamming_distance,
    map_bits,
    spectral_efficiency,
    ssm_spectral_efficiency,
)
from .montecarlo import (
    AbepCurve,
    BerEstimate,
    BoundCheck,
    CurvePoint,
    SimConfig,
    binomial_ci,
    check_bound,
    crossing_snr_db,
    gain_at_level,
    run_point,
    sweep,
)
from .transceiver import (
    DetectionResult,
    IdealObservation,
    PhysicalObservation,
    SsmDetectionResult,
    ml_detect_ideal,
    ml_detect_physical,
    qssm_observe_ideal,
    qssm_observe_physical,
    ssm_detect_ideal,
    ssm_observe_ideal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
