"""Half-duplex UAV distributed radar sensing simulator.

A deterministic, seedable simulator of a multi-UAV ground-sensing protocol:
each UAV in turn illuminates a block of grid cells with OFDM frames while the
others estimate per-cell radar cross-sections through receive beamforming and
matched periodogram evaluation; a fusion center averages the local maps and
declares the target at the argmax cell.
"""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
    dbsm_to_m2,
    m2_to_dbsm,
    parse_config_file,
    parse_config_text,
    render_config_text,
)
from .geometry import (
    AoA,
    CellGrid,
    CellSets,
    aoa,
    build_grid,
    classify_cells,
    deploy_uavs,
    derive_altitude,
    footprint_radius,
    hpbw,
)
from .beamforming import (
    aoa_mesh,
    capon_beamformer,
    ls_beamformer,
    steering_matrix,
    steering_vector,
)
from .ofdm import (
    Reflections,
    build_reflections,
    coherent_peaks,
    dirichlet_kernel,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    periodogram_grid,
    reflection_amplitude,
    remove_data,
    subcarrier_ramps,
    synth_rx_frame,
    synth_tx_frame,
)
from .fusion import (
    DetectionResult,
    LocalRcsMap,
    detect,
    detection_delta,
    fuse,
    fuse_and_detect,
    hypothesis_test,
    normalize_map,
)
from .engine import (
    DetectionStats,
    ScenarioTables,
    SweepRow,
    TrialOutcome,
    build_tables,
    run_monte_carlo,
    run_monte_carlo_all_fusions,
    run_trial,
    substream,
    sweep,
)
