"""Ensembles of compact spiking neural networks for visual place recognition.

Reference traverses are cut into small contiguous regions; one
winner-take-all spiking network is trained per region with unsupervised
trace-based plasticity.  At query time a Poisson-encoded image is fanned
out to all experts and the strongest summed response of the surviving
(non-hyperactive) neurons decides the place.
"""

from .calibration import (
    CalibrationGrids,
    CalibrationReport,
    run_grid_search,
    select_theta,
    theta_sweep,
)
from .ensemble import (
    EnsembleModel,
    MatchResult,
    apply_threshold,
    collect_query_responses,
    detect_hyperactive,
    fuse_scores,
    match_query,
    partition_reference,
    train_ensemble,
)
from .errors import (
    ArchiveError,
    ConfigError,
    IngestError,
    SnnPlaceError,
    StateError,
)
from .expert import (
    UNASSIGNED,
    ExpertConfig,
    ExpertModel,
    RegionData,
    assign_neurons,
    expert_respond,
    train_expert,
)
from .imaging import (
    EncodingConfig,
    PatchNormConfig,
    SpikeTrain,
    derive_seed,
    load_and_resize,
    patch_normalize,
    poisson_encode,
    preprocess_for_encoding,
    rescale_unit,
    resize_bilinear,
)
from .metrics import (
    NeuronPrecisionRecord,
    neuron_precision_analysis,
    pr_curve,
    precision_at_100_recall,
    recall_at_n,
    sad_distance,
    sad_match,
)
from .network import (
    ExpertNetwork,
    FixedWiring,
    HomeostasisParams,
    LayerState,
    LifParams,
    SimulationParams,
    StdpParams,
    SynapseMatrix,
    UninhibitedLifParams,
    apply_input_spikes,
    apply_lateral_inhibition,
    lif_step,
    normalize_columns,
    stdp_on_post_spike,
)
from .store import DatasetManifest, load_ensemble, save_ensemble, scan_traverse
from .synthetic import query_time_benchmark

__version__ = "0.1.0"
