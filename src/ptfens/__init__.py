"""Pedotransfer-function ensembles for soil water retention.

Thirteen published point predictors of retention-curve parameters, weighted
ensembles of them calibrated by exact least squares on the weight simplex
with bootstrap uncertainty, and application of calibrated ensembles to
gridded soil layers. Prediction is batch-first: a profile given by scalars
is a batch of one (profile_arrays), on the path of a sample table or a map.
The paper's genetic algorithm (optimize_weights) is kept as a standalone
solver on a point set; calibration does not use it.
"""

__version__ = "0.1.0"

from .ann import AnnSpec, ann_forward, read_ann_file, write_ann_file
from .dataset import (
    ALLOWED_HEADS,
    DEFAULT_OC_EDGES,
    SOIL_ORDERS,
    TEMPERATURE_REGIMES,
    BootstrapReplica,
    RemovalEntry,
    SampleTable,
    Schema,
    bootstrap_split,
    ingest,
    qa_filter,
    read_samples,
    read_schema,
    write_removals,
    write_samples,
)
from .ensemble import (
    CalibrationResult,
    GaConfig,
    StratifiedModel,
    WeightVector,
    calibrate,
    calibrate_stratified,
    chi2,
    ensemble_theta,
    optimize_weights,
    read_replica_table,
    read_weights,
    samples_theta,
    simplex_weights,
    simplex_weights_batch,
    write_replica_table,
    write_weights,
)
from .errors import (
    AnnSpecError,
    ConfigError,
    CoregistrationError,
    DataError,
    GridFormatError,
    InputError,
    MemberPredictionError,
    ParameterError,
    PtfensError,
    SchemaError,
    TableLookupError,
)
from .mapping import (
    MAP_HEADS,
    Grid,
    MapProduct,
    SoilLayerStack,
    apply_ensemble_map,
    map_files,
    read_grid,
    write_grid,
)
from .metrics import FitSummary, SelectionContext, aic, aicc, j_star, rmse, sigma_hat2
from .ptf import (
    ALL_PTFS,
    FAMILY,
    GROUPS,
    ParamBatch,
    PtfId,
    clear_ann_registry,
    load_rosetta_weights,
    predict,
    predict_batch,
    profile_arrays,
    register_ann,
    required_inputs,
)
from .retention import (
    FIELD_CAPACITY_HEAD,
    SATURATION_HEAD,
    WILTING_POINT_HEAD,
    BrooksCoreyParams,
    CampbellParams,
    RetentionParams,
    VanGenuchtenParams,
    theta_at,
)
from .texture import USDA_CLASSES, classify_texture_array
