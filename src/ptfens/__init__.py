"""Pedotransfer-function ensembles for soil water retention.

Thirteen published point predictors of retention-curve parameters, weighted
ensembles of them calibrated by exact least squares on the weight simplex
(or, as an opt-in, the paper's genetic algorithm) with bootstrap
uncertainty, and application of calibrated ensembles to gridded soil layers.
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
    RetentionObservation,
    SampleTable,
    Schema,
    SoilSample,
    bootstrap_split,
    gravimetric_to_volumetric,
    ingest,
    qa_filter,
    read_samples,
    read_schema,
    stratify,
    write_removals,
    write_samples,
)
from .ensemble import (
    CalibrationResult,
    GaConfig,
    ModelPrediction,
    StratifiedModel,
    WeightVector,
    calibrate,
    calibrate_stratified,
    chi2,
    ensemble_theta,
    optimize_weights,
    predict_with_model,
    read_replica_table,
    read_weights,
    samples_theta,
    simplex_weights,
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
    read_grid,
    write_grid,
)
from .metrics import FitSummary, SelectionContext, aic, aicc, j_star, rmse, sigma_hat2
from .ptf import (
    ALL_PTFS,
    FAMILY,
    GROUPS,
    ParamBatch,
    PredictorRecord,
    PtfId,
    clear_ann_registry,
    group_of,
    load_rosetta_weights,
    lookup_class_params,
    predict,
    predict_batch,
    predict_theta,
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
    derived_points,
    theta_at,
    theta_many,
)
from .texture import USDA_CLASSES, classify_texture, classify_texture_array
