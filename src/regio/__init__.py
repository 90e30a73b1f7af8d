"""regio: proxy-based spatial disaggregation of national energy/emissions
totals down a NUTS0..LAU region hierarchy.

The pipeline: ingest per-region variable tables, impute missing proxy values
with a self-contained gradient-boosted tree learner, evaluate composite
proxy formulas, allocate coarse totals proportionally down the hierarchy
with confidence propagation, and report deviations against reference data.
"""

from . import errors
from .config import (
    ComparisonSpec,
    ProjectConfig,
    RegistryEntry,
    build_store,
    load_project_config,
    load_registry,
    read_reference_csv,
)
from .disaggregation import (
    ALLOCATE,
    REPLICATE,
    AllocationResult,
    PipelineRun,
    Provenance,
    TaskSpec,
    allocate,
    check_dependencies,
    disaggregate,
    load_pipeline_config,
    run_pipeline,
)
from .formulas import (
    EMISSION_STANDARD_CAPS,
    Const,
    EmissionStandardWeights,
    Prod,
    ProxyAssignment,
    Sum,
    Var,
    euro_weight_table,
    evaluate,
    format_expr,
    load_proxy_assignments,
    normalize_series,
    parse,
    passenger_car_weights,
    variables,
)
from .gbrt import HyperParams, RegressionTree, TrainedEnsemble, best_split, fit_gbrt
from .hierarchy import RegionHierarchy, RegionNode, SpatialLevel, load_hierarchy
from .imputation import (
    ENSEMBLE,
    MEAN_FALLBACK,
    GridSpec,
    ImputationConfig,
    ImputationReport,
    cross_country_predict,
    impute_all,
    r2,
    rate_confidence,
    rmse,
    select_predictors,
    split_holdout,
)
from .series import (
    ALL_COUNTRIES,
    ConfidenceLevel,
    MissingReport,
    Observation,
    SeriesMeta,
    VariableSeries,
    VariableStore,
    aggregate,
    ingest_series,
    missing_report,
    pearson,
    read_series_csv,
    round_half_up,
    write_series_csv,
)
from .validation import (
    ComparisonReport,
    DeviationRow,
    compare_at_level,
    deviation,
    markdown_table,
    sector_comparison_report,
    write_deviation_csv,
)

__version__ = "0.1.0"
