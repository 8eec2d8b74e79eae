"""The paper's contribution: privatization and mapping of scalar and
array variables for data-parallel (owner-computes) execution."""

from .align_level import (
    align_level,
    alignment_valid,
    subscript_align_level,
    var_level,
)
from .array_mapping import (
    ArrayMappingOptions,
    ArrayMappingResult,
    run_array_mapping,
)
from .consumer import UseContext, classify_use, consumer_candidate
from .context import AnalysisContext, FrontendAnalyses, analyze_frontend
from .control_flow import ControlFlowOptions, run_control_flow
from .diagnostics import Diagnostic, diagnose, render_diagnostics
from .diskcache import (
    CompileCache,
    DiskCacheStats,
    as_compile_cache,
    default_cache_dir,
    options_signature,
    pipeline_fingerprint,
)
from .expansion import ExpansionResult, expand_scalars
from .driver import (
    BatchJob,
    CompiledProgram,
    CompilerOptions,
    compile_many,
    compile_procedure,
    compile_source,
)
from .passes import (
    DEFAULT_PIPELINE,
    PassManager,
    PipelineTimings,
    build_context,
)
from .locality import (
    ANY,
    DimPosition,
    Position,
    TransferPattern,
    all_any,
    classify_transfer,
    comm_free,
    position_of_array_ref,
)
from .mapping_kinds import (
    DUMMY_REPLICATED,
    AlignedTo,
    ArrayPrivatization,
    ControlFlowDecision,
    DummyReplicatedRef,
    FullyReplicatedReduction,
    PrivateNoAlign,
    Replicated,
    ReductionMapping,
    ScalarMapping,
)
from .reduction_mapping import map_reduction, reduction_grid_dims
from .scalar_mapping import (
    STRATEGIES,
    ScalarMappingOptions,
    ScalarMappingPass,
    run_scalar_mapping,
)

__all__ = [
    "Diagnostic",
    "diagnose",
    "render_diagnostics",
    "ExpansionResult",
    "expand_scalars",
    "align_level",
    "alignment_valid",
    "subscript_align_level",
    "var_level",
    "ArrayMappingOptions",
    "ArrayMappingResult",
    "run_array_mapping",
    "UseContext",
    "classify_use",
    "consumer_candidate",
    "AnalysisContext",
    "FrontendAnalyses",
    "analyze_frontend",
    "build_context",
    "ControlFlowOptions",
    "run_control_flow",
    "BatchJob",
    "CompileCache",
    "CompiledProgram",
    "CompilerOptions",
    "DiskCacheStats",
    "as_compile_cache",
    "compile_many",
    "compile_procedure",
    "compile_source",
    "default_cache_dir",
    "options_signature",
    "pipeline_fingerprint",
    "DEFAULT_PIPELINE",
    "PassManager",
    "PipelineTimings",
    "ANY",
    "DimPosition",
    "Position",
    "TransferPattern",
    "all_any",
    "classify_transfer",
    "comm_free",
    "position_of_array_ref",
    "DUMMY_REPLICATED",
    "AlignedTo",
    "ArrayPrivatization",
    "ControlFlowDecision",
    "DummyReplicatedRef",
    "FullyReplicatedReduction",
    "PrivateNoAlign",
    "Replicated",
    "ReductionMapping",
    "ScalarMapping",
    "map_reduction",
    "reduction_grid_dims",
    "STRATEGIES",
    "ScalarMappingOptions",
    "ScalarMappingPass",
    "run_scalar_mapping",
]
