"""repro — reproduction of Manish Gupta, "On Privatization of Variables
for Data-Parallel Execution" (IPPS 1997).

The package contains a from-scratch mini-HPF compiler with the paper's
privatization framework (scalar mapping, reduction mapping, full and
partial array privatization, control-flow privatization), an
owner-computes partitioner, communication analysis with message
vectorization, a simulated IBM SP2-class distributed-memory machine,
and the benchmark programs of the paper's evaluation (TOMCATV, DGEFA,
APPSP).

Quickstart — the supported surface is the :class:`Session` facade::

    from repro import Session, SweepSpec

    session = Session(num_procs=16, cache=True)
    compiled = session.compile(source_text)
    print(compiled.report())
    print(session.estimate(compiled).summary())
    results = session.sweep(SweepSpec(programs={"prog": source_text},
                                      procs=(4, 16)))

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
regeneration of the paper's tables.
"""

from .api import RunResult, Session
from .api import __all__ as _API_ALL
from .codegen import SequentialInterpreter, print_spmd, run_sequential
from .core import (
    AlignedTo,
    AnalysisContext,
    ArrayPrivatization,
    BatchJob,
    CompileCache,
    CompiledProgram,
    CompilerOptions,
    FullyReplicatedReduction,
    PassManager,
    PipelineTimings,
    PrivateNoAlign,
    Replicated,
    ReductionMapping,
    ScalarMapping,
    build_context,
    compile_many,
    compile_procedure,
    compile_source,
)
from .ir import Procedure, parse_and_build
from .lang import parse_program
from .machine import SPMDSimulator, simulate
from .mapping import ProcessorGrid
from .model import SP2, MachineModel
from .perf import PerfEstimator
from .records import RESULT_SCHEMA, comparable, result_record
from .report import table1_tomcatv, table2_dgefa, table3_appsp
from .service import Catalog, JobHandle, SweepService
from .sweep import SweepJob, SweepResult, SweepSpec, run_sweep

__version__ = "1.4.0"

# The supported surface is api.__all__ (the Session facade and its
# types) plus the groups below; everything else is internal.
__all__ = [
    *_API_ALL,
    # persistent sweep service
    "Catalog",
    "JobHandle",
    "SweepService",
    # shared result-record schema
    "RESULT_SCHEMA",
    "comparable",
    "result_record",
    # codegen / validation
    "SequentialInterpreter",
    "print_spmd",
    "run_sequential",
    # machine models
    "SP2",
    "MachineModel",
    # compiler internals (stable subset)
    "AlignedTo",
    "AnalysisContext",
    "ArrayPrivatization",
    "BatchJob",
    "FullyReplicatedReduction",
    "PipelineTimings",
    "PrivateNoAlign",
    "Replicated",
    "ReductionMapping",
    "ScalarMapping",
    "build_context",
    "compile_many",
    "compile_procedure",
    "Procedure",
    "parse_and_build",
    "parse_program",
    "SPMDSimulator",
    "simulate",
    "ProcessorGrid",
    # perf + report
    "PerfEstimator",
    "table1_tomcatv",
    "table2_dgefa",
    "table3_appsp",
    "__version__",
]
