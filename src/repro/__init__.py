"""repro — reproduction of "Efficient Temporal Pattern Mining in Big Time Series
Using Mutual Information" (Ho, Ho & Pedersen, VLDB 2021).

The package implements the complete FTPMfTS process: the data-transformation
substrate (:mod:`repro.timeseries`), the exact miner E-HTPGM and the
MI-based approximate miner A-HTPGM (:mod:`repro.core`), the three published
baselines (:mod:`repro.baselines`), synthetic stand-ins for the paper's
datasets (:mod:`repro.datasets`) and the experiment harness
(:mod:`repro.evaluation`).

Quickstart::

    from repro import mine_time_series
    from repro.datasets import make_dataset

    dataset = make_dataset("nist", scale=0.1, seed=7)
    result = mine_time_series(
        dataset.series_set, window_length=120.0, min_support=0.4, min_confidence=0.4
    )
    for mined in result.top(5):
        print(mined.describe())

Execution engines
-----------------

Candidate evaluation — the expensive, embarrassingly parallel core of the
miner — runs behind a pluggable execution backend (:mod:`repro.core.engine`).
The default serial engine evaluates in-process; the process engine shards each
level's candidates across a ``multiprocessing`` worker pool.  Every engine
mines the **identical** pattern set (enforced by parity and golden-fixture
tests), so selecting one is purely a performance choice::

    result = mine_time_series(..., engine="process", n_workers=4)
    # or explicitly:
    from repro import HTPGM, MiningConfig, ProcessPoolBackend
    miner = HTPGM(MiningConfig(engine="process", n_workers=4))
    # or inject a backend you manage yourself:
    with ProcessPoolBackend(n_workers=4) as backend:
        result = HTPGM(MiningConfig(), backend=backend).mine(sequence_db)

On the command line, ``repro mine --parallel --workers 4`` selects the process
engine.  A-HTPGM composes with any engine: its correlation filters run during
candidate generation in the coordinating process.
"""

from .core import (
    AHTPGM,
    HTPGM,
    CorrelationGraph,
    EventKey,
    ExecutionBackend,
    MinedPattern,
    MiningConfig,
    MiningResult,
    MiningSession,
    MiningStatistics,
    ProcessPoolBackend,
    PruningMode,
    Relation,
    RetryPolicy,
    SerialBackend,
    TemporalPattern,
    build_correlation_graph,
    confidence_lower_bound,
    mi_threshold_for_density,
    normalized_mutual_information,
)
from .exceptions import (
    ConfigurationError,
    DataError,
    MemoryBudgetExceeded,
    MiningError,
    RepresentationOverflowError,
    ReproError,
    SessionFormatError,
    SymbolizationError,
)
from .pipeline import FTPMfTS, mine_time_series
from .timeseries import (
    EventInstance,
    QuantileSymbolizer,
    SequenceDatabase,
    SplitConfig,
    SymbolicDatabase,
    SymbolicSeries,
    TemporalSequence,
    ThresholdSymbolizer,
    TimeSeries,
    TimeSeriesSet,
    split_into_sequences,
    symbolize_set,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # pipeline
    "FTPMfTS",
    "mine_time_series",
    # core
    "HTPGM",
    "AHTPGM",
    "MiningSession",
    "MiningConfig",
    "PruningMode",
    "RetryPolicy",
    "MiningResult",
    "MinedPattern",
    "MiningStatistics",
    "TemporalPattern",
    "Relation",
    "EventKey",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "CorrelationGraph",
    "build_correlation_graph",
    "mi_threshold_for_density",
    "normalized_mutual_information",
    "confidence_lower_bound",
    # time series
    "TimeSeries",
    "TimeSeriesSet",
    "ThresholdSymbolizer",
    "QuantileSymbolizer",
    "symbolize_set",
    "SymbolicSeries",
    "SymbolicDatabase",
    "EventInstance",
    "TemporalSequence",
    "SequenceDatabase",
    "SplitConfig",
    "split_into_sequences",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "DataError",
    "SymbolizationError",
    "MiningError",
    "SessionFormatError",
    "RepresentationOverflowError",
    "MemoryBudgetExceeded",
]
