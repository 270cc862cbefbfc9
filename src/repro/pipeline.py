"""End-to-end FTPMfTS process (paper Fig. 2).

:class:`FTPMfTS` wires the two phases together: *data transformation* (raw time
series → symbolic database → temporal sequence database) and *temporal pattern
mining* (E-HTPGM or A-HTPGM).  :func:`mine_time_series` is the one-call
convenience wrapper used by the quickstart example.

Incremental mining threads through the same pipeline: create a
:class:`~repro.core.session.MiningSession` via :meth:`FTPMfTS.create_session`
(or pass ``session=`` to :func:`mine_time_series`), mine the initial series
into it, then fold newly arrived series through
:meth:`FTPMfTS.mine_incremental` — the result is guaranteed identical to
re-mining everything from scratch, at a fraction of the work.  Appends refuse
symbolisers fitted to the data, whose cut points a from-scratch mine would
fit to all of it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .core.approximate import AHTPGM
from .core.config import MiningConfig
from .core.engine import backend_from_config
from .core.htpgm import HTPGM
from .core.result import MiningResult
from .core.session import MiningSession
from .exceptions import ConfigurationError, MiningError
from .timeseries.segmentation import SplitConfig, split_into_sequences
from .timeseries.sequences import SequenceDatabase
from .timeseries.series import TimeSeriesSet
from .timeseries.symbolic import SymbolicDatabase
from .timeseries.symbolization import Symbolizer, ThresholdSymbolizer, symbolize_set

__all__ = ["FTPMfTS", "mine_time_series"]


@dataclass
class FTPMfTS:
    """The full Frequent Temporal Pattern Mining from Time Series process.

    Parameters
    ----------
    symbolizers:
        One symboliser for every series or a mapping from series name to its
        symboliser (defaults to the paper's On/Off threshold at 0.05).
    split_config:
        Window length and overlap used to build ``DSEQ`` from ``DSYB``.
    mining_config:
        Thresholds, pruning switches and engine selection of the miner
        (``MiningConfig(engine="process", n_workers=4)`` shards candidate
        evaluation across worker processes; A-HTPGM's pairwise-NMI
        correlation phase runs in the calling process; the mined pattern set
        is identical under every engine).
    approximate:
        When True run A-HTPGM; otherwise E-HTPGM.
    mi_threshold, graph_density:
        A-HTPGM search-space control; exactly one must be set when
        ``approximate`` is True.
    """

    split_config: SplitConfig
    symbolizers: Mapping[str, Symbolizer] | Symbolizer | None = None
    mining_config: MiningConfig | None = None
    approximate: bool = False
    mi_threshold: float | None = None
    graph_density: float | None = None

    def __post_init__(self) -> None:
        if self.symbolizers is None:
            self.symbolizers = ThresholdSymbolizer()
        if self.mining_config is None:
            self.mining_config = MiningConfig()
        if not self.approximate and (
            self.mi_threshold is not None or self.graph_density is not None
        ):
            raise ConfigurationError(
                "mi_threshold / graph_density are only meaningful with approximate=True"
            )

    # ------------------------------------------------------------------ phases
    def transform(
        self, series_set: TimeSeriesSet
    ) -> tuple[SymbolicDatabase, SequenceDatabase]:
        """Data-transformation phase: raw series → (``DSYB``, ``DSEQ``)."""
        aligned = series_set if series_set.is_aligned() else series_set.align()
        symbolic_db = symbolize_set(aligned, self.symbolizers)
        sequence_db = split_into_sequences(symbolic_db, self.split_config)
        return symbolic_db, sequence_db

    def mine(
        self, series_set: TimeSeriesSet, session: MiningSession | None = None
    ) -> MiningResult:
        """Run the complete process and return the frequent temporal patterns.

        With a fresh ``session`` (see :meth:`create_session`), the mined
        state is kept inside it so later arrivals can be folded in through
        :meth:`mine_incremental` instead of re-mining from scratch.
        """
        symbolic_db, sequence_db = self.transform(series_set)
        return self.mine_transformed(symbolic_db, sequence_db, session=session)

    def mine_transformed(
        self,
        symbolic_db: SymbolicDatabase,
        sequence_db: SequenceDatabase,
        session: MiningSession | None = None,
    ) -> MiningResult:
        """Mining phase only, for callers that already hold ``DSYB`` and ``DSEQ``."""
        if session is not None:
            self._check_session(session)
            if session.mined:
                raise MiningError(
                    "session already holds mined state; use mine_incremental() "
                    "to fold new series into it"
                )
            return self._run_session(session.mine, sequence_db)
        if self.approximate:
            miner = AHTPGM(
                config=self.mining_config,
                mi_threshold=self.mi_threshold,
                graph_density=self.graph_density,
            )
            return miner.mine(sequence_db, symbolic_db)
        return HTPGM(config=self.mining_config).mine(sequence_db)

    # ------------------------------------------------------------------ incremental
    def create_session(self) -> MiningSession:
        """A fresh, appendable mining session bound to this pipeline's config."""
        if self.approximate:
            raise ConfigurationError(
                "incremental sessions require the exact miner (approximate=False)"
            )
        return MiningSession(config=self.mining_config)

    def mine_incremental(
        self, series_set: TimeSeriesSet, session: MiningSession
    ) -> MiningResult:
        """Fold newly arrived series into a mined session.

        The series are transformed with this pipeline's symbolisers and split
        configuration, appended to the session as new sequences, and the
        incrementally updated pattern set is returned — identical to what
        re-mining old and new data together from scratch would produce.

        A symboliser that fits its parameters to the data
        (:class:`~repro.timeseries.symbolization.QuantileSymbolizer`,
        :class:`~repro.timeseries.symbolization.UniformBinSymbolizer`,
        :class:`~repro.timeseries.sax.SAXSymbolizer`: any that overrides
        :meth:`Symbolizer.fit`) is refused with :class:`ConfigurationError`:
        it would be fitted to the new series alone, and even the old data's
        fit differs from a from-scratch fit of old and new data together.
        """
        self._check_session(session)
        self._refuse_fitted_symbolizers(series_set)
        _, sequence_db = self.transform(series_set)
        return self._run_session(session.append, sequence_db)

    def _refuse_fitted_symbolizers(self, series_set: TimeSeriesSet) -> None:
        """Raise when a symboliser an append would apply fits to the data."""
        symbolizers = self.symbolizers
        if isinstance(symbolizers, Symbolizer):
            applied = [(None, symbolizers)]
        else:
            applied = [
                (series.name, symbolizers.get(series.name)) for series in series_set
            ]
        for name, symbolizer in applied:
            if symbolizer is None or type(symbolizer).fit is Symbolizer.fit:
                continue
            of_series = "" if name is None else f" of series {name!r}"
            raise ConfigurationError(
                f"{type(symbolizer).__name__}{of_series} fits its parameters to "
                "the data it symbolises, so an append cannot reproduce a "
                "from-scratch mine of all the data; append with a symbolizer "
                "that needs no fit (such as ThresholdSymbolizer) or re-mine "
                "everything"
            )

    def _check_session(self, session: MiningSession) -> None:
        """Reject sessions that cannot represent this pipeline's mining run."""
        if self.approximate:
            raise ConfigurationError(
                "incremental sessions require the exact miner (approximate=False)"
            )
        expected = session.config.adopt_execution(self.mining_config)
        if expected != self.mining_config:
            raise ConfigurationError(
                "session was created with a different MiningConfig than this "
                "pipeline; thresholds and pruning must match for the "
                "incremental invariant to hold"
            )

    def _run_session(self, operation, sequence_db: SequenceDatabase) -> MiningResult:
        """Run a session operation on the backend this pipeline selects.

        The pipeline's ``engine`` / ``n_workers`` choice wins over whatever
        the session was created (or last run) with, so a serially mined
        session file can be appended to with the process engine and vice
        versa.
        """
        backend = backend_from_config(self.mining_config)
        try:
            return operation(sequence_db, backend=backend)
        finally:
            backend.close()


def mine_time_series(
    series_set: TimeSeriesSet,
    window_length: float,
    overlap: float = 0.0,
    symbolizers: Mapping[str, Symbolizer] | Symbolizer | None = None,
    min_support: float = 0.5,
    min_confidence: float = 0.5,
    approximate: bool = False,
    mi_threshold: float | None = None,
    graph_density: float | None = None,
    engine: str = "serial",
    n_workers: int | None = None,
    session: MiningSession | None = None,
    **config_kwargs,
) -> MiningResult:
    """One-call convenience wrapper around :class:`FTPMfTS`.

    ``engine`` selects the execution backend (``"serial"`` or ``"process"``)
    and ``n_workers`` the worker count for the process engine; remaining
    ``config_kwargs`` are forwarded to
    :class:`~repro.core.config.MiningConfig` (``epsilon``, ``tmax``,
    ``max_pattern_size``, ``pruning``, ...).

    ``session`` optionally captures the mined state for incremental reuse: a
    fresh :class:`~repro.core.session.MiningSession` created with the same
    ``MiningConfig`` is populated by this call, and new series can later be
    folded in via :meth:`FTPMfTS.mine_incremental` or
    :meth:`MiningSession.append` without re-mining from scratch.
    """
    process = FTPMfTS(
        split_config=SplitConfig(window_length=window_length, overlap=overlap),
        symbolizers=symbolizers,
        mining_config=MiningConfig(
            min_support=min_support,
            min_confidence=min_confidence,
            engine=engine,
            n_workers=n_workers,
            **config_kwargs,
        ),
        approximate=approximate,
        mi_threshold=mi_threshold,
        graph_density=graph_density,
    )
    return process.mine(series_set, session=session)
