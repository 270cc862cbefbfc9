"""Command-line interface for the FTPMfTS reproduction.

Three subcommands cover the typical workflows:

``repro generate``
    Produce a synthetic dataset (the NIST / UK-DALE / DataPort / Smart City
    stand-ins) as a wide CSV file.

``repro mine``
    Run the end-to-end FTPMfTS process (E-HTPGM or A-HTPGM) on a wide CSV of
    time series and write the frequent patterns as JSON or CSV.  With
    ``--session FILE`` the mining state is saved for incremental reuse;
    ``--append NEW.csv --session FILE`` folds newly arrived series into that
    state without re-mining from scratch (identical patterns, a fraction of
    the work).

``repro evaluate``
    Run a small method comparison (E-HTPGM, A-HTPGM and the baselines) on a
    synthetic dataset and print a Table VII-style runtime table.

The console script ``repro`` is installed by the package; the module can also
be run with ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core.config import MiningConfig, RetryPolicy
from .core.resources import parse_byte_size
from .datasets import available_datasets, make_dataset
from .evaluation import ExperimentRunner, format_table
from .exceptions import MiningError, ReproError
from .io import (
    read_session,
    read_time_series_csv,
    write_patterns_csv,
    write_patterns_json,
    write_session,
    write_time_series_csv,
)
from .pipeline import FTPMfTS
from .timeseries import QuantileSymbolizer, SplitConfig, ThresholdSymbolizer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frequent Temporal Pattern Mining from Time Series (FTPMfTS)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic dataset as a wide CSV file"
    )
    generate.add_argument("--dataset", choices=available_datasets(), default="nist")
    generate.add_argument("--scale", type=float, default=0.05, help="fraction of the paper's sequence count")
    generate.add_argument("--attributes", type=float, default=1.0, help="fraction of the paper's variable count")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="output CSV path")

    mine = subparsers.add_parser(
        "mine", help="mine frequent temporal patterns from a wide CSV of time series"
    )
    mine.add_argument(
        "--input",
        help="input CSV (timestamp column + one column per series); required "
        "unless appending to a session with --append",
    )
    mine.add_argument("--output", required=True, help="output file (.json or .csv)")
    mine.add_argument("--window", type=float, required=True, help="sequence window length (same unit as timestamps)")
    mine.add_argument("--overlap", type=float, default=0.0, help="overlap t_ov between consecutive windows")
    # Mining parameters default to None so --append can reject explicit use:
    # an appended session must mine with the thresholds it was created with.
    mine.add_argument("--support", type=float, default=None, help="support threshold sigma (0-1], default 0.5")
    mine.add_argument("--confidence", type=float, default=None, help="confidence threshold delta (0-1], default 0.5")
    mine.add_argument("--epsilon", type=float, default=None, help="relation buffer epsilon, default 0")
    mine.add_argument("--min-overlap", type=float, default=None, help="minimal Overlap duration d_o, default 1e-9")
    mine.add_argument("--tmax", type=float, default=None, help="maximal pattern duration")
    mine.add_argument("--max-size", type=int, default=None, help="maximal number of events per pattern")
    mine.add_argument(
        "--symbolizer",
        choices=("threshold", "quantile3", "quantile5"),
        default="threshold",
        help="mapping from raw values to symbols",
    )
    mine.add_argument("--threshold", type=float, default=0.05, help="On/Off threshold (threshold symbolizer)")
    mine.add_argument("--approximate", action="store_true", help="use A-HTPGM instead of E-HTPGM")
    mine.add_argument("--mi-threshold", type=float, default=None, help="A-HTPGM: NMI threshold mu")
    mine.add_argument("--density", type=float, default=None, help="A-HTPGM: correlation-graph density")
    mine.add_argument(
        "--parallel",
        action="store_true",
        help=(
            "shard candidate evaluation (and A-HTPGM's NMI phase) across "
            "worker processes (same pattern set)"
        ),
    )
    mine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --parallel (default: all available CPUs)",
    )
    mine.add_argument(
        "--session",
        help=(
            "mining-session state file: with --input, mine and save the "
            "state here for later appends; with --append, load the state, "
            "fold the new CSV in incrementally and save it back"
        ),
    )
    mine.add_argument(
        "--append",
        metavar="NEW_CSV",
        help=(
            "wide CSV of newly arrived time series to fold into an existing "
            "--session incrementally (mining thresholds come from the "
            "session; window/symbolizer flags still apply to the new data); "
            "the result is identical to re-mining everything from scratch"
        ),
    )
    mine.add_argument(
        "--checkpoint",
        metavar="FILE",
        help=(
            "snapshot the mining state to FILE (atomically) after every "
            "completed level, so an interrupted run can be continued with "
            "--resume; exact miner only"
        ),
    )
    mine.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted --checkpoint run from its last "
            "completed level (pass the same --input and mining parameters "
            "as the interrupted invocation); the final result is identical "
            "to a never-interrupted run"
        ),
    )
    mine.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help=(
            "how many times a crashed/hung/failed --parallel shard is "
            "resubmitted before the run fails (default 2; retries never "
            "change the mined patterns)"
        ),
    )
    mine.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds for one --parallel shard attempt; "
            "a shard exceeding it is killed and retried (default: no timeout)"
        ),
    )
    mine.add_argument(
        "--memory-budget",
        metavar="SIZE",
        help=(
            "total memory budget for the --parallel worker fleet, e.g. "
            "'512M' or '2G' (binary suffixes; a bare number is bytes); "
            "shards are sized to fit each worker's share, over-budget "
            "shards are split and degraded instead of dying to the OOM "
            "killer, and every degradation step is reported as a warning "
            "(identical pattern set)"
        ),
    )
    mine.add_argument("--top", type=int, default=10, help="number of patterns to print")

    evaluate = subparsers.add_parser(
        "evaluate", help="compare the miners on a synthetic dataset (Table VII style)"
    )
    evaluate.add_argument("--dataset", choices=available_datasets(), default="dataport")
    evaluate.add_argument("--scale", type=float, default=0.03)
    evaluate.add_argument("--attributes", type=float, default=0.5)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--support", type=float, default=0.4)
    evaluate.add_argument("--confidence", type=float, default=0.4)
    evaluate.add_argument("--density", type=float, default=0.6, help="A-HTPGM correlation-graph density")
    evaluate.add_argument(
        "--methods",
        nargs="+",
        default=["E-HTPGM", "A-HTPGM", "TPMiner", "IEMiner", "H-DFS"],
        help="methods to compare",
    )
    evaluate.add_argument(
        "--parallel",
        action="store_true",
        help="run the HTPGM miners on the process engine",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --parallel (default: all available CPUs)",
    )

    return parser


# --------------------------------------------------------------------------- commands
def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = make_dataset(
        args.dataset, scale=args.scale, attribute_fraction=args.attributes, seed=args.seed
    )
    path = write_time_series_csv(dataset.series_set, args.output)
    print(
        f"wrote {dataset.n_variables} series "
        f"({len(dataset.series_set.series[0])} samples each) to {path}"
    )
    print(dataset.description)
    return 0


def _symbolizer_from_args(args: argparse.Namespace):
    if args.symbolizer == "threshold":
        return ThresholdSymbolizer(threshold=args.threshold)
    if args.symbolizer == "quantile3":
        return QuantileSymbolizer(labels=("Low", "Medium", "High"))
    return QuantileSymbolizer(labels=("Very Low", "Low", "Medium", "High", "Very High"))


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.workers is not None and not args.parallel:
        print("error: --workers requires --parallel", file=sys.stderr)
        return 2
    if not args.approximate and (
        args.mi_threshold is not None or args.density is not None
    ):
        print(
            "error: --mi-threshold/--density require --approximate",
            file=sys.stderr,
        )
        return 2
    if args.max_retries is not None and not args.parallel:
        print("error: --max-retries requires --parallel", file=sys.stderr)
        return 2
    if args.shard_timeout is not None and not args.parallel:
        print("error: --shard-timeout requires --parallel", file=sys.stderr)
        return 2
    if args.memory_budget is not None and not args.parallel:
        print("error: --memory-budget requires --parallel", file=sys.stderr)
        return 2
    if args.approximate and (args.session or args.append or args.checkpoint):
        print(
            "error: --session/--append/--checkpoint require the exact miner "
            "(drop --approximate)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.resume and args.append:
        print("error: --resume and --append are mutually exclusive", file=sys.stderr)
        return 2
    if args.checkpoint and args.append:
        print(
            "error: --checkpoint applies to full mining runs, not --append",
            file=sys.stderr,
        )
        return 2
    if args.append and not args.session:
        print("error: --append requires --session", file=sys.stderr)
        return 2
    if args.append and args.input:
        print(
            "error: --append and --input are mutually exclusive "
            "(the session already covers the previously mined data)",
            file=sys.stderr,
        )
        return 2
    if not args.append and not args.input:
        print("error: --input is required (or use --append with --session)",
              file=sys.stderr)
        return 2

    engine = "process" if args.parallel else "serial"
    # Parsed up front so a bad size string is a usage error (exit 2) before
    # any data is read; MiningConfig.__post_init__ re-validates the bytes.
    memory_budget_bytes = (
        parse_byte_size(args.memory_budget)
        if args.memory_budget is not None
        else None
    )
    if args.append:
        overridden = [
            flag
            for flag, value in (
                ("--support", args.support),
                ("--confidence", args.confidence),
                ("--epsilon", args.epsilon),
                ("--min-overlap", args.min_overlap),
                ("--tmax", args.tmax),
                ("--max-size", args.max_size),
            )
            if value is not None
        ]
        if overridden:
            print(
                f"error: {', '.join(overridden)} cannot be changed on "
                "--append; mining parameters come from the session "
                "(the incremental result must match a from-scratch re-mine)",
                file=sys.stderr,
            )
            return 2
        session = read_session(args.session)
        series_set = read_time_series_csv(args.append)
        n_before = session.n_sequences
        append_config = session.config.with_engine(engine, args.workers)
        if memory_budget_bytes is not None:
            append_config = append_config.with_memory_budget(memory_budget_bytes)
        if args.max_retries is not None or args.shard_timeout is not None:
            append_config = append_config.with_retry(
                RetryPolicy(
                    max_retries=(
                        2 if args.max_retries is None else args.max_retries
                    ),
                    shard_timeout=args.shard_timeout,
                )
            )
        process = FTPMfTS(
            split_config=SplitConfig(window_length=args.window, overlap=args.overlap),
            symbolizers=_symbolizer_from_args(args),
            mining_config=append_config,
        )
        result = process.mine_incremental(series_set, session)
        write_session(session, args.session)
        print(
            f"appended {session.n_sequences - n_before} sequences to "
            f"{args.session} (now {session.n_sequences} total)"
        )
    else:
        series_set = read_time_series_csv(args.input)
        if args.approximate and args.mi_threshold is None and args.density is None:
            # Sensible default matching the paper's recommendation of a dense graph.
            args.density = 0.6
        retry = RetryPolicy(
            max_retries=2 if args.max_retries is None else args.max_retries,
            shard_timeout=args.shard_timeout,
        )
        config = MiningConfig(
            min_support=0.5 if args.support is None else args.support,
            min_confidence=0.5 if args.confidence is None else args.confidence,
            epsilon=0.0 if args.epsilon is None else args.epsilon,
            min_overlap=1e-9 if args.min_overlap is None else args.min_overlap,
            tmax=args.tmax,
            max_pattern_size=args.max_size,
            engine=engine,
            n_workers=args.workers,
            retry=retry,
            checkpoint_path=args.checkpoint,
            memory_budget_bytes=memory_budget_bytes,
        )
        process = FTPMfTS(
            split_config=SplitConfig(window_length=args.window, overlap=args.overlap),
            symbolizers=_symbolizer_from_args(args),
            mining_config=config,
            approximate=args.approximate,
            mi_threshold=args.mi_threshold,
            graph_density=args.density,
        )
        if args.resume:
            session = read_session(args.checkpoint)
            mismatched = [
                flag
                for flag, value, current in (
                    ("--support", args.support, session.config.min_support),
                    ("--confidence", args.confidence, session.config.min_confidence),
                    ("--epsilon", args.epsilon, session.config.epsilon),
                    ("--min-overlap", args.min_overlap, session.config.min_overlap),
                    ("--tmax", args.tmax, session.config.tmax),
                    ("--max-size", args.max_size, session.config.max_pattern_size),
                )
                if value is not None and value != current
            ]
            if mismatched:
                print(
                    f"error: {', '.join(mismatched)} differ from the "
                    "checkpointed run; mining parameters cannot change on "
                    "--resume (omit them to take the checkpoint's values)",
                    file=sys.stderr,
                )
                return 2
            # Execution details (engine, retry, checkpoint target) follow
            # *this* invocation; everything that shapes the pattern set
            # stays what the interrupted run used.
            session.config = session.config.adopt_execution(config)
            _, sequence_db = process.transform(series_set)
            result = session.resume(sequence_db)
            print(
                f"resumed checkpointed run from {args.checkpoint} "
                f"({session.n_sequences} sequences)"
            )
        else:
            session = (
                process.create_session()
                if args.session or args.checkpoint
                else None
            )
            result = process.mine(series_set, session=session)
        if session is not None and args.session:
            write_session(session, args.session)
            print(
                f"saved mining session ({session.n_sequences} sequences) "
                f"to {args.session}"
            )

    for warning in result.statistics.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    if args.output.endswith(".csv"):
        path = write_patterns_csv(result, args.output)
    else:
        path = write_patterns_json(result, args.output)

    print(result.summary())
    for mined in result.top(args.top):
        print(f"  {mined.describe()}")
    print(f"wrote {len(result)} patterns to {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.workers is not None and not args.parallel:
        print("error: --workers requires --parallel", file=sys.stderr)
        return 2
    dataset = make_dataset(
        args.dataset, scale=args.scale, attribute_fraction=args.attributes, seed=args.seed
    )
    symbolic_db, sequence_db = dataset.transform()
    config = MiningConfig(
        min_support=args.support,
        min_confidence=args.confidence,
        epsilon=1.0,
        min_overlap=5.0,
        tmax=360.0,
        max_pattern_size=3,
        engine="process" if args.parallel else "serial",
        n_workers=args.workers,
    )
    runner = ExperimentRunner(sequence_db=sequence_db, symbolic_db=symbolic_db)
    rows = []
    for method in args.methods:
        if method == "A-HTPGM":
            record = runner.run(method, config, graph_density=args.density)
        else:
            record = runner.run(method, config)
        rows.append([method, f"{record.runtime_seconds:.3f}", record.n_patterns])
    print(
        format_table(
            ["method", "runtime (s)", "#patterns"],
            rows,
            title=(
                f"{dataset.name}: {len(sequence_db)} sequences, "
                f"{len(sequence_db.event_keys())} events, "
                f"sigma={args.support:.0%}, delta={args.confidence:.0%}"
            ),
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "mine": _cmd_mine,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except MiningError as error:
        # Runtime mining failures (exhausted retries, corrupt session files,
        # inconsistent state) — distinct from usage problems, which exit 2.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
