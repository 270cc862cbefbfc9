"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.io import read_time_series_csv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "x.csv"])
        assert args.dataset == "nist"
        assert args.scale == 0.05

    def test_mine_arguments(self):
        args = build_parser().parse_args(
            ["mine", "--input", "a.csv", "--output", "b.json", "--window", "1440",
             "--support", "0.3", "--approximate", "--density", "0.5"]
        )
        assert args.window == 1440.0
        assert args.approximate and args.density == 0.5

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--dataset", "nope", "--output", "x.csv"])


class TestGenerateCommand:
    def test_generate_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "data.csv"
        code = main(
            ["generate", "--dataset", "dataport", "--scale", "0.01",
             "--attributes", "0.3", "--seed", "1", "--output", str(output)]
        )
        assert code == 0
        assert output.exists()
        series_set = read_time_series_csv(output)
        assert len(series_set) >= 4
        assert "wrote" in capsys.readouterr().out


class TestMineCommand:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        output = tmp_path / "data.csv"
        main(
            ["generate", "--dataset", "dataport", "--scale", "0.015",
             "--attributes", "0.4", "--seed", "2", "--output", str(output)]
        )
        return output

    def test_mine_to_json(self, csv_path, tmp_path, capsys):
        output = tmp_path / "patterns.json"
        code = main(
            ["mine", "--input", str(csv_path), "--output", str(output),
             "--window", "1440", "--support", "0.4", "--confidence", "0.4",
             "--epsilon", "1", "--min-overlap", "5", "--tmax", "360", "--max-size", "2"]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["algorithm"] == "E-HTPGM"
        assert isinstance(payload["patterns"], list)
        assert "frequent patterns" in capsys.readouterr().out

    def test_mine_to_csv_approximate(self, csv_path, tmp_path):
        output = tmp_path / "patterns.csv"
        code = main(
            ["mine", "--input", str(csv_path), "--output", str(output),
             "--window", "1440", "--support", "0.4", "--confidence", "0.4",
             "--epsilon", "1", "--min-overlap", "5", "--tmax", "360",
             "--max-size", "2", "--approximate"]
        )
        assert code == 0
        lines = output.read_text().splitlines()
        assert lines[0].startswith("pattern,")

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code = main(
            ["mine", "--input", str(tmp_path / "missing.csv"), "--output",
             str(tmp_path / "out.json"), "--window", "1440"]
        )
        assert code != 0 or "error" in capsys.readouterr().err

    def test_workers_without_parallel_rejected(self, tmp_path, capsys):
        code = main(
            ["mine", "--input", str(tmp_path / "data.csv"), "--output",
             str(tmp_path / "out.json"), "--window", "1440", "--workers", "2"]
        )
        assert code == 2
        assert "--workers requires --parallel" in capsys.readouterr().err

    def test_mine_parallel_matches_serial(self, csv_path, tmp_path):
        common = [
            "--input", str(csv_path), "--window", "1440", "--support", "0.4",
            "--confidence", "0.4", "--epsilon", "1", "--min-overlap", "5",
            "--tmax", "360", "--max-size", "2",
        ]
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(["mine", *common, "--output", str(serial_out)]) == 0
        assert main(
            ["mine", *common, "--output", str(parallel_out),
             "--parallel", "--workers", "2"]
        ) == 0
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        assert serial["patterns"] == parallel["patterns"]

    def test_mi_threshold_without_approximate_rejected(self, tmp_path, capsys):
        """--mi-threshold used to be silently ignored without --approximate."""
        code = main(
            ["mine", "--input", str(tmp_path / "data.csv"), "--output",
             str(tmp_path / "out.json"), "--window", "1440",
             "--mi-threshold", "0.5"]
        )
        assert code == 2
        assert "require --approximate" in capsys.readouterr().err

    def test_density_without_approximate_rejected(self, tmp_path, capsys):
        """--density used to be silently ignored without --approximate."""
        code = main(
            ["mine", "--input", str(tmp_path / "data.csv"), "--output",
             str(tmp_path / "out.json"), "--window", "1440",
             "--density", "0.5"]
        )
        assert code == 2
        assert "require --approximate" in capsys.readouterr().err


class TestSessionWorkflow:
    """repro mine --session / --append: the incremental CLI loop."""

    @pytest.fixture()
    def base_csv(self, tmp_path):
        output = tmp_path / "base.csv"
        main(
            ["generate", "--dataset", "dataport", "--scale", "0.015",
             "--attributes", "0.4", "--seed", "2", "--output", str(output)]
        )
        return output

    @pytest.fixture()
    def delta_csv(self, tmp_path):
        output = tmp_path / "delta.csv"
        main(
            ["generate", "--dataset", "dataport", "--scale", "0.004",
             "--attributes", "0.4", "--seed", "9", "--output", str(output)]
        )
        return output

    def _mine_args(self, csv_path, output, session=None, append=None):
        args = ["mine", "--output", str(output), "--window", "1440"]
        if append is not None:
            # Mining parameters come from the session on --append; only the
            # transform flags describe how to read the new CSV.
            args += ["--append", str(append)]
        else:
            args += ["--input", str(csv_path), "--support", "0.4",
                     "--confidence", "0.4", "--epsilon", "1",
                     "--min-overlap", "5", "--tmax", "360", "--max-size", "2"]
        if session is not None:
            args += ["--session", str(session)]
        return args

    def test_mine_saves_session_then_append_updates_it(
        self, base_csv, delta_csv, tmp_path, capsys
    ):
        from repro.io import read_session

        session_path = tmp_path / "state.bin"
        code = main(self._mine_args(base_csv, tmp_path / "p1.json", session_path))
        assert code == 0
        assert session_path.exists()
        n_base = read_session(session_path).n_sequences
        assert "saved mining session" in capsys.readouterr().out

        code = main(
            self._mine_args(None, tmp_path / "p2.json", session_path, append=delta_csv)
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "appended" in out
        session = read_session(session_path)
        assert session.n_sequences > n_base
        assert session.appends == 1
        payload = json.loads((tmp_path / "p2.json").read_text())
        assert payload["n_sequences"] == session.n_sequences

    def test_append_matches_scratch_mine_of_concatenation(
        self, base_csv, delta_csv, tmp_path
    ):
        """The CLI-level parity check: append result == re-mining both CSVs."""
        import csv as csv_module

        session_path = tmp_path / "state.bin"
        main(self._mine_args(base_csv, tmp_path / "p1.json", session_path))
        main(self._mine_args(None, tmp_path / "inc.json", session_path, append=delta_csv))

        # Concatenate the two CSVs in time: shift the delta past the base.
        def read_rows(path):
            with open(path, newline="") as handle:
                rows = list(csv_module.reader(handle))
            return rows[0], rows[1:]

        header, base_rows = read_rows(base_csv)
        delta_header, delta_rows = read_rows(delta_csv)
        assert header == delta_header
        last = float(base_rows[-1][0])
        step = float(base_rows[1][0]) - float(base_rows[0][0])
        shifted = [
            [f"{last + step * (i + 1):g}", *row[1:]]
            for i, row in enumerate(delta_rows)
        ]
        union_csv = tmp_path / "union.csv"
        with open(union_csv, "w", newline="") as handle:
            writer = csv_module.writer(handle)
            writer.writerow(header)
            writer.writerows(base_rows + shifted)

        main(self._mine_args(union_csv, tmp_path / "scratch.json"))
        incremental = json.loads((tmp_path / "inc.json").read_text())
        scratch = json.loads((tmp_path / "scratch.json").read_text())
        assert incremental["patterns"] == scratch["patterns"]
        assert incremental["n_sequences"] == scratch["n_sequences"]

    def test_append_rejects_mining_parameter_overrides(
        self, base_csv, delta_csv, tmp_path, capsys
    ):
        """Thresholds are session state; changing them on --append would
        silently break the incremental invariant, so it is an error."""
        session_path = tmp_path / "state.bin"
        assert main(self._mine_args(base_csv, tmp_path / "p1.json", session_path)) == 0
        code = main(
            ["mine", "--append", str(delta_csv), "--session", str(session_path),
             "--output", str(tmp_path / "p2.json"), "--window", "1440",
             "--support", "0.3", "--max-size", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--support" in err and "--max-size" in err
        assert "cannot be changed on --append" in err

    def test_append_without_session_rejected(self, delta_csv, tmp_path, capsys):
        code = main(
            ["mine", "--append", str(delta_csv), "--output",
             str(tmp_path / "out.json"), "--window", "1440"]
        )
        assert code == 2
        assert "--append requires --session" in capsys.readouterr().err

    def test_append_with_input_rejected(self, base_csv, delta_csv, tmp_path, capsys):
        code = main(
            ["mine", "--input", str(base_csv), "--append", str(delta_csv),
             "--session", str(tmp_path / "s.bin"), "--output",
             str(tmp_path / "out.json"), "--window", "1440"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_input_without_append_rejected(self, tmp_path, capsys):
        code = main(
            ["mine", "--output", str(tmp_path / "out.json"), "--window", "1440"]
        )
        assert code == 2
        assert "--input is required" in capsys.readouterr().err

    def test_session_with_approximate_rejected(self, base_csv, tmp_path, capsys):
        code = main(
            ["mine", "--input", str(base_csv), "--output",
             str(tmp_path / "out.json"), "--window", "1440", "--approximate",
             "--session", str(tmp_path / "s.bin")]
        )
        assert code == 2
        assert "require the exact miner" in capsys.readouterr().err

    def test_append_to_missing_session_reports_error(self, delta_csv, tmp_path, capsys):
        code = main(
            ["mine", "--append", str(delta_csv), "--session",
             str(tmp_path / "missing.bin"), "--output",
             str(tmp_path / "out.json"), "--window", "1440"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_prints_comparison(self, capsys):
        code = main(
            ["evaluate", "--dataset", "dataport", "--scale", "0.015",
             "--attributes", "0.4", "--support", "0.5", "--confidence", "0.5",
             "--methods", "E-HTPGM", "TPMiner"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E-HTPGM" in out and "TPMiner" in out
        assert "runtime (s)" in out
