from __future__ import annotations

import numpy as np
import pytest

import helpers
from genboot import cli
from genboot.automata import accepts, dfg_to_dfa, log_to_dfa
from genboot.cli import (
    bundled_path,
    main,
    read_dfg,
    read_log,
    write_dfg,
    write_log,
)
from genboot.core import EventLog, Trace
from genboot.discovery_sim import DiscoveryConfig, discover_dfg
from genboot.entropy import model_system_measures, topological_entropy
from genboot.errors import ParseError

MODEL = str(bundled_path("model.dfg"))
SYSTEM = str(bundled_path("system.dfg"))
LOG = str(bundled_path("observed.log"))


def t(text: str) -> Trace:
    return Trace(tuple(text))


class TestLogFormat:
    def test_bundled_log(self, observed_log):
        assert observed_log.size == 66
        assert len(observed_log.support) == 6

    def test_round_trip(self, observed_log, tmp_path):
        target = tmp_path / "out.log"
        write_log(observed_log, target)
        assert read_log(target) == observed_log

    def test_round_trip_with_empty_trace(self, tmp_path):
        log = EventLog.from_counts({t(""): 3, t("ab"): 1})
        target = tmp_path / "eps.log"
        write_log(log, target)
        assert read_log(target) == log

    def test_duplicate_lines_accumulate(self, tmp_path):
        target = tmp_path / "dup.log"
        target.write_text("2 a b\n# comment\n\n3 a b\n")
        assert read_log(target) == EventLog.from_counts({t("ab"): 5})

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("x a b\n", "trace count"),
            ("0 a\n", "positive"),
            ("-2 a\n", "positive"),
            ("1 i\n", "reserved"),
            ("1 a i b\n", "reserved"),
        ],
    )
    def test_parse_errors(self, tmp_path, content, fragment):
        target = tmp_path / "bad.log"
        target.write_text(content)
        with pytest.raises(ParseError) as info:
            read_log(target)
        assert fragment in str(info.value)
        assert str(target) in str(info.value)
        assert ":1:" in str(info.value)


class TestDfgFormat:
    def test_bundled_model(self, model_dfg):
        assert model_dfg.actions == set("abcdef")
        assert model_dfg.action_freq["a"] == 80
        assert model_dfg.arc_freq[("f", "o")] == 60

    def test_round_trip(self, model_dfg, tmp_path):
        target = tmp_path / "out.dfg"
        write_dfg(model_dfg, target)
        assert read_dfg(target) == model_dfg

    def test_undeclared_edge_endpoints_become_actions(self, tmp_path):
        target = tmp_path / "bare.dfg"
        target.write_text("edge i a 1\nedge a o 1\n")
        graph = read_dfg(target)
        assert graph.actions == {"a"}
        assert graph.action_freq["a"] == 0

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("node a\n", "node lines read"),
            ("edge a b\n", "edge lines read"),
            ("vertex a 1\n", "unknown directive"),
            ("node a x\n", "frequency"),
            ("node a -1\n", "non-negative"),
            ("node a 1\nnode a 2\n", "duplicate node"),
            ("edge i a 1\nedge i a 2\n", "duplicate edge"),
            ("edge i o 1\n", "input-to-output"),
            ("edge a i 1\n", "endpoint"),
        ],
    )
    def test_parse_errors(self, tmp_path, content, fragment):
        target = tmp_path / "bad.dfg"
        target.write_text(content)
        with pytest.raises(ParseError) as info:
            read_dfg(target)
        assert fragment in str(info.value)


class TestMeasureCommand:
    def test_against_system(self, capsys, model_dfa, system_dfa):
        assert main(["measure", "--model", MODEL, "--system", SYSTEM]) == 0
        lines = capsys.readouterr().out.splitlines()
        precision, recall = model_system_measures(model_dfa, system_dfa)
        assert lines[0] == f"precision {precision:.6f}"
        assert lines[1] == f"recall {recall:.6f}"

    def test_against_log(self, capsys):
        assert main(["measure", "--model", MODEL, "--log", LOG]) == 0
        out = capsys.readouterr().out
        assert "precision 0.79" in out
        assert "recall 0.93" in out

    def test_system_and_log_are_exclusive(self, capsys):
        code = main(["measure", "--model", MODEL, "--system", SYSTEM, "--log", LOG])
        assert code == 1

    def test_missing_file_is_a_read_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.dfg")
        assert main(["measure", "--model", missing, "--log", LOG]) == 2

    def test_domain_error_exit_code(self, capsys, tmp_path):
        target = tmp_path / "empty.dfg"
        target.write_text("node i 0\nnode o 0\n")
        assert main(["measure", "--model", str(target), "--log", LOG]) == 3


class TestEntropyCommand:
    def test_of_graph(self, capsys, model_dfa):
        assert main(["entropy", "--dfg", MODEL]) == 0
        expected = topological_entropy(model_dfa).value
        assert capsys.readouterr().out == f"entropy {expected:.6f}\n"

    def test_of_log(self, capsys, observed_log):
        assert main(["entropy", "--log", LOG]) == 0
        expected = topological_entropy(log_to_dfa(observed_log)).value
        assert capsys.readouterr().out == f"entropy {expected:.6f}\n"

    def test_requires_exactly_one_source(self, capsys):
        assert main(["entropy"]) == 1
        assert main(["entropy", "--dfg", MODEL, "--log", LOG]) == 1


class TestDiscoverCommand:
    def test_matches_library_call(self, capsys, observed_log, tmp_path):
        out = tmp_path / "discovered.dfg"
        code = main(
            ["discover", "--log", LOG, "--filter-fraction", "1/3", "--out", str(out)]
        )
        assert code == 0
        expected = discover_dfg(observed_log, DiscoveryConfig(1 / 3))
        assert read_dfg(out) == expected

    def test_writes_to_stdout_by_default(self, capsys):
        assert main(["discover", "--log", LOG]) == 0
        out = capsys.readouterr().out
        assert "node i 66" in out
        assert "edge b b 10" in out

    def test_bad_fraction_is_a_usage_error(self, capsys):
        assert main(["discover", "--log", LOG, "--filter-fraction", "1/0"]) == 1


class TestSimulateCommand:
    def test_simulated_traces_fit_the_graph(self, capsys, model_dfa, tmp_path):
        out = tmp_path / "sim.log"
        code = main(
            ["simulate", "--dfg", MODEL, "--traces", "25", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        log = read_log(out)
        assert log.size == 25
        for trace in log.support:
            assert accepts(model_dfa, trace)

    def test_weighted_flag(self, capsys, tmp_path):
        out = tmp_path / "simw.log"
        code = main(
            [
                "simulate", "--dfg", MODEL, "--traces", "10", "--weighted",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        assert read_log(out).size == 10


class TestSampleCommand:
    def test_replacement(self, capsys, observed_log, tmp_path):
        out = tmp_path / "rep.log"
        code = main(
            [
                "sample", "--log", LOG, "--lsm", "replacement",
                "-n", "30", "--seed", "6", "--out", str(out),
            ]
        )
        assert code == 0
        replicate = read_log(out)
        assert replicate.size == 30
        assert set(replicate.support) <= set(observed_log.support)

    def test_breeding_is_deterministic(self, tmp_path):
        args = [
            "sample", "--log", LOG, "--lsm", "breeding",
            "-n", "40", "-g", "3", "-k", "2", "-p", "1.0", "--seed", "7",
        ]
        first = tmp_path / "a.log"
        second = tmp_path / "b.log"
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert read_log(first).size == 40


class TestEstimateCommand:
    def test_report_table(self, observed_log, tmp_path):
        out = tmp_path / "est.txt"
        code = main(
            [
                "estimate", "--model", MODEL, "--log", LOG,
                "--lsm", "replacement", "-n", "66", "-m", "3",
                "--seed", "8", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "measure\tmean\tci95\tvariance\treplicates"
        rows = {line.split("\t")[0]: line.split("\t") for line in lines[1:]}
        assert set(rows) == {"precision", "recall", "distinct_traces"}
        for cells in rows.values():
            assert len(cells) == 5
            assert cells[4] == "3"
            float(cells[1]), float(cells[2]), float(cells[3])

    def test_measure_selection_and_harmonic(self, tmp_path):
        out = tmp_path / "est2.txt"
        code = main(
            [
                "estimate", "--model", MODEL, "--log", LOG,
                "--lsm", "replacement", "-n", "66", "-m", "3",
                "--seed", "8", "--measure", "precision", "--harmonic",
                "--out", str(out),
            ]
        )
        assert code == 0
        names = [line.split("\t")[0] for line in out.read_text().splitlines()[1:]]
        assert names == ["precision", "harmonic_mean", "distinct_traces"]

    def test_workers_do_not_change_the_report(self, tmp_path):
        base = [
            "estimate", "--model", MODEL, "--log", LOG,
            "--lsm", "breeding", "-n", "40", "-g", "4", "-k", "2",
            "-m", "4", "--seed", "9",
        ]
        first = tmp_path / "w1.txt"
        second = tmp_path / "w2.txt"
        assert main([*base, "--workers", "1", "--out", str(first)]) == 0
        assert main([*base, "--workers", "2", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_dead_worker_exits_3_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "read_log", lambda path: helpers.WorkerKillingLog(read_log(path).entries)
        )
        code = main(
            [
                "estimate", "--model", MODEL, "--log", LOG,
                "--lsm", "replacement", "-n", "66", "-m", "4",
                "--seed", "8", "--workers", "2",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("genboot: cell lsm=replacement n=66")
        assert "a worker process died" in err
        assert "Traceback" not in err


class TestReproduceCommand:
    def test_minimal_run_produces_both_panels(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        code = main(
            ["reproduce_table1", "--seed", "1", "-m", "1", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "panel a: replicate size n (g=10000)" in text
        assert "panel b: breeding generations g (n=10000)" in text
        assert "seed=1 replicates_per_cell=1" in text
        body = [
            line
            for line in text.splitlines()
            if line and line[0].isdigit()
        ]
        assert len(body) == 6  # three rows per panel

    def test_dash_alias(self, capsys, tmp_path):
        out = tmp_path / "alias.txt"
        code = main(
            ["reproduce-table1", "--seed", "1", "-m", "1", "--out", str(out)]
        )
        assert code == 0


class TestUsage:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["estimate", "--model", MODEL]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_bundled_files_exist(self):
        for name in ("model.dfg", "system.dfg", "observed.log"):
            assert bundled_path(name).is_file()
