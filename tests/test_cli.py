"""Tests: the gpbft-experiments command-line interface."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_profile_default_quick(self, monkeypatch):
        monkeypatch.delenv("GPBFT_BENCH_PROFILE", raising=False)
        args = build_parser().parse_args(["table2"])
        assert args.profile == "quick"

    def test_profile_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GPBFT_BENCH_PROFILE", "paper")
        args = build_parser().parse_args(["table2"])
        assert args.profile == "paper"

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert str(args.cache_dir).endswith("cache")

    def test_engine_flags_parsed(self, tmp_path):
        args = build_parser().parse_args(
            ["fig4", "--jobs", "4", "--no-cache", "--cache-dir", str(tmp_path)])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == tmp_path


class TestMain:
    def test_table2_runs_and_prints(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "geographic timer" in out.lower()

    def test_out_directory_written(self, tmp_path, capsys):
        assert main(["table2", "--out", str(tmp_path)]) == 0
        written = tmp_path / "table2_quick.txt"
        assert written.exists()
        assert "Table II" in written.read_text()

    def test_table4_runs(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "G-PBFT" in out and "PoW" in out

    def test_cache_summary_line_printed(self, tmp_path, capsys):
        argv = ["table4", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache hits" in cold and "misses" in cold
        assert main(argv) == 0  # second run: everything from cache
        warm = capsys.readouterr().out
        assert "(3 cache hits, 0 misses)" in warm

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        assert main(["table4", "--no-cache", "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []


class TestSvgOutput:
    def _figure_result(self):
        from repro.experiments.figures import FigureResult
        from repro.metrics.collector import SweepResult

        sweep = SweepResult("PBFT", "nodes", "latency (s)")
        sweep.add(4, [1.0, 1.2, 1.1])
        sweep.add(10, [3.0, 3.3, 2.9])
        return FigureResult(figure_id="figX", series=[sweep], text="fake")

    def test_write_svgs_line_chart(self, tmp_path):
        from repro.experiments.cli import _write_svgs

        written = _write_svgs("fig6", self._figure_result(), "quick", tmp_path)
        assert len(written) == 1
        assert written[0].name == "fig6_quick.svg"
        assert written[0].read_text().startswith("<svg")

    def test_write_svgs_boxplots_for_fig3(self, tmp_path):
        from repro.experiments.cli import _write_svgs

        written = _write_svgs("fig3", self._figure_result(), "quick", tmp_path)
        assert len(written) == 1  # one boxplot per series
        assert "pbft" in written[0].name

    def test_write_svgs_skips_tables(self, tmp_path):
        from repro.experiments.cli import _write_svgs
        from repro.experiments.tables import TableResult

        table = TableResult(table_id="t", values={}, text="x")
        assert _write_svgs("table2", table, "quick", tmp_path) == []


class TestTrafficMeasureHelper:
    def test_measure_single_tx_cost(self):
        from repro.metrics.traffic import measure_single_tx_cost
        from repro.common.config import TopologySpec
        from repro.pbft import RawOperation

        cluster = TopologySpec.cluster(4, 1).build()

        def run_tx():
            cluster.submit(RawOperation("one"))
            cluster.run(until=60)

        delta = measure_single_tx_cost(cluster.network.stats, run_tx)
        assert delta.bytes_sent > 0
        assert "pbft.commit" in delta.bytes_by_kind
