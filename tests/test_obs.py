"""Tests for the observability layer (``repro.obs``).

Covers the three pillars (spans, instruments, export/report), the
zero-overhead guarantee (an attached observer must not perturb the
event schedule), byte-identical exports for same-seed captures, the
network's send-hook list, obs traffic counts read from TrafficStats,
and a golden per-phase breakdown for one fixed n=10 G-PBFT scenario.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.common.config import GPBFTConfig, TopologySpec
from repro.net.network import SimulatedNetwork
from repro.net.simulator import Simulator
from repro.net.tracer import MessageTracer
from repro.obs.capture import capture_run
from repro.obs.core import Observability
from repro.obs.export import (
    chrome_trace,
    load_spans,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.instruments import Counter, Gauge, Histogram, Registry
from repro.obs.report import attribute_phases, era_timeline, percentile, render_report
from repro.obs.spans import NoopTracer, ObservabilityError, Tracer


class TestTracer:
    def test_open_close_records_interval(self):
        tracer = Tracer()
        tracer.open("a", "work", at=1.0)
        span = tracer.close("a", at=3.5)
        assert span is not None
        assert span.start == 1.0 and span.end == 3.5
        assert span.duration == pytest.approx(2.5)
        assert tracer.spans == [span]

    def test_duplicate_open_is_noop_first_wins(self):
        tracer = Tracer()
        first = tracer.open("k", "one", at=1.0)
        assert tracer.open("k", "two", at=2.0) is None
        span = tracer.close("k", at=3.0)
        assert span is first and span.name == "one"

    def test_close_unknown_key_returns_none(self):
        assert Tracer().close("ghost") is None

    def test_parent_child_nesting(self):
        tracer = Tracer()
        parent = tracer.open("req", "request", at=0.0)
        child = tracer.open("phase", "prepare", parent_key="req", at=0.5)
        assert child.parent == parent.sid
        orphan = tracer.open("other", "x", parent_key="missing", at=0.6)
        assert orphan.parent == -1

    def test_sids_increment_in_open_order(self):
        tracer = Tracer()
        a = tracer.open("a", "a", at=0.0)
        b = tracer.open("b", "b", at=0.0)
        inst = tracer.instant("i", at=0.0)
        assert (a.sid, b.sid, inst.sid) == (0, 1, 2)

    def test_bound_clock_supplies_timestamps(self):
        tracer = Tracer()
        now = {"t": 7.0}
        tracer.bind_clock(lambda: now["t"])
        tracer.open("k", "work")
        now["t"] = 9.0
        span = tracer.close("k")
        assert (span.start, span.end) == (7.0, 9.0)

    def test_finish_flags_unclosed_spans(self):
        tracer = Tracer()
        tracer.open("b", "late", at=1.0)
        tracer.open("a", "late2", at=2.0)
        tracer.finish(at=10.0)
        assert tracer.open_count == 0
        assert all(s.args.get("unclosed") for s in tracer.spans)
        assert all(s.end == 10.0 for s in tracer.spans)

    def test_span_contextmanager(self):
        tracer = Tracer()
        with tracer.span("k", "work") as span:
            assert span is not None
            assert tracer.is_open("k")
        assert not tracer.is_open("k")
        assert len(tracer.spans) == 1

    def test_noop_tracer_records_nothing(self):
        tracer = NoopTracer()
        assert not tracer.enabled
        assert tracer.open("k", "x") is None
        tracer.instant("i")
        assert tracer.close("k") is None
        assert tracer.spans == []


class TestInstruments:
    def test_counter_children_roll_up(self):
        c = Counter("net.messages")
        c.child("prepare").inc()
        c.child("commit").inc(2)
        assert c.value == 3
        snap = c.snapshot()
        assert snap == {"total": 3, "children": {"commit": 2, "prepare": 1}}

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter("c").inc(-1)

    def test_gauge_keeps_last_value(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(1.0)
        assert g.snapshot() == {"value": 1.0}

    def test_histogram_edge_membership_is_le(self):
        h = Histogram("h", (1.0, 2.0, 5.0))
        for v in (0.5, 1.0, 1.0001, 2.0, 5.0, 5.0001, 99.0):
            h.observe(v)
        # buckets: <=1, <=2, <=5, overflow
        assert h.counts == [2, 2, 1, 2]
        assert h.count == 7
        assert h.min == 0.5 and h.max == 99.0
        assert h.total == pytest.approx(113.5002)

    def test_histogram_children_roll_up(self):
        h = Histogram("wait", (1.0,))
        h.child("prepare").observe(0.5)
        h.child("commit").observe(2.0)
        assert h.count == 2
        assert h.counts == [1, 1]

    def test_histogram_validates_edges(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", ())
        with pytest.raises(ObservabilityError):
            Histogram("h", (2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", (1.0, 1.0))

    def test_registry_get_or_create_and_kind_clash(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("h", (1.0, 3.0))

    def test_snapshot_is_sorted_and_json_stable(self):
        reg = Registry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h", (1.0,)).observe(0.5)
        one = json.dumps(reg.snapshot(), sort_keys=True)
        two = json.dumps(reg.snapshot(), sort_keys=True)
        assert one == two
        assert list(reg.snapshot()["counters"]) == ["a", "b"]


class TestSendHooks:
    def _net(self, config=None):
        sim = Simulator()
        net = SimulatedNetwork(sim, config or GPBFTConfig().network)
        net.register(0, lambda env: None)
        net.register(1, lambda env: None)
        return sim, net

    def test_hooks_fan_out_in_order(self):
        from repro.net.message import RawPayload

        sim, net = self._net()
        seen = []

        def observer(tag):
            def hook(src, dst, payload):
                seen.append((tag, src, dst, payload))
                return False
            return hook

        net.send_hooks.append(observer("a"))
        net.send_hooks.append(observer("b"))
        payload = RawPayload("a.x", 10)
        net.send(0, 1, payload)
        assert seen == [("a", 0, 1, payload), ("b", 0, 1, payload)]
        assert net.stats.messages_sent == 1

    def test_taking_hook_stops_later_hooks_and_the_send(self):
        from repro.net.message import RawPayload

        sim, net = self._net()
        later = []
        net.send_hooks.append(lambda src, dst, payload: True)
        net.send_hooks.append(lambda *row: bool(later.append(row)))
        net.send(0, 1, RawPayload("a.x", 10))
        assert later == []
        assert net.stats.messages_sent == 0

    def test_removing_hooks_restores_the_plain_path(self):
        from repro.net.message import RawPayload

        sim, net = self._net()
        tracer = MessageTracer(net)
        def hook(src, dst, payload):
            return True

        net.send_hooks.append(hook)
        net.send_hooks.remove(hook)
        tracer.detach()
        assert net.send_hooks == []
        assert "send" not in vars(net)  # the class method, never rebound
        net.send(0, 1, RawPayload("a.x", 10))
        sim.run()
        assert net.stats.messages_delivered == 1
        assert len(tracer.rows) == 0

    def test_message_tracer_and_obs_share_one_network(self):
        from repro.net.message import RawPayload

        sim, net = self._net()
        obs = Observability()
        obs.bind(sim, net)
        tracer = MessageTracer(net)
        assert len(net.send_hooks) == 1  # obs adds no hook
        net.send(0, 1, RawPayload("a.x", 10))
        assert len(tracer.rows) == 1
        snap = obs.snapshot()
        assert snap["counters"]["net.messages_sent"]["total"] == 1
        tracer.detach()
        # obs still counts after the tracer leaves
        net.send(0, 1, RawPayload("a.y", 10))
        assert obs.snapshot()["counters"]["net.messages_sent"]["total"] == 2
        assert len(tracer.rows) == 1

    def test_obs_counts_match_traffic_stats(self):
        """Obs reads TrafficStats: envelope overhead and bulk charges count."""
        from repro.common.config import NetworkConfig
        from repro.net.message import RawPayload

        sim, net = self._net(NetworkConfig(envelope_overhead_bytes=40))
        obs = Observability()
        obs.bind(sim, net)
        net.send(0, 1, RawPayload("a.x", 10))
        obs.finish()
        counters = obs.registry.snapshot()["counters"]
        assert counters["net.bytes_sent"]["total"] == net.stats.bytes_sent == 50
        # a bulk charge booked straight on the stats (as chain sync does)
        net.stats.on_send(0, "bulk.sync", 1000)
        counters = obs.snapshot()["counters"]
        assert counters["net.bytes_sent"]["total"] == net.stats.bytes_sent == 1050
        assert counters["net.messages_sent"]["children"] == {"a.x": 1, "bulk.sync": 1}

    def test_frame_traffic_sums_to_traffic_stats(self):
        from repro.obs.obsconfig import ObsConfig

        cap = capture_run(protocol="gpbft", n=10, submissions=3, seed=2,
                          horizon_s=30.0, era_switch_at=6.0,
                          obs_config=ObsConfig(window_s=5.0, timeseries=True))
        frames = list(cap.obs.timeseries.frames_tail)
        stats = cap.host.network.stats
        assert len(frames) > 1
        assert sum(f["counters"]["messages_sent"] for f in frames) == stats.messages_sent
        assert sum(f["counters"]["bytes_sent"] for f in frames) == stats.bytes_sent


class TestZeroOverhead:
    """An attached observer must not change the event schedule."""

    def _run(self, obs):
        base = GPBFTConfig()
        config = base.replace(network=replace(base.network, seed=7))
        dep = TopologySpec.single(10, config=config, seed=7,
                                  start_reports=False).build(obs=obs)
        ids = sorted(dep.nodes)
        for k in range(5):
            dep.sim.schedule_at(1.0 + 0.75 * k, dep.submit_from,
                                ids[k % len(ids)])
        dep.sim.schedule_at(8.0, dep.force_era_switch)
        dep.sim.run(until=40.0)
        return dep

    def test_schedule_identical_with_and_without_obs(self):
        plain = self._run(None)
        traced = self._run(Observability())
        assert plain.sim.events_processed == traced.sim.events_processed
        assert [(e.at, e.kind, e.node) for e in plain.events] == \
               [(e.at, e.kind, e.node) for e in traced.events]


class TestExport:
    def _spans(self):
        tracer = Tracer()
        tracer.open("req", "request", cat="request", node=1, at=1.0,
                    request_id="r1", committee_size=4)
        tracer.open("p", "prepare", cat="phase", node=2, parent_key="req",
                    at=1.2, request_id="r1")
        tracer.close("p", at=1.5)
        tracer.close("req", at=2.0)
        return tracer.spans

    def test_chrome_trace_schema_is_valid(self):
        doc = chrome_trace(self._spans())
        validate_chrome_trace(doc)
        ev = doc["traceEvents"][0]
        assert ev["ph"] == "X" and ev["ts"] == pytest.approx(1.2e6)
        assert ev["dur"] == pytest.approx(0.3e6)
        assert ev["tid"] == 2 and ev["pid"] == 0

    def test_validate_rejects_malformed_docs(self):
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]})
        with pytest.raises(ObservabilityError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "pid": 0, "tid": 0,
                 "dur": -1}]})

    def test_roundtrip_both_formats(self, tmp_path):
        spans = self._spans()
        chrome = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        write_chrome_trace(spans, chrome)
        write_spans_jsonl(spans, jsonl)
        for path in (chrome, jsonl):
            loaded = load_spans(path)
            assert [(s.name, s.node, s.args.get("request_id")) for s in loaded] == \
                   [(s.name, s.node, s.args.get("request_id")) for s in spans]
            assert [s.start for s in loaded] == pytest.approx([s.start for s in spans])

    def test_same_seed_exports_identical_bytes(self, tmp_path):
        files = []
        for i in (0, 1):
            cap = capture_run(protocol="gpbft", n=10, submissions=3,
                              seed=5, horizon_s=20.0)
            chrome = tmp_path / f"c{i}.json"
            jsonl = tmp_path / f"s{i}.jsonl"
            write_chrome_trace(cap.spans, chrome)
            write_spans_jsonl(cap.spans, jsonl)
            files.append((chrome.read_bytes(), jsonl.read_bytes(),
                          json.dumps(cap.snapshot(), sort_keys=True)))
        assert files[0] == files[1]


class TestReport:
    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 95) == 10.0
        assert percentile([3.0], 99) == 3.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_golden_phase_breakdown_n10(self):
        """Golden: fixed n=10 G-PBFT scenario, seed 7, era switch at t=8.

        Pinned against the same determinism contract as the golden
        fingerprints: any change to message layout, timers, or span
        instrumentation shows up here.
        """
        cap = capture_run(protocol="gpbft", n=10, submissions=5, seed=7,
                          horizon_s=40.0, era_switch_at=8.0)
        assert len(cap.spans) == 156
        breakdowns = attribute_phases(cap.spans)
        assert len(breakdowns) == 6  # 5 submissions + the era-switch op
        assert all(b.committee_size == 10 for b in breakdowns)
        first = breakdowns[0]
        assert first.phases["pre-prepare"] == pytest.approx(0.111251, abs=1e-5)
        assert first.phases["prepare"] == pytest.approx(0.510786, abs=1e-5)
        assert first.phases["commit"] == pytest.approx(0.9, abs=1e-5)
        assert first.phases["reply"] == pytest.approx(0.998361, abs=1e-5)
        assert first.total == pytest.approx(2.520398, abs=1e-5)
        timeline = era_timeline(cap.spans)
        assert len(timeline) == 1
        assert timeline[0]["era"] == 1
        assert timeline[0]["nodes"] == 10
        assert timeline[0]["downtime_s"] == pytest.approx(1.428868, abs=1e-5)
        snap = cap.snapshot()
        assert snap["counters"]["net.messages_sent"]["total"] == 1417
        assert snap["histograms"]["era.switch_downtime_s"]["count"] == 10  # gpb: allow GPB013 -- observability instrument name, its own namespace
        assert snap["histograms"]["pbft.quorum_wait_s"]["count"] == 140  # gpb: allow GPB013 -- observability instrument name, its own namespace

    def test_render_report_has_phase_table_and_era_line(self):
        cap = capture_run(protocol="gpbft", n=10, submissions=3, seed=2,
                          horizon_s=30.0, era_switch_at=6.0)
        text = render_report(cap.spans)
        for needle in ("pre-prepare", "prepare", "commit", "reply",
                       "p50 ms", "era switches:", "era 1:"):
            assert needle in text, f"missing {needle!r} in report"

    def test_report_without_era_switches_says_so(self):
        cap = capture_run(protocol="pbft", n=4, submissions=2, seed=0,
                          horizon_s=15.0)
        assert "era switches: none recorded" in render_report(cap.spans)


class TestCli:
    def test_capture_report_validate_pipeline(self, tmp_path, capsys):
        from repro.obs.cli import main

        trace = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main(["capture", "--protocol", "gpbft", "-n", "10",
                   "--submissions", "3", "--seed", "2", "--horizon", "30",
                   "--era-switch-at", "6",
                   "--trace", str(trace), "--spans", str(spans),
                   "--metrics", str(metrics)])
        assert rc == 0
        assert main(["validate", str(trace)]) == 0
        assert main(["report", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "era 1:" in out and "p50 ms" in out
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["gauges"]["sim.events_processed"]["value"] > 0

    def test_validate_rejects_non_trace_json(self, tmp_path):
        from repro.obs.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["validate", str(bad)]) == 2


class TestAnalyzerSpanArm:
    def test_gpb009_flags_wall_clock_inside_span_body(self, tmp_path):
        from repro.analysis import analyze

        (tmp_path / "eventlog.py").write_text('EV_X = "x.kind"\n')
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "def f(tracer):\n"
            "    with tracer.span('k', 'work'):\n"
            "        return time.perf_counter()\n"
        )
        rules = {f.rule_id for f in analyze([tmp_path]).findings}
        assert "GPB009" in rules  # the span-body wall-clock arm
        assert "GPB001" in rules  # and the general wall-clock rule

    def test_gpb009_allows_wall_clock_outside_spans(self, tmp_path):
        from repro.analysis import analyze

        (tmp_path / "eventlog.py").write_text('EV_X = "x.kind"\n')
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "def f():\n"
            "    return time.perf_counter()\n"
        )
        rules = [f.rule_id for f in analyze([tmp_path]).findings]
        assert "GPB009" not in rules
