"""The benchmark's own checks, at reduced size.

Run from the repository root::

    python3 -m pytest e2ebench -q

Every workload must be a pure function of its seed: two runs of one
seed give the same behaviour digest and the same simulated metrics,
whether or not the run is cut into chunks for the pace probe, and
another seed gives another digest (so the seed argument is live).  The
traced run must cover its wall time with layer spans and show the
layers each workload is meant to bypass at zero.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _instance(name: str, seed: int, pace: harness.Pace | None = None) -> harness.Instance:
    workload = WORKLOADS[name]
    return harness.summarize(
        harness.run_rep(workload, seed, workload.test_size, pace=pace))


def _simulated(inst: harness.Instance) -> dict:
    data = dataclasses.asdict(inst)
    del data["setup_s"], data["wall_s"], data["paced_s"]  # machine-dependent
    return data


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_behaviour(name):
    # the second run is cut into chunks for the pace probe, as timed runs are
    first, again = _instance(name, 1), _instance(name, 1, harness.Pace())
    assert _simulated(first) == _simulated(again)
    assert first.latencies, "nothing committed"
    assert _instance(name, 2).digest != first.digest


BYPASSED = ("core", "chain", "geo", "verify")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_attributes_layers(name):
    metrics, _ = harness.measure_layers(name, 1, WORKLOADS[name].test_size)
    assert set(metrics) == set(harness.LAYER_UNITS)
    assert abs(metrics["trace.unattributed_frac"]) <= harness.SPAN_COVERAGE_TOLERANCE
    shares = sum(metrics[f"{layer}.share"] for layer in harness.tracing.LAYER_NAMES)
    assert shares == pytest.approx(1.0 - metrics["trace.unattributed_frac"])
    fault = name == "gpbft_paper_crash"
    for layer in BYPASSED:
        assert (metrics[f"{layer}.self_s"] > 0) == fault, layer
    assert (metrics["pbft.view_changes"] > 0) == fault
    assert (metrics["workloads.self_s"] > 0) == (name == "city_12zone")
