"""Self-tests of the benchmark.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

import run
import spans
import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the tail rule -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_reports_value_and_sample_count():
    values = [float(i) for i in range(1, 101)]
    pct, value, n, beyond = stats.tail(list(reversed(values)))
    assert (pct, value, n, beyond) == (90.0, 90.0, 100, 10)


def test_tail_percentile_follows_the_guaranteed_count():
    # 150 samples of a run that always yields at least 100: p90, never p95,
    # so a faster program is not judged on a higher percentile.
    values = [float(i) for i in range(1, 151)]
    assert stats.tail(values, guaranteed=100)[:2] == (90.0, 135.0)
    assert stats.tail(values)[:2] == (90.0, 135.0)
    assert stats.tail(values + [151.0] * 50)[0] == 95.0


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.0]
    assert stats.quartile_spread(values) == pytest.approx((10.625 - 9.375) / 10.0)


# -- span self-time arithmetic -----------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_children_and_folds_same_layer_nesting():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def sim_inner():
        clock.tick(1.0)

    def sim_outer():
        clock.tick(2.0)
        traced_sim_inner()  # same layer: folds into this span

    traced_sim_inner = recorder.wrap("sim", sim_inner)
    traced_sim_outer = recorder.wrap("sim", sim_outer)

    def pertest():
        clock.tick(0.5)
        traced_sim_outer()
        clock.tick(0.25)
        traced_sim_inner()

    recorder.die = 7
    traced_pertest = recorder.wrap("core.pertest", pertest)
    die = recorder.open("die")
    traced_pertest()
    clock.tick(0.125)
    recorder.close(die)

    names = [span[0] for span in recorder.spans]
    assert names == ["die", "core.pertest", "sim", "sim"]
    assert all(span[4] == 7 for span in recorder.spans)
    seconds, calls = spans.layer_totals(recorder.spans)
    assert seconds == {"die": 0.125, "core.pertest": 0.75, "sim": 4.0}
    assert calls == {"die": 1, "core.pertest": 1, "sim": 2}
    assert spans.layer_totals(recorder.spans, dies={3}) == ({}, {})


def test_spans_export_as_a_chrome_trace():
    from repro.obs.trace import to_chrome_trace

    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    recorder.die = 0
    outer = recorder.open("die")
    recorder.wrap("tester", lambda: clock.tick(0.001))()
    recorder.close(outer)
    forest = spans.to_forest(recorder.spans)
    assert forest[0]["children"][0]["name"] == "tester"
    events = to_chrome_trace([(0, forest)])["traceEvents"]
    assert [e["name"] for e in events] == ["die", "tester"]
    assert events[1]["args"] == {"die": 0}


def test_install_wraps_every_layer_and_uninstall_restores_it():
    import repro
    from repro.core.diagnose import Diagnoser
    from repro.tester.datalog import Datalog

    originals = (repro.load_circuit, Diagnoser.diagnose, Datalog.__dict__["from_text"])
    recorder = spans.SpanRecorder()
    layers = spans.install(recorder)
    try:
        netlist = repro.load_circuit("c17")
        patterns = repro.provision_patterns(netlist)
        for seed in range(100):
            defects = repro.sample_defect_set(netlist, 1, seed=seed)
            result = repro.apply_test(netlist, patterns, defects)
            if result.device_fails:
                break
        text = result.datalog.to_text()
        Diagnoser(netlist).diagnose(patterns, Datalog.from_text(text))
    finally:
        layers.uninstall()
    assert (repro.load_circuit, Diagnoser.diagnose, Datalog.__dict__["from_text"]) == originals
    seen = {span[0] for span in recorder.spans}
    assert {"circuit", "atpg", "tester", "core", "sim", "core.backtrace"} <= seen


# -- /metrics parsing --------------------------------------------------------


def test_metric_deltas_from_prometheus_text():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("repro_serve_jobs_total", state="running").inc(2)
    registry.histogram("repro_serve_job_seconds", qos="standard").observe(0.5)
    before = stats.parse_prometheus(registry.to_prometheus_text())
    registry.counter("repro_serve_jobs_total", state="running").inc(3)
    registry.counter("repro_sim_gate_evals_total").inc(1234)
    registry.histogram("repro_serve_job_seconds", qos="standard").observe(0.25)
    after = stats.parse_prometheus(registry.to_prometheus_text())

    assert stats.metric_delta(before, after, "repro_serve_jobs_total", state="running") == 3
    assert stats.metric_delta(before, after, "repro_sim_gate_evals_total") == 1234
    assert stats.metric_delta(
        before, after, "repro_serve_job_seconds_sum", qos="standard"
    ) == pytest.approx(0.25)
    assert stats.metric_delta(
        before, after, "repro_serve_job_seconds_count", qos="standard"
    ) == 1
    assert stats.metric_delta(
        before, after, "repro_serve_job_seconds_bucket", le="+Inf", qos="standard"
    ) == 1


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        stats.parse_prometheus("this is not a sample line at all\n")


# -- smoke runs --------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, monkeypatch, capsys):
    """A seconds-long run of each workload passes its output checks and
    prints every metric BENCHMARK.json declares, with its unit."""
    spec = dict(run.WORKLOADS[workload], min_dies=20, setup_samples=2)
    monkeypatch.setitem(run.WORKLOADS, workload, spec)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "4",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert result["attempted"] >= 20 and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert any("report digest" in line for line in lines)
