"""Observability layer: tracing spans, metrics registry, determinism.

Three contracts pinned here:

1. **Span mechanics** -- nesting, the injectable clock, exception
   unwinding, the active-tracer stack, and the Chrome-trace exporter.
2. **Metrics export** -- Prometheus text exposition (family ordering,
   label escaping, cumulative histogram buckets) and the JSON image.
3. **Determinism** -- a traced diagnosis and campaign are byte-identical
   to untraced ones everywhere outside the explicitly excluded
   ``seconds*`` / ``trace`` stats, and untraced CSV/journal output keeps
   the historical format exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.circuit.generators import c17, ripple_carry_adder
from repro.circuit.netlist import Site
from repro.core.diagnose import DiagnosisConfig, Diagnoser, run_method
from repro.faults.models import StuckAtDefect
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    record_diagnosis,
    record_sim_delta,
    record_trial,
)
from repro.obs.trace import (
    NULL_TRACER,
    STAGES,
    NullTracer,
    Tracer,
    active_tracer,
    chrome_trace_events,
    install_tracer,
    span_count,
    stage_seconds,
    to_chrome_trace,
    trace_event,
    trace_span,
    uninstall_tracer,
)
from repro.sim.cache import (
    MAX_CONTEXTS,
    context_cache_size,
    reset_sim_caches,
    sim_context,
)
from repro.sim.patterns import PatternSet
from repro.tester.harness import apply_test


class FakeClock:
    """Deterministic clock: each read advances by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


# -- span mechanics -----------------------------------------------------------


class TestTracer:
    def test_nesting_and_durations(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert len(t.roots) == 1
        outer = t.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner"]
        inner = outer.children[0]
        # Clock reads: outer open (0), inner open (1), inner close (2),
        # outer close (3).
        assert inner.duration == pytest.approx(1.0)
        assert outer.duration == pytest.approx(3.0)
        assert t.n_spans == 2

    def test_siblings_and_events(self):
        t = Tracer(clock=FakeClock())
        with t.span("root"):
            with t.span("a"):
                pass
            t.event("tick", value=7)
            with t.span("b"):
                pass
        (root,) = t.roots
        assert [c.name for c in root.children] == ["a", "tick", "b"]
        tick = root.children[1]
        assert tick.duration == 0.0
        assert tick.meta == {"value": 7}

    def test_exception_unwinds_open_spans(self):
        t = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        # Both spans closed despite the exception; stack is clean.
        assert t._stack == []
        outer = t.roots[0]
        assert outer.end >= outer.children[0].end

    def test_to_dicts_shape(self):
        t = Tracer(clock=FakeClock())
        with t.span("outer", circuit="c17"):
            t.event("e")
        payload = t.to_dicts()
        assert payload[0]["name"] == "outer"
        assert payload[0]["meta"] == {"circuit": "c17"}
        assert payload[0]["children"][0]["name"] == "e"
        json.dumps(payload)  # JSON-safe

    def test_null_tracer_is_inert(self):
        ctx = NULL_TRACER.span("anything", key="value")
        with ctx as sp:
            assert sp is None
        assert NULL_TRACER.event("x") is None
        assert not NullTracer.enabled and Tracer.enabled

    def test_active_tracer_stack(self):
        assert isinstance(active_tracer(), NullTracer)
        t = Tracer(clock=FakeClock())
        install_tracer(t)
        try:
            assert active_tracer() is t
            trace_event("deep", hit=True)
            with trace_span("stage"):
                pass
        finally:
            uninstall_tracer(t)
        assert isinstance(active_tracer(), NullTracer)
        assert [s.name for s in t.roots] == ["deep", "stage"]

    def test_uninstall_pops_through(self):
        t1, t2 = Tracer(), Tracer()
        install_tracer(t1)
        install_tracer(t2)
        uninstall_tracer(t1)  # pops t2 as well
        assert isinstance(active_tracer(), NullTracer)


class TestSummariesAndExport:
    def _forest(self):
        t = Tracer(clock=FakeClock())
        with t.span("diagnose"):
            with t.span("cover"):
                pass
            with t.span("cover"):
                t.event("sim.kernel_compile", variant="full2")
        return t.to_dicts()

    def test_stage_seconds_sums_repeats(self):
        totals = stage_seconds(self._forest())
        # Two "cover" spans of 1s and 2s (event inside costs one read).
        assert totals["cover"] == pytest.approx(3.0)
        assert totals["sim.kernel_compile"] == 0.0
        assert "diagnose" in totals

    def test_span_count(self):
        assert span_count(self._forest()) == 4

    def test_chrome_trace_events(self):
        events = chrome_trace_events(self._forest(), pid=1, tid=9)
        assert all(e["pid"] == 1 and e["tid"] == 9 for e in events)
        kinds = {e["name"]: e["ph"] for e in events}
        assert kinds["diagnose"] == "X"
        assert kinds["sim.kernel_compile"] == "i"
        durable = next(e for e in events if e["name"] == "diagnose")
        assert durable["dur"] > 0 and durable["ts"] == 0.0
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t" and "dur" not in instant
        assert instant["args"] == {"variant": "full2"}

    def test_to_chrome_trace(self):
        payload = to_chrome_trace([(0, self._forest()), (1, self._forest())])
        assert payload["displayTimeUnit"] == "ms"
        tids = {e["tid"] for e in payload["traceEvents"]}
        assert tids == {0, 1}
        json.loads(json.dumps(payload))


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things", kind="a")
        c.inc()
        c.inc(2)
        assert reg.counter("repro_things_total", kind="a") is c
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("repro_level")
        g.set(5)
        g.dec(2)
        assert g.value == 3.0

    def test_kind_mismatch_and_bad_names(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")
        with pytest.raises(ValueError):
            reg.counter("bad name!")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", **{"0bad": "v"})

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total", "b help", cause="time\"out\\x\n").inc()
        reg.counter("repro_a_total").inc(2)
        text = reg.to_prometheus_text()
        lines = text.splitlines()
        # Families sorted by name; HELP only when given; TYPE always.
        assert lines[0] == "# TYPE repro_a_total counter"
        assert lines[1] == "repro_a_total 2"
        assert lines[2] == "# HELP repro_b_total b help"
        assert lines[3] == "# TYPE repro_b_total counter"
        assert lines[4] == 'repro_b_total{cause="time\\"out\\\\x\\n"} 1'
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        assert h.cumulative() == [
            (0.1, 1),
            (1.0, 3),
            (10.0, 3),
            (float("inf"), 4),
        ]
        text = reg.to_prometheus_text()
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert "repro_lat_seconds_count 4" in text
        assert "repro_lat_seconds_sum 101.05" in text

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("repro_t_total", status="ok").inc()
        reg.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        payload = json.loads(reg.to_json())
        assert payload["repro_t_total"]["kind"] == "counter"
        assert payload["repro_t_total"]["series"][0]["labels"] == {"status": "ok"}
        buckets = payload["repro_h_seconds"]["series"][0]["buckets"]
        assert buckets[-1]["le"] == "+Inf" and buckets[-1]["count"] == 1

    def test_domain_recorders_feed_global_registry(self):
        REGISTRY.reset()
        record_sim_delta({"gate_evals": 10, "flip_hits": 0})
        record_diagnosis("xcover", 0.02, "exact")
        record_trial("ok")
        record_trial("error", cause="timeout")
        text = REGISTRY.to_prometheus_text()
        assert "repro_sim_gate_evals_total 10" in text
        assert "repro_sim_flip_hits_total" not in text  # zero deltas skipped
        assert 'repro_trials_total{status="ok"} 1' in text
        assert 'repro_trial_failures_total{cause="timeout"} 1' in text
        assert (
            'repro_diagnosis_runs_total{completeness="exact",method="xcover"} 1'
            in text
        )


# -- determinism: traced == untraced ------------------------------------------


@pytest.fixture(scope="module")
def diag_inputs():
    n = ripple_carry_adder(5)
    pats = PatternSet.random(n, 40, seed=13)
    defects = [StuckAtDefect(Site("n10"), 0), StuckAtDefect(Site("n20"), 1)]
    result = apply_test(n, pats, defects)
    return n, pats, result


def _strip(payload: dict) -> dict:
    payload["stats"] = {
        k: v
        for k, v in payload["stats"].items()
        if not k.startswith("seconds") and k != "trace"
    }
    return payload


class TestTracedDeterminism:
    def test_traced_report_identical(self, diag_inputs):
        n, pats, result = diag_inputs
        reset_sim_caches()
        plain = Diagnoser(n).diagnose(pats, result.datalog)
        reset_sim_caches()
        tracer = Tracer()
        traced = Diagnoser(n).diagnose(pats, result.datalog, tracer=tracer)
        assert "trace" in traced.stats and "trace" not in plain.stats
        assert _strip(plain.to_dict()) == _strip(traced.to_dict())
        assert plain.summary() == traced.summary()
        # The serialized forms agree byte-for-byte once the excluded
        # timing keys are gone -- the determinism contract of the issue.
        assert json.dumps(_strip(plain.to_dict())) == json.dumps(
            _strip(traced.to_dict())
        )

    def test_trace_covers_pipeline_stages(self, diag_inputs):
        n, pats, result = diag_inputs
        reset_sim_caches()
        tracer = Tracer()
        run_method(
            "xcover", n, pats, result.datalog, raw=result.datalog, tracer=tracer
        )
        totals = stage_seconds(tracer.to_dicts())
        for stage in ("context", "backtrace", "pertest", "cover", "refine",
                      "scoring", "oracle"):
            assert stage in totals, f"missing {stage} span"
        from repro.sim.compile import backend

        if backend() == "compiled":
            # Cold caches -> at least one kernel compile event.
            assert "sim.kernel_compile" in totals

    def test_flip_index_span_counts_new_sites(self, diag_inputs):
        n, pats, result = diag_inputs
        reset_sim_caches()
        diagnoser = Diagnoser(n)

        def index_spans(report):
            found = []

            def walk(span):
                if span["name"] == "pertest.index":
                    found.append(span.get("meta"))
                for child in span.get("children", ()):
                    walk(child)

            for root in report.stats["trace"]:
                walk(root)
            return found

        cold = diagnoser.diagnose(pats, result.datalog, tracer=Tracer())
        assert index_spans(cold) == [
            {"new_sites": int(cold.stats["n_candidate_space"])}
        ]
        warm = diagnoser.diagnose(pats, result.datalog, tracer=Tracer())
        assert index_spans(warm) == [{"new_sites": 0}]

    def test_xcover_engine_stage_span(self, diag_inputs):
        n, pats, result = diag_inputs
        reset_sim_caches()
        tracer = Tracer()
        Diagnoser(n, DiagnosisConfig(engine="xcover")).diagnose(
            pats, result.datalog, tracer=tracer
        )
        totals = stage_seconds(tracer.to_dicts())
        assert "xcover" in totals and "pertest" not in totals

    def test_tracer_uninstalled_after_diagnose(self, diag_inputs):
        n, pats, result = diag_inputs
        tracer = Tracer()
        Diagnoser(n).diagnose(pats, result.datalog, tracer=tracer)
        assert isinstance(active_tracer(), NullTracer)


class TestCampaignTracing:
    def _run(self, trace: bool):
        from repro.campaign.driver import Campaign, CampaignConfig
        from repro.campaign.export import outcomes_to_csv
        from repro.campaign.runner import RunnerConfig

        reset_sim_caches()
        campaign = Campaign(c17())
        config = CampaignConfig(
            circuit="c17", n_trials=3, k=2, seed=5,
            methods=("xcover", "slat"), trace=trace,
        )
        result = campaign.run(config, RunnerConfig())
        return result, outcomes_to_csv(result)

    def test_untraced_csv_is_historical(self):
        from repro.campaign.export import OUTCOME_FIELDS

        result, csv_text = self._run(trace=False)
        assert csv_text.splitlines()[0] == ",".join(OUTCOME_FIELDS)
        assert not result.traces
        assert all("trace_spans" not in o.extra for o in result.outcomes)

    def test_traced_campaign_outcomes_match_untraced(self):
        from repro.campaign.export import OUTCOME_FIELDS, TRACE_STAT_FIELDS

        plain_result, plain_csv = self._run(trace=False)
        traced_result, traced_csv = self._run(trace=True)
        assert traced_csv.splitlines()[0] == ",".join(
            OUTCOME_FIELDS + TRACE_STAT_FIELDS
        )
        # Diagnosis content identical: strip the trace-only extras and the
        # outcome payloads must match exactly (seconds excluded).
        def norm(outcomes):
            rows = []
            for o in outcomes:
                extra = {
                    k: v for k, v in o.extra.items() if not k.startswith("trace_")
                }
                extra.pop("trace_spans", None)
                rows.append((o.method, o.recall_near, o.precision,
                             o.resolution, o.success, tuple(sorted(extra))))
            return rows

        assert norm(plain_result.outcomes) == norm(traced_result.outcomes)
        # Each traced trial carries a span tree rooted at "trial".
        assert len(traced_result.traces) == 3
        for entry in traced_result.traces:
            assert entry["spans"][0]["name"] == "trial"
        payload = to_chrome_trace(
            (e["trial"], e["spans"]) for e in traced_result.traces
        )
        assert {e["tid"] for e in payload["traceEvents"]} == {0, 1, 2}

    def test_trial_record_trace_round_trips(self):
        from repro.campaign.journal import TrialRecord

        record = TrialRecord(
            circuit="c17", trial=0, seed=9, status="skipped",
            trace=[{"name": "trial", "start": 0.0, "duration": 1.0}],
        )
        payload = json.loads(json.dumps(record.to_dict()))
        back = TrialRecord.from_dict(payload)
        assert back.trace == record.trace
        # Untraced records serialize without the key at all.
        bare = TrialRecord(circuit="c17", trial=1, seed=10, status="skipped")
        assert "trace" not in bare.to_dict()


# -- satellite: bounded context cache -----------------------------------------


class TestContextCacheBound:
    def test_insert_time_eviction(self):
        reset_sim_caches()
        n = c17()
        for seed in range(MAX_CONTEXTS + 5):
            sim_context(n, PatternSet.random(n, 4, seed=seed))
        assert context_cache_size() <= MAX_CONTEXTS

    def test_three_circuit_campaign_sweep_bounded(self):
        from repro.campaign.driver import Campaign, CampaignConfig
        from repro.campaign.runner import RunnerConfig

        reset_sim_caches()
        for width in (3, 4, 5):
            netlist = ripple_carry_adder(width)
            campaign = Campaign(netlist)
            config = CampaignConfig(
                circuit=netlist.name, n_trials=2, k=1, seed=3,
                methods=("xcover",),
            )
            campaign.run(config, RunnerConfig())
        assert context_cache_size() <= MAX_CONTEXTS
        # The between-batch reset dropped the earlier circuits' contexts:
        # only the final batch's handful remain.
        assert context_cache_size() <= 4


# -- thread safety ------------------------------------------------------------


class TestMetricsThreadSafety:
    """The registry is shared by daemon worker + HTTP threads; racing
    increments must sum exactly and export must never observe a family
    mid-mutation."""

    def test_concurrent_counter_increments_sum_exactly(self):
        import threading

        reg = MetricsRegistry()
        threads_n, per_thread = 8, 2000

        def hammer(idx: int) -> None:
            for _ in range(per_thread):
                reg.counter("repro_race_total").inc()
                reg.counter("repro_race_labeled_total", worker=str(idx % 2)).inc()
                reg.gauge("repro_race_depth").inc()
                reg.gauge("repro_race_depth").dec()
                reg.histogram("repro_race_seconds", buckets=(0.1, 1.0)).observe(
                    0.5
                )

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        total = threads_n * per_thread
        text = reg.to_prometheus_text()
        assert f"repro_race_total {total}" in text
        assert f'repro_race_labeled_total{{worker="0"}} {total // 2}' in text
        assert "repro_race_depth 0" in text
        payload = json.loads(reg.to_json())
        buckets = payload["repro_race_seconds"]["series"][0]["buckets"]
        assert buckets[-1]["count"] == total

    def test_export_races_with_mutation(self):
        import threading

        reg = MetricsRegistry()
        stop = threading.Event()
        errors: list[Exception] = []

        def mutate() -> None:
            i = 0
            while not stop.is_set():
                i += 1
                try:
                    # New families force dict growth during iteration --
                    # the classic unguarded-export crash.
                    reg.counter(f"repro_churn_{i % 50}_total").inc()
                    reg.histogram("repro_churn_seconds").observe(i * 0.01)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def export() -> None:
            while not stop.is_set():
                try:
                    reg.to_prometheus_text()
                    reg.to_json()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        workers = [threading.Thread(target=mutate) for _ in range(3)] + [
            threading.Thread(target=export) for _ in range(2)
        ]
        for t in workers:
            t.start()
        import time as _time

        _time.sleep(0.3)
        stop.set()
        for t in workers:
            t.join()
        assert errors == []
