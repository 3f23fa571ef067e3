"""Tests for repro.obs: metric primitives, the span tracer, the exporters,
and the instrumentation wired through the Darwin/serving/engine tiers.

The load-bearing properties:

* **exactness under concurrency** — counters and histograms guarded by their
  family lock lose no increments under thread contention;
* **exposition round-trip** — ``render_prometheus`` output parses back (via
  the repo's own minimal parser) into exactly the series the registry holds;
* **task-local span nesting** — concurrently served tenants each parent
  their own ``darwin.*`` spans, no cross-talk through the shared tracer;
* **free when off** — with the default ``NullRegistry`` an engine run on
  either arena placement records nothing and allocates no series.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig, IndexConfig
from repro.engine.engine import DarwinEngine
from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    SpanTracer,
    parse_prometheus_text,
    render_snapshot,
    summarize_snapshot,
)
from repro.obs.metrics import NULL_INSTRUMENT
from repro.serving import TenantPool, serve

SEED_RULE = "best way to get to"


def fast_engine_config(**overrides) -> DarwinConfig:
    options = {
        "budget": 4,
        "num_candidates": 250,
        "min_coverage": 2,
        "classifier": ClassifierConfig(epochs=10, embedding_dim=30),
    }
    options.update(overrides)
    return DarwinConfig(**options)


@pytest.fixture()
def live_obs():
    """Enable a fresh registry + tracer; always restore the null defaults."""
    registry = obs.enable()
    yield registry, obs.get_tracer()
    obs.disable()


class TestMetricsRegistry:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("questions_total", "questions asked")
        counter.inc()
        counter.inc(2.0)
        assert counter.value == 3.0
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(5)
        gauge.dec()
        assert gauge.value == 4.0

    def test_labeled_series_are_distinct_and_idempotent(self):
        registry = MetricsRegistry()
        family = registry.counter("answers", "by outcome", labels=("answer",))
        family.labels(answer="yes").inc()
        family.labels(answer="yes").inc()
        family.labels(answer="no").inc()
        assert family.labels(answer="yes").value == 2.0
        assert family.labels(answer="no").value == 1.0
        # Re-declaring the same family returns the same series.
        again = registry.counter("answers", "by outcome", labels=("answer",))
        assert again.labels(answer="yes").value == 2.0

    def test_schema_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("m", labels=("a",))
        with pytest.raises(ConfigurationError, match="labels"):
            registry.counter("m", labels=("b",))
        with pytest.raises(ConfigurationError, match="labels"):
            registry.counter("m", labels=("a",)).labels(wrong="x")
        with pytest.raises(ConfigurationError, match="resolve a child"):
            registry.counter("m", labels=("a",)).inc()

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="only go up"):
            registry.counter("c").inc(-1.0)

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", labels=("worker",))
        histogram = registry.histogram("latency")
        threads, per_thread = 8, 2000

        def hammer(worker: int) -> None:
            child = counter.labels(worker=worker % 2)
            for i in range(per_thread):
                child.inc()
                histogram.observe(1e-5 * (i % 7 + 1))

        pool = [
            threading.Thread(target=hammer, args=(n,)) for n in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = sum(
            counter.labels(worker=w).value for w in (0, 1)
        )
        assert total == threads * per_thread
        assert histogram._default.count == threads * per_thread


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.001, 0.01, 0.1))
        histogram.observe(0.001)   # exactly a bound -> its own bucket (le)
        histogram.observe(0.0011)  # just past -> next bucket
        histogram.observe(1.0)     # beyond the last bound -> +Inf
        entry = registry.snapshot()["metrics"]["h"]["series"][0]
        buckets = entry["buckets"]
        assert buckets[0] == [0.001, 1]
        assert buckets[1] == [0.01, 2]
        assert buckets[2] == [0.1, 2]
        assert buckets[3] == ["+Inf", 3]
        assert entry["count"] == 3

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_TIME_BUCKETS[-1] > 10.0
        assert all(
            later > earlier
            for earlier, later in zip(DEFAULT_TIME_BUCKETS, DEFAULT_TIME_BUCKETS[1:])
        )

    def test_quantiles_bracket_observations(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for _ in range(100):
            histogram.observe(0.002)
        # Bucket interpolation: the estimate lands within the half-octave
        # bucket that holds 0.002, never outside it.
        p50 = histogram._default.quantile(0.5)
        assert 0.001 <= p50 <= 0.004
        assert histogram._default.quantile(0.95) >= p50

    def test_empty_histogram_quantile_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram("h")._default.quantile(0.5) == 0.0


class TestPrometheusExposition:
    def test_round_trip_through_parser(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", labels=("tenant",)).labels(
            tenant="t-0"
        ).inc(3)
        registry.gauge("depth", "queue depth").set(2.5)
        histogram = registry.histogram("lat", "latency", buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.05)
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["req_total"]["type"] == "counter"
        assert parsed["req_total"]["samples"][
            ("req_total", (("tenant", "t-0"),))
        ] == 3.0
        assert parsed["depth"]["samples"][("depth", ())] == 2.5
        samples = parsed["lat"]["samples"]
        assert samples[("lat_count", ())] == 2.0
        assert samples[("lat_sum", ())] == pytest.approx(0.055)
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 2.0
        assert samples[("lat_bucket", (("le", "0.01"),))] == 1.0

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        text = registry.render_prometheus()
        parsed = parse_prometheus_text(text)
        assert parsed["c"]["samples"][
            ("c", (("path", 'a"b\\c\nd'),))
        ] == 1.0

    def test_disabled_render_parses_to_nothing(self):
        assert parse_prometheus_text(NullRegistry().render_prometheus()) == {}

    def test_render_snapshot_matches_live_render(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert render_snapshot(registry.snapshot()) == registry.render_prometheus()

    def test_malformed_lines_raise(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("no_type_declared 1.0\n")


class TestSpanTracer:
    def test_nested_spans_record_structure(self):
        tracer = SpanTracer()
        with tracer.trace("outer", tenant="t-0") as outer:
            outer.count("questions", 2)
            with tracer.trace("inner"):
                pass
        roots = tracer.spans()
        assert len(roots) == 1
        (root,) = roots
        assert root["name"] == "outer"
        assert root["attrs"] == {"tenant": "t-0"}
        assert root["counters"] == {"questions": 2}
        assert root["duration_ms"] >= 0.0
        assert [child["name"] for child in root["children"]] == ["inner"]

    def test_ring_buffer_drops_oldest(self):
        tracer = SpanTracer(max_spans=3)
        for index in range(7):
            with tracer.trace(f"span-{index}"):
                pass
        assert [span["name"] for span in tracer.spans()] == [
            "span-4", "span-5", "span-6",
        ]

    def test_exception_marks_span_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("failing"):
                raise RuntimeError("boom")
        (root,) = tracer.spans()
        assert root["attrs"]["error"] == "RuntimeError"

    def test_dump_json_round_trips(self):
        tracer = SpanTracer()
        with tracer.trace("s"):
            pass
        assert json.loads(tracer.dump_json(indent=2))[0]["name"] == "s"

    def test_asyncio_tasks_nest_independently(self):
        tracer = SpanTracer()

        async def one_task(name: str) -> None:
            with tracer.trace(name):
                await asyncio.sleep(0)
                with tracer.trace(f"{name}.child"):
                    await asyncio.sleep(0)

        async def main() -> None:
            await asyncio.gather(one_task("a"), one_task("b"))

        asyncio.run(main())
        roots = {span["name"]: span for span in tracer.spans()}
        assert set(roots) == {"a", "b"}
        for name, root in roots.items():
            # Each task's child lands under its own root — the interleaved
            # awaits never attach a child to the other task's span.
            assert [c["name"] for c in root["children"]] == [f"{name}.child"]


class TestServingSpans:
    def test_serve_tenants_spans_stay_per_tenant(self, directions_corpus, live_obs):
        _, tracer = live_obs
        config = fast_engine_config(budget=3)
        crowd = CrowdConfig(
            num_annotators=2, redundancy=1, batch_size=2, budget=3,
            annotator_latency=0.0, label_noise=0.0, seed=3,
        )
        with TenantPool(
            directions_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            report = serve(pool, num_tenants=2, crowd_config=crowd)
        assert report.questions_committed > 0
        roots = [
            span for span in tracer.spans() if span["name"] == "serve.tenant"
        ]
        assert {span["attrs"]["tenant"] for span in roots} == set(
            report.results
        )
        for root in roots:
            tenant = root["attrs"]["tenant"]
            darwin_children = [
                child for child in root["children"]
                if child["name"].startswith("darwin.")
            ]
            assert darwin_children, "serve.tenant recorded no darwin.* spans"
            for child in darwin_children:
                assert child["attrs"].get("tenant", tenant) == tenant


class TestNullPath:
    def test_null_instrument_is_inert(self):
        assert NULL_INSTRUMENT.labels(anything="x") is NULL_INSTRUMENT
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.dec()
        NULL_INSTRUMENT.set(3)
        NULL_INSTRUMENT.observe(0.5)
        assert NULL_INSTRUMENT.value == 0.0

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.trace("ignored", tenant="t") as span:
            span.count("n", 1)
            span.annotate(k="v")
        assert tracer.spans() == []

    @pytest.mark.parametrize("backend", ["memory", "arena"])
    def test_disabled_engine_records_nothing(
        self, backend, tmp_path, directions_corpus
    ):
        assert isinstance(obs.get_registry(), NullRegistry)
        index = IndexConfig()
        if backend == "arena":
            index = IndexConfig(arena_path=str(tmp_path / "null.arena"))
        engine = DarwinEngine(
            directions_corpus,
            config=fast_engine_config(index=index),
            seeds={"rule_texts": [SEED_RULE]},
        )
        result = engine.run()
        assert result.queries_used > 0
        assert obs.get_registry().snapshot() == {
            "enabled": False, "metrics": {},
        }
        assert obs.get_tracer().spans() == []


class TestEngineTelemetry:
    def test_run_records_phases_questions_and_caches(
        self, directions_corpus, live_obs, tmp_path
    ):
        registry, _ = live_obs
        engine = DarwinEngine(
            directions_corpus,
            config=fast_engine_config(),
            seeds={"rule_texts": [SEED_RULE]},
        )
        out = tmp_path / "metrics.json"
        result = engine.run(metrics_out=str(out))
        snapshot = registry.snapshot()
        metrics = snapshot["metrics"]
        phases = {
            entry["labels"]["phase"]
            for entry in metrics["darwin_phase_seconds"]["series"]
        }
        assert {"propose", "oracle_answer", "retrain", "index_build"} <= phases
        questions = sum(
            entry["value"]
            for entry in metrics["darwin_questions_total"]["series"]
        )
        assert questions == result.queries_used
        assert "feature_cache_hits" in metrics
        assert "coverage_interned" in metrics
        # Tenant-labeled gauges: a solo engine is the one-tenant case.
        gauge = metrics["tenant_questions"]["series"][0]
        assert gauge["labels"]["tenant"] == directions_corpus.name
        assert gauge["value"] == result.queries_used
        # --metrics-out payload: readable, validated, summarizable.
        payload = obs.read_snapshot(out)
        assert payload["metrics"]["enabled"] is True
        summary = summarize_snapshot(payload["metrics"])
        assert summary["questions"]["total"] == result.queries_used
        assert "phases" in summary

    def test_accepted_answer_hits_apply_phase_and_yes_counter(
        self, directions_corpus, live_obs
    ):
        registry, _ = live_obs
        from repro.core.darwin import Darwin

        darwin = Darwin(directions_corpus, config=fast_engine_config())
        darwin.start(seed_rule_texts=[SEED_RULE])
        rule = darwin.propose_next()
        assert rule is not None
        darwin.apply_answer(rule, True)
        metrics = registry.snapshot()["metrics"]
        phases = {
            entry["labels"]["phase"]
            for entry in metrics["darwin_phase_seconds"]["series"]
        }
        assert "apply" in phases
        yes = [
            entry for entry in metrics["darwin_questions_total"]["series"]
            if entry["labels"] == {"answer": "yes"}
        ]
        assert yes[0]["value"] == 1.0

    def test_checkpoint_embeds_and_describes_metrics(
        self, directions_corpus, live_obs, tmp_path
    ):
        engine = DarwinEngine(
            directions_corpus,
            config=fast_engine_config(),
            seeds={"rule_texts": [SEED_RULE]},
        )
        engine.run()
        path = str(tmp_path / "ck.npz")
        engine.save(path)
        description = DarwinEngine.describe_checkpoint(path)
        digest = description["metrics"]
        assert digest["questions"]["total"] == engine.questions_asked
        assert "phases" in digest

    def test_crowd_counters_track_commits(self, directions_corpus, live_obs):
        registry, _ = live_obs
        config = fast_engine_config(budget=3)
        crowd = CrowdConfig(
            num_annotators=2, redundancy=1, batch_size=2, budget=3,
            annotator_latency=0.0, label_noise=0.0, seed=3,
        )
        with TenantPool(
            directions_corpus, config, seeds={"rule_texts": [SEED_RULE]}
        ) as pool:
            report = serve(pool, num_tenants=2, crowd_config=crowd)
            snapshot = registry.snapshot()
        metrics = snapshot["metrics"]
        commits = sum(
            entry["value"]
            for entry in metrics["crowd_commits_total"]["series"]
        )
        assert commits == report.questions_committed
        votes = sum(
            entry["value"] for entry in metrics["crowd_votes_total"]["series"]
        )
        assert votes == sum(
            r.crowd.votes_collected for r in report.results.values()
        )
        # Pool-level gauges from the collector (registered at pool build).
        assert "pool_shared_resident_bytes" in metrics
        assert "pool_feature_cache_hits" in metrics
