"""Library arm: one Darwin session through ``DarwinEngine`` per fresh child
process, so set-up time and peak memory carry nothing from earlier sessions.

The parent (``run_library``) starts the children and reads each child's peak
RSS from the kernel's rusage for that child. A child runs as
``python3 perfbench/library.py --child '<json spec>'`` and prints its
result as one JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


# ------------------------------------------------------------------ child
# The CorpusIndex queries the question loop makes at the default config,
# plus top_by_overlap, which only seed-sentence starts reach. Per-key
# accessors (node, count) are left out: their wrapper would cost more than
# they do.
INDEX_QUERIES = ("top_by_overlap", "top_by_coverage", "keys_covering",
                 "children_of", "overlap_count", "heuristic",
                 "coverage_of_expression")
class LayerClock:
    """Times calls into the layers' public functions from outside.

    Each wrapped function records its wall time per call and its self time
    (wall time minus the wrapped calls nested inside it), keyed by name.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, List[float]] = defaultdict(list)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.rows: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []

    def wrap(self, owner: type, attr: str, name: str, rows: bool = False) -> None:
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        clock = self

        def timed(*args, **kwargs):
            clock._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = clock._stack.pop()
                clock.calls[name].append(elapsed)
                clock.self_s[name] += elapsed - nested
                if clock._stack:
                    clock._stack[-1] += elapsed
            if rows:
                clock.rows[name] += int(getattr(result, "shape", (0,))[0])
            return result

        timed.__wrapped__ = function
        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.rows.clear()


def install_layer_clock() -> LayerClock:
    """Wrap the public entry points of index, classifier and core."""
    from repro.classifier.base import TextClassifier
    from repro.classifier.features import SentenceFeaturizer
    from repro.classifier.trainer import ClassifierTrainer
    from repro.core.darwin import Darwin
    from repro.index.trie_index import CorpusIndex

    clock = LayerClock()
    clock.wrap(CorpusIndex, "build", "index.build")
    for method in INDEX_QUERIES:
        clock.wrap(CorpusIndex, method, f"index.{method}")
    clock.wrap(SentenceFeaturizer, "fit", "classifier.featurizer_fit")
    clock.wrap(SentenceFeaturizer, "vectors", "classifier.featurize", rows=True)
    clock.wrap(ClassifierTrainer, "retrain", "classifier.retrain")
    pending = list(TextClassifier.__subclasses__())
    while pending:
        model = pending.pop()
        pending.extend(model.__subclasses__())
        if "fit" in model.__dict__:
            clock.wrap(model, "fit", "classifier.fit")
        if "predict_proba" in model.__dict__:
            clock.wrap(model, "predict_proba", "classifier.predict")
    clock.wrap(Darwin, "propose_next", "core.propose")
    clock.wrap(Darwin, "apply_answer", "core.apply")
    return clock


def _span_ms(spans: List[dict], name: str) -> List[float]:
    found: List[float] = []
    stack = list(spans)
    while stack:
        span = stack.pop()
        if span["name"] == name:
            found.append(span["duration_ms"])
        stack.extend(span.get("children", ()))
    return found


def child_session(spec: dict) -> dict:
    """Set up one engine and run one session on it; a probe stops at the
    first question."""
    clock = None
    tracer = None
    if spec["trace"]:
        from repro import obs
        from repro.obs.tracing import SpanTracer

        clock = install_layer_clock()
        tracer = SpanTracer(max_spans=100_000)
        obs.enable(tracer=tracer)

    from repro import DarwinConfig, DarwinEngine
    from repro.datasets import dataset_spec, load_dataset

    start = time.perf_counter()
    corpus = load_dataset(spec["dataset"], num_sentences=spec["num_sentences"],
                          seed=spec["seed"])
    load_s = time.perf_counter() - start
    seed_rule = dataset_spec(spec["dataset"]).build_bank().default_seed_rules[0]
    engine = DarwinEngine(corpus, config=DarwinConfig(budget=spec["budget"]),
                          seeds={"rule_texts": [seed_rule]})
    setup_s = time.perf_counter() - start
    result: dict = {"seed": spec["seed"], "setup_s": setup_s, "load_s": load_s}
    if clock is not None:
        result["index.build_s"] = sum(clock.calls["index.build"])
        result["classifier.featurizer_fit_s"] = sum(
            clock.calls["classifier.featurizer_fit"])
        clock.reset()

    darwin = engine.darwin
    oracle = engine.oracle
    start = time.perf_counter()
    engine.start()
    rule = darwin.propose_next()
    result["first_question_s"] = time.perf_counter() - start
    if spec["probe"]:
        return result
    before_loop: Dict[str, float] = {}
    if clock is not None:
        before_loop = dict(clock.self_s)
    retrains_before = darwin.trainer.retrain_count
    cache_before = darwin.featurizer.cache.stats()

    waits: List[float] = []
    accepted = 0
    failed = 0
    loop_start = time.perf_counter()
    while rule is not None and len(darwin.history) < spec["budget"]:
        samples = darwin.sample_for_query(rule)
        answer = oracle.ask(rule, samples)
        accepted += int(answer.is_useful)
        cycle = time.perf_counter()
        try:
            darwin.record_answer(rule, answer.is_useful)
            rule = darwin.propose_next()
        except Exception as exc:  # a failed question counts; the run ends
            print(f"question {len(darwin.history)} failed: {exc!r}",
                  file=sys.stderr)
            failed += 1
            break
        waits.append(time.perf_counter() - cycle)
    loop_s = time.perf_counter() - loop_start

    history = darwin.history
    rules = [record.rule for record in history]
    recalls = [record.recall for record in history]
    result.update({
        "waits_s": waits,
        "loop_s": loop_s,
        "questions": len(history),
        "accepted": accepted,
        "failed": failed,
        "recalls": recalls,
        "final_f1": history[-1].classifier_f1 if history else 0.0,
        "digest": common.history_digest(
            (r.rule, r.grammar, bool(r.answer)) for r in history),
        "no_repeat": len(set(rules)) == len(rules),
        "recall_monotone": common.recall_never_decreases(recalls),
        "retrains": darwin.trainer.retrain_count - retrains_before,
    })
    if clock is not None:
        cache = darwin.featurizer.cache.stats()
        hits = cache["hits"] - cache_before["hits"]
        lookups = hits + cache["misses"] - cache_before["misses"]
        spans = tracer.spans()
        result.update({
            "calls": {name: {"count": len(values),
                             "p50_ms": 1000.0 * common.percentile(values, 50.0)}
                      for name, values in clock.calls.items()},
            "first_question_self_ms": {
                name: 1000.0 * v for name, v in before_loop.items()},
            "self_ms": {name: 1000.0 * (v - before_loop.get(name, 0.0))
                        for name, v in clock.self_s.items()},
            "rows": dict(clock.rows),
            "cache_hits": hits,
            "cache_lookups": lookups,
            "coverage_resident_mb":
                darwin.index.store.stats()["resident_coverage_bytes"] / 2**20,
            "hierarchy_refresh_ms": _span_ms(spans, "darwin.hierarchy_refresh"),
            "traversal_ms": _span_ms(spans, "darwin.propose"),
            "initial_hierarchy_ms": _span_ms(spans, "darwin.hierarchy_generation"),
        })
    return result


# ----------------------------------------------------------------- parent
def run_child(spec: dict, timeout_s: float = 170.0) -> dict:
    """Run one child; adds its peak RSS, taken from the kernel's rusage
    for that child when it is reaped."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               json.dumps(spec)]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            env=common.child_env(), cwd=str(common.ROOT))
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"library session exited with {proc.returncode}")
    result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


if __name__ == "__main__" and len(sys.argv) == 3 and sys.argv[1] == "--child":
    sys.path.insert(0, str(common.SRC))
    outcome = child_session(json.loads(sys.argv[2]))
    sys.stdout.write(json.dumps(outcome) + "\n")
