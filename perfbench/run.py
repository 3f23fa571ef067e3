"""Darwin's interactive loop, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tweets-accept-heavy --seed 7 \
        --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
input once more with the layers timed from outside and prints the per-layer
metrics and the tracing overhead. ``--tiny`` shrinks every workload to
1000 sentences and 5 questions per tenant (the self-check tests use it).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory
for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

# Each workload stresses a different layer; the README says why each exists.
# ``inputs`` is how many corpora (seeds) a run measures. ``probes`` adds
# children that only set up and ask the first question, so that set-up is
# measured several times where a whole session is too long to repeat.
WORKLOADS: Dict[str, dict] = {
    "directions50k-reject-heavy": {"arm": "library", "dataset": "directions",
                                   "num_sentences": 50_000, "budget": 40,
                                   "inputs": 1, "probes": 1},
    "gateway-fleet": {"arm": "gateway", "dataset": "directions",
                      "num_sentences": 20_000, "budget": 150, "tenants": 2,
                      "workers": 2, "inputs": 2},
    "tweets-accept-heavy": {"arm": "library", "dataset": "tweets",
                            "num_sentences": 10_000, "budget": 40,
                            "inputs": 2, "probes": 0},
    "gateway-pool": {"arm": "gateway", "dataset": "directions",
                     "num_sentences": 20_000, "budget": 150, "tenants": 2,
                     "workers": 1, "inputs": 2},
}
TINY = {"num_sentences": 1000, "budget": 5, "inputs": 1, "probes": 0}
# Input j of a run is the corpus with dataset seed
# ``seed + SESSION_SEED_STRIDE * j``. A run measures every input once, then
# repeats them until ``--seconds`` of question loop is measured, so the
# inputs never depend on how fast the program is.
SESSION_SEED_STRIDE = 1000

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "first_question_s": "s",
    "question_wait_tail_ms": "ms",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_recall": "ratio",
}
# Printed with the end-to-end metrics, not part of the JSON line.
# - question_wait_p50_ms: answer waits fall in clusters (reject, reject with
#   a refresh, retrain), and the median lands on one cluster or the next as
#   the accept count moves by one between corpus seeds. On
#   directions50k-reject-heavy it read 7 ms on six seeds and 16 ms on four.
# - failed_share is 0 on every passing run; failed/attempted carry it.
# - questions_to_recall_0.8 and final_f1 are quality outcomes that move by a
#   third or more between corpus seeds.
REPORTED_ONLY: Dict[str, str] = {
    "question_wait_p50_ms": "ms",
    "failed_share": "ratio",
    "questions_to_recall_0.8": "count",
    "final_f1": "ratio",
}
PER_LAYER: Dict[str, str] = {
    "datasets.load_s": "s",
    "index.build_s": "s",
    "index.top_by_overlap_ms": "ms",
    "index.top_by_overlap_calls": "count",
    "index.calls": "count",
    "index.coverage_resident_mb": "MB",
    "classifier.featurizer_fit_s": "s",
    "classifier.retrain_ms": "ms",
    "classifier.retrains": "count",
    "classifier.featurize_ms": "ms",
    "classifier.featurize_calls": "count",
    "classifier.featurize_rows": "count",
    "classifier.fit_ms": "ms",
    "classifier.predict_ms": "ms",
    "classifier.feature_cache_hit_ratio": "ratio",
    "classifier.feature_cache_lookups": "count",
    "classifier.retrains_per_accept": "ratio",
    "classifier.final_f1": "ratio",
    "core.propose_ms": "ms",
    "core.hierarchy_refresh_ms": "ms",
    "core.traversal_ms": "ms",
    "core.apply_ms": "ms",
    "core.initial_hierarchy_s": "s",
    "core.accept_ratio": "ratio",
    "core.accepts": "count",
    "core.questions": "count",
    "core.questions_to_recall_0.8": "count",
    "crowd.flush_ms": "ms",
    "gateway.server_request_ms.propose": "ms",
    "gateway.server_request_ms.answer": "ms",
    "gateway.server_request_ms.checkpoint": "ms",
    "gateway.http_overhead_ms": "ms",
    "gateway.rejected_share": "ratio",
    "serving.dispatch_overhead_ms": "ms",
    "fleet.respawns": "count",
    "fleet.supervisor_rss_mb": "MB",
    "fleet.worker_rss_mb": "MB",
    "engine.checkpoint_ms": "ms",
    "loop.index_share": "ratio",
    "loop.classifier_share": "ratio",
    "loop.core_share": "ratio",
    "loop.unattributed_share": "ratio",
    "trace.overhead_ms": "ms",
}
# The Darwin phases the gateway's per-route server time is compared with.
LOOP_PHASES = ("propose", "hierarchy_refresh", "apply", "flush")


def session_seed(seed: int, index: int) -> int:
    return seed + SESSION_SEED_STRIDE * index


def p50(values: List[float]) -> float:
    return common.percentile(values, 50.0) if values else 0.0


# ----------------------------------------------------------- library arm
def library_sessions(workload: dict, seed: int, seconds: float, trace: bool
                     ) -> Tuple[List[dict], List[dict], Optional[dict]]:
    """Whole sessions, set-up probes, and the traced session (if any)."""
    import library

    def child(index: int, probe: bool = False, traced: bool = False) -> dict:
        return library.run_child({
            "dataset": workload["dataset"],
            "num_sentences": workload["num_sentences"],
            "budget": workload["budget"], "seed": session_seed(seed, index),
            "probe": probe, "trace": traced})

    if trace:
        # One untraced session of the same input to compare against.
        return [child(0)], [], child(0, traced=True)
    sessions: List[dict] = []
    while not sessions or sum(s["loop_s"] for s in sessions) < seconds:
        sessions.extend(child(index) for index in range(workload["inputs"]))
    probes = [child(0, probe=True) for _ in range(workload["probes"])]
    return sessions, probes, None


def library_checks(workload_name: str, workload: dict, seed: int,
                   sessions: List[dict], traced: Optional[dict],
                   source: str) -> List[str]:
    problems: List[str] = []
    for index, session in enumerate(sessions + ([traced] if traced else [])):
        label = f"session {index}"
        if session["failed"]:
            problems.append(f"{label}: a question failed")
        if not session["no_repeat"]:
            problems.append(f"{label}: a rule was asked twice")
        if not session["recall_monotone"]:
            problems.append(f"{label}: recall decreased")
        if session["questions"] != workload["budget"]:
            problems.append(f"{label}: {session['questions']} questions, "
                            f"budget {workload['budget']}")
    for index, session in enumerate(sessions):
        key = (f"{source}:{workload_name}:{workload['num_sentences']}:"
               f"{workload['budget']}:{session['seed']}")
        if not common.check_recorded_digest(key, session["digest"]):
            problems.append(f"session {index}: history differs from an "
                            f"earlier run of the same input and code")
    if traced is not None and traced["digest"] != sessions[0]["digest"]:
        problems.append("the traced session asked other questions")
    return problems


def library_end_to_end(sessions: List[dict], probes: List[dict]
                       ) -> Dict[str, float]:
    waits = [w for s in sessions for w in s["waits_s"]]
    summary = common.wait_summary(waits)
    questions = sum(s["questions"] for s in sessions)
    started = sessions + probes
    return {
        "setup_s": common.median(s["setup_s"] for s in started),
        "first_question_s": common.median(s["first_question_s"] for s in started),
        "question_wait_p50_ms": summary["p50_ms"],
        "question_wait_tail_ms": summary["tail_ms"],
        "answers_per_s": questions / sum(s["loop_s"] for s in sessions),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in started),
        "final_recall": common.median(s["recalls"][-1] for s in sessions),
        "questions_to_recall_0.8": common.median(
            common.questions_to_recall(s["recalls"]) for s in sessions),
        "final_f1": common.median(s["final_f1"] for s in sessions),
        "_tail_percentile": summary["tail_percentile"],
        "_samples": summary["samples"],
    }


def library_layers(untraced: dict, traced: dict) -> Dict[str, float]:
    calls = traced["calls"]
    questions = traced["questions"]
    accepts = traced["accepted"]

    def p50_ms(name: str) -> float:
        return calls[name]["p50_ms"] if name in calls else 0.0

    def count(name: str) -> int:
        return calls[name]["count"] if name in calls else 0

    layers = {
        "datasets.load_s": traced["load_s"],
        "index.build_s": traced["index.build_s"],
        "index.top_by_overlap_ms": p50_ms("index.top_by_overlap"),
        "index.top_by_overlap_calls": count("index.top_by_overlap"),
        "index.calls": sum(v["count"] for k, v in calls.items()
                           if k.startswith("index.")),
        "index.coverage_resident_mb": traced["coverage_resident_mb"],
        "classifier.featurizer_fit_s": traced["classifier.featurizer_fit_s"],
        "classifier.retrain_ms": p50_ms("classifier.retrain"),
        "classifier.retrains": traced["retrains"],
        "classifier.featurize_ms": p50_ms("classifier.featurize"),
        "classifier.featurize_calls": count("classifier.featurize"),
        "classifier.featurize_rows": traced["rows"].get("classifier.featurize", 0),
        "classifier.fit_ms": p50_ms("classifier.fit"),
        "classifier.predict_ms": p50_ms("classifier.predict"),
        "classifier.feature_cache_hit_ratio": (
            traced["cache_hits"] / traced["cache_lookups"]
            if traced["cache_lookups"] else 0.0),
        "classifier.feature_cache_lookups": traced["cache_lookups"],
        "classifier.retrains_per_accept": (
            traced["retrains"] / accepts if accepts else 0.0),
        "classifier.final_f1": traced["final_f1"],
        "core.propose_ms": p50_ms("core.propose"),
        "core.hierarchy_refresh_ms": p50(traced["hierarchy_refresh_ms"]),
        "core.traversal_ms": p50(traced["traversal_ms"]),
        "core.apply_ms": p50_ms("core.apply"),
        "core.initial_hierarchy_s": sum(traced["initial_hierarchy_ms"]) / 1000.0,
        "core.accept_ratio": accepts / questions if questions else 0.0,
        "core.accepts": accepts,
        "core.questions": questions,
        "core.questions_to_recall_0.8": common.questions_to_recall(traced["recalls"]),
        "trace.overhead_ms": 1000.0 * (traced["loop_s"] / max(questions, 1)
                                       - untraced["loop_s"] / max(untraced["questions"], 1)),
    }
    loop_ms = 1000.0 * traced["loop_s"]
    loop_self = by_layer(traced["self_ms"])
    for layer in ("index", "classifier", "core"):
        layers[f"loop.{layer}_share"] = loop_self.get(layer, 0.0) / loop_ms
    layers["loop.unattributed_share"] = 1.0 - sum(loop_self.values()) / loop_ms
    return layers


def by_layer(self_ms: Dict[str, float]) -> Dict[str, float]:
    """Sum per-function self times into their layers (the name's prefix)."""
    totals: Dict[str, float] = {}
    for name, value in self_ms.items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + value
    return totals


# ----------------------------------------------------------- gateway arm
def gateway_gold(workload: dict, seed: int) -> Tuple[set, float]:
    from repro.datasets import load_dataset

    start = time.perf_counter()
    corpus = load_dataset(workload["dataset"],
                          num_sentences=workload["num_sentences"],
                          seed=seed, parse_trees=False)
    return corpus.positive_ids(), time.perf_counter() - start


def gateway_sessions(workload: dict, seed: int, seconds: float, trace: bool
                     ) -> Tuple[List[dict], Optional[dict], float]:
    """Server sessions, the traced session (if any) and the gold-label
    load time of the first input."""
    import gateway

    golds: Dict[int, Tuple[set, float]] = {}

    def session(index: int, traced: bool = False) -> dict:
        dataset_seed = session_seed(seed, index)
        if dataset_seed not in golds:
            golds[dataset_seed] = gateway_gold(workload, dataset_seed)
        spec = dict(workload, seed=dataset_seed)
        return gateway.run_session(spec, golds[dataset_seed][0], traced,
                                   "traced" if traced else "run")

    if trace:
        # One untraced session of the same input to compare against.
        sessions = [session(0)]
        return sessions, session(0, traced=True), golds[session_seed(seed, 0)][1]
    sessions = []
    while not sessions or sum(s["loop_s"] for s in sessions) < seconds:
        sessions.extend(session(index) for index in range(workload["inputs"]))
    return sessions, None, golds[session_seed(seed, 0)][1]


def gateway_checks(workload: dict, sessions: List[dict]) -> List[str]:
    problems: List[str] = []
    for index, session in enumerate(sessions):
        for annotator in session["annotators"]:
            label = f"session {index} {annotator.tenant}"
            problems.extend(f"{label}: {error}" for error in annotator.errors)
            if not annotator.order_ok:
                problems.append(f"{label}: question_number did not increase")
            if annotator.committed != annotator.server_committed:
                problems.append(f"{label}: client committed {annotator.committed}"
                                f", server {annotator.server_committed}")
            if annotator.committed != workload["budget"]:
                problems.append(f"{label}: {annotator.committed} committed, "
                                f"budget {workload['budget']}")
            if not common.recall_never_decreases(annotator.recalls):
                problems.append(f"{label}: recall decreased")
        expected = sum(len(a.checkpoints) for a in session["annotators"])
        expected_per_tenant = workload["budget"] // 50
        if session["checkpoints_readable"] != expected or any(
                len(a.checkpoints) != expected_per_tenant
                for a in session["annotators"]):
            problems.append(f"session {index}: unreadable or missing checkpoints")
        if session["exit_code"] != 0:
            problems.append(f"session {index}: serve-http exited "
                            f"{session['exit_code']} after SIGTERM")
    return problems


def gateway_end_to_end(sessions: List[dict]) -> Dict[str, float]:
    waits = [w for s in sessions for a in s["annotators"] for w in a.waits]
    summary = common.wait_summary(waits)
    committed = sum(a.committed for s in sessions for a in s["annotators"])
    return {
        "setup_s": common.median(s["setup_s"] for s in sessions),
        "first_question_s": common.median(
            max(a.first_question_s for a in s["annotators"]) for s in sessions),
        "question_wait_p50_ms": summary["p50_ms"],
        "question_wait_tail_ms": summary["tail_ms"],
        "answers_per_s": committed / sum(s["loop_s"] for s in sessions),
        "peak_rss_mb": max(s["server_rss_mb"] + sum(s["worker_rss_mb"])
                           for s in sessions),
        "final_recall": common.median(
            min(a.recalls[-1] for a in s["annotators"]) for s in sessions),
        "questions_to_recall_0.8": common.median(
            max(common.questions_to_recall(a.recalls) for a in s["annotators"])
            for s in sessions),
        "_tail_percentile": summary["tail_percentile"],
        "_samples": summary["samples"],
    }


def gateway_layers(workload: dict, untraced: dict, traced: dict,
                   load_s: float) -> Dict[str, float]:
    import gateway as gw

    metrics = traced["metrics"]
    annotators = traced["annotators"]
    committed = sum(a.committed for a in annotators)
    accepts = sum(a.accepted for a in annotators)
    client_ms = {op: [ms for a in annotators for ms in a.request_ms[op]]
                 for op in ("propose", "answer", "checkpoint")}
    loop_requests = len(client_ms["propose"]) + len(client_ms["answer"])
    server_s = sum(gw.histogram_totals(metrics, "gateway_request_seconds",
                                       route=f"tenants/{op}")[0]
                   for op in ("propose", "answer"))
    phase_s = sum(gw.histogram_totals(metrics, "darwin_phase_seconds",
                                      phase=phase)[0] for phase in LOOP_PHASES)
    retrains = gw.sample_total(metrics, "darwin_retrains_total")
    hits = gw.sample_total(metrics, "feature_cache_hits")
    lookups = hits + gw.sample_total(metrics, "feature_cache_misses")
    requests = gw.sample_total(metrics, "gateway_requests_total")
    fleet = workload["workers"] > 1
    return {
        "datasets.load_s": load_s,
        "index.coverage_resident_mb":
            gw.sample_total(metrics, "coverage_resident_bytes") / 2**20,
        "classifier.retrain_ms": gw.histogram_mean_ms(
            metrics, "darwin_phase_seconds", phase="retrain"),
        "classifier.retrains": retrains,
        "classifier.feature_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "classifier.feature_cache_lookups": lookups,
        "classifier.retrains_per_accept": retrains / accepts if accepts else 0.0,
        "core.hierarchy_refresh_ms": gw.histogram_mean_ms(
            metrics, "darwin_phase_seconds", phase="hierarchy_refresh"),
        "core.traversal_ms": gw.histogram_mean_ms(
            metrics, "darwin_phase_seconds", phase="propose"),
        "core.apply_ms": gw.histogram_mean_ms(
            metrics, "darwin_phase_seconds", phase="apply"),
        "core.initial_hierarchy_s": gw.histogram_mean_ms(
            metrics, "darwin_phase_seconds", phase="hierarchy_generation") / 1000.0,
        "core.accept_ratio": accepts / committed if committed else 0.0,
        "core.accepts": accepts,
        "core.questions": committed,
        "core.questions_to_recall_0.8": max(
            common.questions_to_recall(a.recalls) for a in annotators),
        "crowd.flush_ms": gw.histogram_mean_ms(metrics, "crowd_flush_seconds"),
        "gateway.server_request_ms.propose": gw.histogram_mean_ms(
            metrics, "gateway_request_seconds", route="tenants/propose"),
        "gateway.server_request_ms.answer": gw.histogram_mean_ms(
            metrics, "gateway_request_seconds", route="tenants/answer"),
        "gateway.server_request_ms.checkpoint": gw.histogram_mean_ms(
            metrics, "gateway_request_seconds", route="tenants/checkpoint"),
        "gateway.http_overhead_ms": (
            sum(client_ms["propose"]) + sum(client_ms["answer"])
            - 1000.0 * server_s) / loop_requests,
        "gateway.rejected_share": (
            gw.sample_total(metrics, "gateway_rejected_total") / requests
            if requests else 0.0),
        "serving.dispatch_overhead_ms": 1000.0 * (server_s - phase_s) / loop_requests,
        "fleet.respawns": gw.sample_total(metrics, "fleet_respawns_total"),
        "fleet.supervisor_rss_mb": traced["server_rss_mb"] if fleet else 0.0,
        "fleet.worker_rss_mb": sum(traced["worker_rss_mb"]) if fleet else 0.0,
        "engine.checkpoint_ms": gw.histogram_mean_ms(
            metrics, "gateway_request_seconds", route="tenants/checkpoint"),
        "trace.overhead_ms": 1000.0 * (
            traced["loop_s"] / committed
            - untraced["loop_s"] / sum(a.committed for a in untraced["annotators"])),
    }


# ------------------------------------------------------------------ main
def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> dict:
    workload = dict(WORKLOADS[workload_name])
    if tiny:
        workload.update(TINY)
    env = common.environment()
    problems: List[str] = []
    layers: Dict[str, float] = {}
    tables: List[Tuple[str, Dict[str, float], float]] = []
    if workload["arm"] == "library":
        sessions, probes, traced = library_sessions(workload, seed, seconds,
                                                    trace)
        problems += library_checks(workload_name, workload, seed, sessions,
                                   traced, common.source_digest())
        e2e = library_end_to_end(sessions, probes)
        # A probe asks one question.
        attempted = len(probes) + sum(s["questions"] + s["failed"]
                                      for s in sessions)
        failed_ops = sum(s["failed"] for s in sessions)
        if traced is not None:
            layers = library_layers(sessions[0], traced)
            tables = [
                ("first question by layer",
                 by_layer(traced["first_question_self_ms"]),
                 1000.0 * traced["first_question_s"]),
                ("question loop by layer", by_layer(traced["self_ms"]),
                 1000.0 * traced["loop_s"]),
            ]
    else:
        sessions, traced, load_s = gateway_sessions(workload, seed, seconds, trace)
        problems += gateway_checks(workload, sessions + ([traced] if traced else []))
        e2e = gateway_end_to_end(sessions)
        annotators = [a for s in sessions for a in s["annotators"]]
        attempted = sum(a.attempted for a in annotators)
        failed_ops = sum(a.failed for a in annotators)
        if traced is not None:
            layers = gateway_layers(workload, sessions[0], traced, load_s)
    failed = failed_ops + len(problems)
    e2e["failed_share"] = failed / max(attempted, 1)
    return {"workload": workload_name, "seed": seed, "tiny": tiny,
            "trace": trace, "sessions": len(sessions), "environment": env,
            "end_to_end": e2e, "layers": layers, "tables": tables,
            "problems": problems,
            "attempted": attempted, "failed": failed}


def report(result: dict) -> dict:
    """Print the human-readable report; return the JSON line's object."""
    e2e = result["end_to_end"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"sessions {result['sessions']}{' (tiny)' if result['tiny'] else ''}")
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    print("end-to-end:")
    for name, unit in {**END_TO_END, **REPORTED_ONLY}.items():
        if name not in e2e:
            print(f"  {name:<40} {'n/a':>14}")
            continue
        note = ""
        if name == "question_wait_tail_ms":
            note = f"p{e2e['_tail_percentile']:g} of {e2e['_samples']} samples"
        elif name == "question_wait_p50_ms":
            note = f"{e2e['_samples']} samples"
        print(common.format_metric(name, e2e[name], unit, note))
    metrics = {}
    if result["trace"]:
        print("per-layer:")
        applicable = result["layers"]
        for name, unit in PER_LAYER.items():
            if name in applicable:
                print(common.format_metric(name, applicable[name], unit))
            else:
                print(f"  {name:<40} {'n/a':>14}")
            metrics[name] = {"value": float(applicable.get(name, 0.0)),
                             "unit": unit}
        for title, self_ms, total_ms in result["tables"]:
            common.print_layer_table(title, self_ms, total_ms)
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    return {"correct": not result["problems"] and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="minimum question-loop time to measure; sessions "
                             "repeat until it is reached (one session with "
                             "--trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.tiny)
    line = report(result)
    out_dir = common.WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    sys.stdout.flush()
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
