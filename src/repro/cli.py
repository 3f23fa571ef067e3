"""Command-line interface for the Darwin reproduction.

Provides a small set of subcommands so the system can be exercised without
writing Python:

* ``python -m repro datasets`` — list the available corpora (Table 1 view),
* ``python -m repro run`` — run Darwin on one dataset with a simulated oracle
  and print the discovered rules plus the coverage curve,
* ``python -m repro compare`` — run Darwin against the Snuba baseline with the
  same labeled seed subset (the Figure 7 comparison at one seed size),
* ``python -m repro crowd`` — drive K concurrent simulated annotators with
  redundant dispatch, majority voting and batched retrains (Section 4.3),
* ``python -m repro serve`` — multi-tenant serving: N independent tenant
  engines over one shared read-only coverage arena + corpus index, each with
  its own crowd of annotators, multiplexed on one asyncio loop,
* ``python -m repro serve-http`` — the HTTP/JSON gateway over the same
  tenant pool: per-tenant propose/answer/checkpoint endpoints with bounded
  admission queues (429 backpressure), bearer-token auth, ``/metrics``
  Prometheus exposition, and graceful SIGTERM drain,
* ``python -m repro resume`` — continue a checkpointed run
  (``run --checkpoint ... --checkpoint-every N`` writes the checkpoints),
* ``python -m repro export-state`` — inspect a checkpoint's manifest,
* ``python -m repro stats`` — inspect the telemetry of a ``--metrics-out``
  snapshot or a checkpoint (summary, raw JSON, or Prometheus exposition),
* ``python -m repro lint`` — run the :mod:`repro.analysis` invariant
  checkers (RPR001–RPR005) over the source tree; exits 1 on findings.

``run``, ``resume`` and ``serve`` accept ``--metrics-out PATH``: this enables
the :mod:`repro.obs` telemetry layer for the process (metrics stay off
otherwise — the default registry is a no-op) and writes a metrics+spans
snapshot to ``PATH`` at exit and on every checkpoint save.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import __version__, obs
from .analysis.baseline import DEFAULT_BASELINE_PATH as LINT_BASELINE_PATH
from .baselines.snuba import SnubaBaseline
from .config import ClassifierConfig, CrowdConfig, DarwinConfig, IndexConfig
from .core.darwin import Darwin, DarwinResult
from .crowd import run_crowd
from .datasets.registry import DATASET_NAMES, load_bank, load_dataset, table1_rows
from .engine.engine import DarwinEngine, export_state_json
from .evaluation.reporting import format_curve_table, format_table
from .experiments.common import prepare_dataset
from .experiments.seed_size import sample_labeled_subset


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Darwin: adaptive rule discovery for labeling text data",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser(
        "datasets", help="list the synthetic corpora and their statistics"
    )
    datasets_parser.add_argument("--scale", type=float, default=0.05,
                                 help="fraction of paper-scale size to generate")
    datasets_parser.add_argument("--seed", type=int, default=0)

    run_parser = subparsers.add_parser(
        "run", help="run Darwin on one dataset with a simulated oracle"
    )
    run_parser.add_argument("--dataset", choices=sorted(DATASET_NAMES),
                            default="directions")
    run_parser.add_argument("--budget", type=int, default=60,
                            help="oracle-question budget")
    run_parser.add_argument("--traversal", choices=("hybrid", "universal", "local"),
                            default="hybrid")
    run_parser.add_argument("--num-sentences", type=int, default=2000)
    run_parser.add_argument("--seed-rule", default=None,
                            help="seed rule text (dataset default when omitted)")
    run_parser.add_argument("--seed", type=int, default=7)
    run_parser.add_argument("--epochs", type=int, default=40,
                            help="benefit-classifier training epochs")
    run_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                            help="write session checkpoints to this file")
    run_parser.add_argument("--checkpoint-every", type=int, default=None,
                            metavar="N",
                            help="checkpoint after every N answered questions "
                                 "(requires --checkpoint)")
    run_parser.add_argument("--arena-path", default=None, metavar="PATH",
                            help="memory-mapped coverage arena file (default: "
                                 "a temporary file whose columns checkpoints "
                                 "carry inline; a real path makes checkpoints "
                                 "reference it)")
    run_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="enable repro.obs telemetry and write a "
                                 "metrics+spans snapshot JSON here at exit "
                                 "and on every checkpoint")

    resume_parser = subparsers.add_parser(
        "resume", help="continue a checkpointed run question-for-question"
    )
    resume_parser.add_argument("--checkpoint", required=True, metavar="PATH",
                               help="checkpoint written by 'run --checkpoint'")
    resume_parser.add_argument("--budget", type=int, default=None,
                               help="total question budget including already-"
                                    "answered ones (default: config budget)")
    resume_parser.add_argument("--checkpoint-every", type=int, default=None,
                               metavar="N",
                               help="keep checkpointing every N answers")
    resume_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                               help="enable repro.obs telemetry and write a "
                                    "metrics+spans snapshot JSON here at exit "
                                    "and on every checkpoint")

    export_parser = subparsers.add_parser(
        "export-state", help="print a checkpoint's manifest summary as JSON"
    )
    export_parser.add_argument("--checkpoint", required=True, metavar="PATH")
    export_parser.add_argument("--output", default=None, metavar="FILE",
                               help="write the JSON here instead of stdout")

    compare_parser = subparsers.add_parser(
        "compare", help="compare Darwin against Snuba for one seed-set size"
    )
    compare_parser.add_argument("--dataset", choices=sorted(DATASET_NAMES),
                                default="musicians")
    compare_parser.add_argument("--seed-size", type=int, default=25,
                                help="number of labeled seed sentences")
    compare_parser.add_argument("--budget", type=int, default=60)
    compare_parser.add_argument("--scale", type=float, default=0.08)
    compare_parser.add_argument("--biased", action="store_true",
                                help="exclude the dataset's characteristic token "
                                     "from the seed pool (Figure 8)")
    compare_parser.add_argument("--seed", type=int, default=7)

    crowd_parser = subparsers.add_parser(
        "crowd", help="run Darwin with K concurrent simulated annotators"
    )
    crowd_parser.add_argument("--dataset", choices=sorted(DATASET_NAMES),
                              default="professions")
    crowd_parser.add_argument("--num-sentences", type=int, default=2000)
    crowd_parser.add_argument("--budget", type=int, default=60,
                              help="committed-question budget")
    crowd_parser.add_argument("--annotators", type=int, default=4,
                              help="concurrent annotator sessions K")
    crowd_parser.add_argument("--redundancy", type=int, default=3,
                              help="votes per question (majority commit)")
    crowd_parser.add_argument("--batch-size", type=int, default=8,
                              help="answers applied per retrain/refresh batch")
    crowd_parser.add_argument("--latency", type=float, default=0.02,
                              help="mean simulated think time per answer (s)")
    crowd_parser.add_argument("--noise", type=float, default=0.1,
                              help="per-annotator answer-flip probability")
    crowd_parser.add_argument("--seed-rule", default=None,
                              help="seed rule text (dataset default when omitted)")
    crowd_parser.add_argument("--seed", type=int, default=7)
    crowd_parser.add_argument("--epochs", type=int, default=40,
                              help="benefit-classifier training epochs")

    serve_parser = subparsers.add_parser(
        "serve", help="serve N tenant engines over one shared read-only arena"
    )
    serve_parser.add_argument("--dataset", choices=sorted(DATASET_NAMES),
                              default="directions")
    serve_parser.add_argument("--num-sentences", type=int, default=2000)
    serve_parser.add_argument("--tenants", type=int, default=4,
                              help="independent tenant engines to serve")
    serve_parser.add_argument("--budget", type=int, default=30,
                              help="per-tenant committed-question budget")
    serve_parser.add_argument("--annotators", type=int, default=2,
                              help="concurrent annotators per tenant")
    serve_parser.add_argument("--redundancy", type=int, default=1,
                              help="votes per question (majority commit)")
    serve_parser.add_argument("--batch-size", type=int, default=4,
                              help="answers applied per retrain/refresh batch")
    serve_parser.add_argument("--latency", type=float, default=0.0,
                              help="mean simulated think time per answer (s)")
    serve_parser.add_argument("--noise", type=float, default=0.0,
                              help="per-annotator answer-flip probability")
    serve_parser.add_argument("--seed-rule", default=None,
                              help="seed rule text (dataset default when omitted)")
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument("--epochs", type=int, default=40,
                              help="benefit-classifier training epochs")
    serve_parser.add_argument("--arena-path", default=None, metavar="PATH",
                              help="shared arena file (default: a temporary "
                                   "file for this serve run)")
    serve_parser.add_argument("--expected-digest", default=None, metavar="HEX",
                              help="refuse to serve unless the shared arena "
                                   "matches this content digest")
    serve_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                              help="enable repro.obs telemetry and write a "
                                   "metrics+spans snapshot JSON here when "
                                   "the serve run finishes")

    http_parser = subparsers.add_parser(
        "serve-http",
        help="HTTP/JSON gateway over a tenant pool (propose/answer/"
             "checkpoint per tenant, /healthz, /metrics, SIGTERM drain)",
    )
    http_parser.add_argument("--dataset", choices=sorted(DATASET_NAMES),
                             default="directions")
    http_parser.add_argument("--num-sentences", type=int, default=600)
    http_parser.add_argument("--tenants", type=int, default=2,
                             help="tenant engines to spawn and expose")
    http_parser.add_argument("--workers", type=int, default=1,
                             help="serving processes; 1 hosts every tenant "
                                  "in this process, N>1 runs a repro.fleet "
                                  "of N workers sharing one read-only arena "
                                  "and partitioning the tenants")
    http_parser.add_argument("--fleet-workdir", default=None, metavar="DIR",
                             help="fleet scratch directory (arena file, "
                                  "autosaves, migration checkpoints); "
                                  "default: a temporary directory owned by "
                                  "this run")
    http_parser.add_argument("--start-method", default="fork",
                             choices=("fork", "spawn", "forkserver"),
                             help="multiprocessing start method for fleet "
                                  "workers (fork shares the substrate "
                                  "copy-on-write; spawn rebuilds it from a "
                                  "substrate checkpoint)")
    http_parser.add_argument("--budget", type=int, default=30,
                             help="per-tenant committed-question budget")
    http_parser.add_argument("--annotators", type=int, default=4,
                             help="annotator slots per tenant (annotator_id "
                                  "range accepted by propose/answer)")
    http_parser.add_argument("--redundancy", type=int, default=1,
                             help="votes per question (majority commit)")
    http_parser.add_argument("--batch-size", type=int, default=4,
                             help="answers applied per retrain/refresh batch")
    http_parser.add_argument("--seed-rule", default=None,
                             help="seed rule text (dataset default when omitted)")
    http_parser.add_argument("--seed", type=int, default=7)
    http_parser.add_argument("--epochs", type=int, default=40,
                             help="benefit-classifier training epochs")
    http_parser.add_argument("--arena-path", default=None, metavar="PATH",
                             help="shared coverage arena file (default: a "
                                  "temporary file whose columns drain "
                                  "checkpoints carry inline)")
    http_parser.add_argument("--host", default="127.0.0.1",
                             help="interface to bind (default: loopback only)")
    http_parser.add_argument("--port", type=int, default=8080,
                             help="TCP port; 0 binds an ephemeral port and "
                                  "reports it (stdout + --ready-file)")
    http_parser.add_argument("--queue-depth", type=int, default=32,
                             help="per-tenant admission queue bound; a full "
                                  "queue answers 429 + Retry-After")
    http_parser.add_argument("--deadline-ms", type=float, default=10_000.0,
                             help="default per-request deadline; queued work "
                                  "past it is cancelled with a 504")
    http_parser.add_argument("--retry-after", type=int, default=1,
                             metavar="SECONDS",
                             help="Retry-After value sent with 429/503")
    http_parser.add_argument("--auth-tokens", default=None, metavar="FILE",
                             help="JSON file mapping bearer tokens to tenant "
                                  "entitlements ('*', an id, or a list); "
                                  "omitted = authentication disabled")
    http_parser.add_argument("--checkpoint-dir", default="gateway-checkpoints",
                             metavar="DIR",
                             help="where client-requested and final drain "
                                  "checkpoints are written")
    http_parser.add_argument("--allow-debug-ops", action="store_true",
                             help="expose POST /tenants/{id}/debug/sleep "
                                  "(tests and load harnesses only)")
    http_parser.add_argument("--metrics-out", default=None, metavar="PATH",
                             help="write a final metrics+spans snapshot here "
                                  "when the drain completes")
    http_parser.add_argument("--ready-file", default=None, metavar="PATH",
                             help="write {url, port, pid} JSON here once the "
                                  "listener is bound (for smoke harnesses)")

    stats_parser = subparsers.add_parser(
        "stats", help="inspect telemetry from a snapshot file or checkpoint"
    )
    stats_parser.add_argument("--metrics", default=None, metavar="PATH",
                              help="snapshot written by --metrics-out")
    stats_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                              help="checkpoint whose embedded metrics block "
                                   "to inspect (saved with --metrics-out on)")
    stats_parser.add_argument("--format",
                              choices=("summary", "json", "prometheus"),
                              default="summary",
                              help="summary digest, the raw snapshot JSON, or "
                                   "Prometheus text exposition")

    lint_parser = subparsers.add_parser(
        "lint", help="check codebase invariants (determinism, state "
                     "protocol, sealed arrays, lock discipline, obs cost)"
    )
    lint_parser.add_argument("paths", nargs="*", default=["src"],
                             metavar="PATH",
                             help="files or directories to lint "
                                  "(default: src)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text",
                             help="report format (json includes a summary "
                                  "block with per-code counts)")
    lint_parser.add_argument("--baseline", nargs="?", default=None,
                             const=LINT_BASELINE_PATH, metavar="FILE",
                             help="subtract grandfathered findings from this "
                                  "baseline file (FILE omitted: the default "
                                  "committed baseline)")
    lint_parser.add_argument("--update-baseline", action="store_true",
                             help="rewrite the baseline so every current "
                                  "finding is grandfathered, then exit 0")
    lint_parser.add_argument("--select", action="append", default=None,
                             metavar="CODES",
                             help="comma-separated checker codes to run "
                                  "(default: all registered)")
    return parser


def _command_datasets(args: argparse.Namespace) -> int:
    rows = table1_rows(scale=args.scale, seed=args.seed)
    print(format_table(
        ["dataset", "task", "#sentences", "%positives", "paper #sentences",
         "paper %positives"],
        [
            [row["dataset"], row["task"], row["num_sentences"],
             100.0 * float(row["positive_fraction"]),
             row["paper_num_sentences"],
             100.0 * float(row["paper_positive_fraction"])]
            for row in rows
        ],
        title="Available datasets (generated at --scale vs. paper Table 1)",
    ))
    return 0


def _print_run_summary(result: DarwinResult) -> None:
    print(f"\nasked {result.queries_used} questions, accepted "
          f"{len(result.rule_set)} rules")
    print(f"coverage (recall over positives): {result.final_recall:.3f}")
    print(f"benefit-classifier F1:            {result.final_f1:.3f}")
    print("\naccepted rules:")
    for rule in result.rule_set.rules:
        print(f"  - {rule.render()!r:40s} |C_r| = {rule.coverage_size}")
    print()
    print(format_curve_table(
        {"coverage": result.recall_curve(), "F1": result.f1_curve()},
        step=10, title="progress by #questions",
    ))


def _command_run(args: argparse.Namespace) -> int:
    if args.metrics_out:
        # Enable before the engine exists: metric sites resolve their
        # instruments at component construction time.
        obs.enable()
    bank = load_bank(args.dataset)
    seed_rule = args.seed_rule or bank.default_seed_rules[0]
    # Declarative construction: the whole engine comes from one config dict
    # (the same shape DarwinEngine.from_config accepts from a JSON file).
    engine = DarwinEngine.from_config({
        "dataset": {"name": args.dataset, "num_sentences": args.num_sentences,
                    "seed": args.seed, "parse_trees": False},
        "config": {"budget": args.budget, "traversal": args.traversal,
                   "num_candidates": 1000, "oracle": "ground_truth",
                   "classifier": {"model": "logistic", "epochs": args.epochs},
                   "index": {"arena_path": args.arena_path}},
        "seeds": {"rule_texts": [seed_rule]},
    })
    corpus = engine.corpus
    print(f"dataset={args.dataset} sentences={len(corpus)} "
          f"positives={len(corpus.positive_ids())} seed rule={seed_rule!r}")
    if args.arena_path:
        arena = engine.darwin.index.store.arena
        print(f"coverage arena: {arena.path} "
              f"({arena.values_bytes} column bytes on disk)")
    result = engine.run(
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        metrics_out=args.metrics_out,
    )
    if args.checkpoint:
        # engine.run always leaves the file holding the end-of-run state.
        print(f"checkpoint written to {args.checkpoint}")
    if args.metrics_out:
        print(f"metrics snapshot written to {args.metrics_out}")
    _print_run_summary(result)
    return 0


def _command_resume(args: argparse.Namespace) -> int:
    if args.metrics_out:
        obs.enable()
    engine = DarwinEngine.load(args.checkpoint)
    print(f"resuming {args.checkpoint}: {engine.questions_asked} questions "
          f"already answered, budget "
          f"{engine.config.budget if args.budget is None else args.budget}")
    result = engine.run(
        budget=args.budget,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        metrics_out=args.metrics_out,
    )
    print(f"checkpoint updated: {args.checkpoint}")
    if args.metrics_out:
        print(f"metrics snapshot written to {args.metrics_out}")
    _print_run_summary(result)
    return 0


def _command_export_state(args: argparse.Namespace) -> int:
    rendered = export_state_json(args.checkpoint)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"manifest summary written to {args.output}")
    else:
        print(rendered)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    config = DarwinConfig(
        budget=args.budget, num_candidates=1000,
        classifier=ClassifierConfig(epochs=40),
    )
    setting = prepare_dataset(args.dataset, scale=args.scale, seed=args.seed,
                              config=config)
    subset = sample_labeled_subset(setting, size=args.seed_size, seed=args.seed,
                                   biased=args.biased)
    labels = {i: bool(setting.corpus[i].label) for i in subset}

    snuba = SnubaBaseline(setting.corpus).run(subset, labels=labels)
    darwin = setting.run_darwin(
        traversal="hybrid", budget=args.budget,
        seed_positive_ids=[i for i in subset if labels[i]],
    )
    print(format_table(
        ["system", "supervision", "coverage of positives", "#rules"],
        [
            ["Snuba", f"{len(subset)} labeled sentences", snuba.coverage,
             len(snuba.rule_set)],
            ["Darwin(HS)", f"{sum(labels.values())} seed positives + "
                           f"{darwin.queries_used} YES/NO questions",
             darwin.final_recall, len(darwin.rule_set)],
        ],
        title=f"Darwin vs Snuba on {args.dataset} "
              f"({'biased ' if args.biased else ''}seed size {args.seed_size})",
    ))
    return 0


def _command_crowd(args: argparse.Namespace) -> int:
    corpus = load_dataset(args.dataset, num_sentences=args.num_sentences,
                          seed=args.seed, parse_trees=False)
    bank = load_bank(args.dataset)
    seed_rule = args.seed_rule or bank.default_seed_rules[0]
    config = DarwinConfig(
        budget=args.budget,
        num_candidates=1000,
        classifier=ClassifierConfig(epochs=args.epochs),
    )
    crowd_config = CrowdConfig(
        num_annotators=args.annotators,
        redundancy=args.redundancy,
        batch_size=args.batch_size,
        budget=args.budget,
        annotator_latency=args.latency,
        label_noise=args.noise,
        seed=args.seed,
    )
    print(f"dataset={args.dataset} sentences={len(corpus)} "
          f"positives={len(corpus.positive_ids())} seed rule={seed_rule!r}")
    print(f"crowd: K={args.annotators} annotators, redundancy={args.redundancy}, "
          f"batch_size={args.batch_size}, latency={args.latency * 1000:.0f}ms, "
          f"noise={args.noise}")
    darwin = Darwin(corpus, config=config)
    outcome = run_crowd(darwin, config=crowd_config, seed_rule_texts=[seed_rule])

    crowd = outcome.crowd
    result = outcome.darwin_result
    print(f"\ncommitted {crowd.questions_committed} questions from "
          f"{crowd.votes_collected} votes in {outcome.wall_seconds:.2f}s "
          f"({outcome.answers_per_sec:.1f} answers/s, "
          f"{outcome.votes_per_sec:.1f} votes/s)")
    print(f"accepted {len(result.rule_set)} rules; classifier retrains: "
          f"{darwin.trainer.retrain_count}")
    print(f"coverage (recall over positives): {result.final_recall:.3f}")
    print("\nvotes per annotator:")
    for annotator_id, votes in sorted(crowd.votes_per_annotator.items()):
        print(f"  annotator {annotator_id}: {votes}")
    print("\naccepted rules:")
    for rule in result.rule_set.rules:
        print(f"  - {rule.render()!r:40s} |C_r| = {rule.coverage_size}")
    print()
    print(format_curve_table(
        {"coverage": result.recall_curve(), "F1": result.f1_curve()},
        step=10, title="progress by #questions",
    ))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serving import TenantPool, serve

    if args.metrics_out:
        obs.enable()
    corpus = load_dataset(args.dataset, num_sentences=args.num_sentences,
                          seed=args.seed, parse_trees=False)
    bank = load_bank(args.dataset)
    seed_rule = args.seed_rule or bank.default_seed_rules[0]
    config = DarwinConfig(
        budget=args.budget,
        num_candidates=1000,
        classifier=ClassifierConfig(epochs=args.epochs),
        index=IndexConfig(arena_path=args.arena_path),
    )
    crowd_config = CrowdConfig(
        num_annotators=args.annotators,
        redundancy=args.redundancy,
        batch_size=args.batch_size,
        budget=args.budget,
        annotator_latency=args.latency,
        label_noise=args.noise,
        seed=args.seed,
    )
    print(f"dataset={args.dataset} sentences={len(corpus)} "
          f"positives={len(corpus.positive_ids())} seed rule={seed_rule!r}")
    with TenantPool(
        corpus, config,
        seeds={"rule_texts": [seed_rule]},
        expected_digest=args.expected_digest,
        dataset_spec={"name": args.dataset,
                      "options": {"num_sentences": args.num_sentences,
                                  "seed": args.seed, "parse_trees": False}},
    ) as pool:
        arena = pool.index.store.arena
        print(f"shared arena: {arena.path} ({arena.values_bytes} column "
              f"bytes, read-only, digest {pool.arena_digest[:16]}…)")
        print(f"serving {args.tenants} tenants × {args.annotators} annotators "
              f"(redundancy={args.redundancy}, batch_size={args.batch_size})")
        report = serve(pool, num_tenants=args.tenants, crowd_config=crowd_config)
        print(f"\ncommitted {report.questions_committed} questions across "
              f"{len(report.results)} tenants in {report.wall_seconds:.2f}s "
              f"({report.answers_per_sec:.1f} answers/s)")
        print(format_table(
            ["tenant", "questions", "rules", "coverage", "overlay interns",
             "resident B"],
            [
                [tid, r.crowd.questions_committed,
                 len(r.crowd.darwin_result.rule_set),
                 r.crowd.darwin_result.final_recall,
                 r.overlay_interned, r.resident_bytes]
                for tid, r in sorted(report.results.items())
            ],
            title="per-tenant outcomes",
        ))
        memory = report.memory
        shared = memory["shared_resident_bytes"]
        per_tenant = memory["tenant_resident_bytes"]
        print(f"shared resident state: {shared:,.0f} B (once per pool); "
              f"tenant overlays: {per_tenant:,.0f} B total "
              f"({per_tenant / max(len(report.results), 1):,.0f} B/tenant)")
        features = pool.featurizer.stats()
        print(f"feature store: {features['entries']:.0f} rows, "
              f"{features['hits']:.0f} rows served / "
              f"{features['misses']:.0f} computed")
        if args.metrics_out:
            # Snapshot while the pool is still open so its collectors run.
            obs.write_snapshot(args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
    return 0


def _command_serve_http(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .config import GatewayConfig
    from .errors import ReproError
    from .gateway import GatewayApp, TokenAuthenticator, build_server
    from .serving import TenantPool

    # The gateway always runs instrumented: /metrics is part of its surface.
    # Enable before any component exists so every instrument binds live.
    obs.enable()
    try:
        gateway_config = GatewayConfig(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            deadline_ms=args.deadline_ms,
            retry_after_s=args.retry_after,
            auth_tokens_path=args.auth_tokens,
            checkpoint_dir=args.checkpoint_dir,
            allow_debug_ops=args.allow_debug_ops,
        )
        # Validate the token table before the (slow) corpus build so a bad
        # --auth-tokens path fails in milliseconds, not after dataset load.
        authenticator = TokenAuthenticator.from_file(
            gateway_config.auth_tokens_path
        )
        if args.arena_path:
            parent = os.path.dirname(os.path.abspath(args.arena_path))
            if not os.path.isdir(parent):
                raise ReproError(
                    f"arena directory does not exist: {parent}"
                )
        corpus = load_dataset(args.dataset, num_sentences=args.num_sentences,
                              seed=args.seed, parse_trees=False)
        bank = load_bank(args.dataset)
        seed_rule = args.seed_rule or bank.default_seed_rules[0]
        config = DarwinConfig(
            budget=args.budget,
            num_candidates=1000,
            classifier=ClassifierConfig(epochs=args.epochs),
            index=IndexConfig(arena_path=args.arena_path),
        )
        crowd_config = CrowdConfig(
            num_annotators=args.annotators,
            redundancy=args.redundancy,
            batch_size=args.batch_size,
            budget=args.budget,
            annotator_latency=0.0,
            seed=args.seed,
        )
        seeds = {"rule_texts": [seed_rule]}
        dataset_spec = {"name": args.dataset,
                        "options": {"num_sentences": args.num_sentences,
                                    "seed": args.seed,
                                    "parse_trees": False}}

        def _run_gateway(app: GatewayApp, topology: str) -> None:
            server = build_server(app)

            def _drain_signal(signum: int, frame: object) -> None:
                # Stop admitting immediately; shutdown() must run on another
                # thread — called from the serving thread it deadlocks.
                app.begin_drain()
                threading.Thread(
                    target=server.stop, name="gateway-shutdown", daemon=True
                ).start()

            signal.signal(signal.SIGTERM, _drain_signal)
            signal.signal(signal.SIGINT, _drain_signal)
            tenants = app.backend.tenant_ids()
            print(f"gateway listening on {server.url} "
                  f"({topology}; {len(tenants)} tenants: "
                  f"{', '.join(tenants)})")
            print(f"auth: {'bearer tokens' if app.auth.enabled else 'disabled'}"
                  f"; queue depth {gateway_config.queue_depth}; "
                  f"deadline {gateway_config.deadline_ms:.0f}ms")
            sys.stdout.flush()
            if args.ready_file:
                with open(args.ready_file, "w", encoding="utf-8") as handle:
                    json.dump({"url": server.url, "port": server.port,
                               "pid": os.getpid(), "tenants": tenants,
                               "workers": max(args.workers, 1)}, handle)
            server.serve_forever()
            # serve_forever returned: the drain signal fired (or stop() was
            # called). Finish: flush coordinators, final checkpoints,
            # metrics snapshot.
            paths = app.finish_drain(metrics_snapshot_path=args.metrics_out)
            print("gateway drained; final checkpoints:")
            for tenant_id, path in sorted(paths.items()):
                print(f"  {tenant_id}: {path}")
            if args.metrics_out:
                print(f"metrics snapshot written to {args.metrics_out}")

        if args.workers > 1:
            from .config import FleetConfig
            from .fleet import FleetSupervisor
            from .gateway import FleetBackend

            supervisor = FleetSupervisor(
                corpus, config,
                fleet=FleetConfig(workers=args.workers,
                                  start_method=args.start_method,
                                  workdir=args.fleet_workdir),
                crowd_config=crowd_config,
                seeds=seeds,
                dataset_spec=dataset_spec,
                allow_debug_ops=args.allow_debug_ops,
            )
            with supervisor:
                supervisor.spawn_tenants(args.tenants)
                app = GatewayApp(
                    config=gateway_config,
                    crowd_config=crowd_config,
                    authenticator=authenticator,
                    backend=FleetBackend(
                        supervisor, gateway_config.checkpoint_dir
                    ),
                )
                _run_gateway(app, f"fleet of {args.workers} workers")
            return 0

        with TenantPool(
            corpus, config,
            seeds=seeds,
            dataset_spec=dataset_spec,
        ) as pool:
            pool.spawn_many(args.tenants)
            app = GatewayApp(
                pool, gateway_config, crowd_config, authenticator=authenticator
            )
            _run_gateway(app, "in-process pool")
    except ReproError as exc:
        print(f"serve-http: {exc}", file=sys.stderr)
        return 2
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    if bool(args.metrics) == bool(args.checkpoint):
        print("stats: pass exactly one of --metrics or --checkpoint",
              file=sys.stderr)
        return 2
    if args.metrics:
        payload = obs.read_snapshot(args.metrics)
        snapshot = payload.get("metrics") or {}
        spans = payload.get("spans") or []
        source = args.metrics
    else:
        from .engine.state import read_checkpoint_summary

        manifest, _ = read_checkpoint_summary(args.checkpoint)
        snapshot = manifest.get("metrics") or {}
        spans = []
        source = args.checkpoint
    if args.format == "prometheus":
        from .obs.prometheus import render_snapshot

        sys.stdout.write(render_snapshot(snapshot))
        return 0
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    summary = obs.summarize_snapshot(snapshot)
    if not summary:
        print(f"{source}: no telemetry recorded (metrics were disabled)")
        return 0
    print(f"telemetry from {source}:")
    questions = summary.get("questions")
    if questions:
        print(f"  questions: {questions['total']:.0f} "
              f"({questions['yes']:.0f} yes / {questions['no']:.0f} no)")
    if "retrains" in summary:
        print(f"  classifier retrains: {summary['retrains']:.0f}")
    cache = summary.get("feature_cache")
    if cache:
        print(f"  feature_cache: {cache['hits']:.0f} hits / "
              f"{cache['misses']:.0f} misses "
              f"(ratio {cache['hit_ratio']:.2f})")
    commits = summary.get("crowd_commits")
    if commits:
        print(f"  crowd commits: {commits['accept']:.0f} accepted / "
              f"{commits['reject']:.0f} rejected")
    gateway = summary.get("gateway")
    if gateway:
        print(f"  gateway: {gateway['requests']:.0f} requests "
              f"({gateway['rejected']:.0f} rejected, "
              f"{gateway['errors_5xx']:.0f} 5xx)")
    phases = summary.get("phases")
    if phases:
        print(format_table(
            ["phase", "count", "mean ms", "p50 ms", "p95 ms"],
            [
                [name, f"{entry['count']:.0f}", f"{entry['mean_ms']:.2f}",
                 f"{entry['p50_ms']:.2f}", f"{entry['p95_ms']:.2f}"]
                for name, entry in sorted(phases.items())
            ],
            title="per-phase latency",
        ))
    if spans:
        print(f"  trace: {len(spans)} root spans retained")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Deferred import: the checkers only load when linting is requested.
    from .analysis import run_lint

    return run_lint(
        args.paths,
        fmt=args.format,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        select=args.select,
    )


_COMMANDS = {
    "datasets": _command_datasets,
    "run": _command_run,
    "resume": _command_resume,
    "export-state": _command_export_state,
    "compare": _command_compare,
    "crowd": _command_crowd,
    "serve": _command_serve,
    "serve-http": _command_serve_http,
    "stats": _command_stats,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
