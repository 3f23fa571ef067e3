"""Multi-tenant serving benchmark (shared read-only arena PR).

Measures what the tenant-pool design claims:

* **correctness** — every tenant's question history is question-for-question
  identical to a solo engine with the same config (tenancy is a packaging
  change, never a behavioural one),
* **sublinear memory** — the shared substrate (read-only arena residency,
  CSR inverted map, frozen feature matrix) exists once per pool: its resident bytes
  at N tenants must stay below 1.3x the single-tenant pool (the acceptance
  bound, enforced here *and* relative-gated in CI via
  ``benchmarks/check_regression.py``), while per-tenant overlays stay small,
* **throughput** — committed answers/sec with every tenant's crowd
  multiplexed on one event loop.

Each arm runs in a forked child so ``ru_maxrss`` is per-arm. Results are
written to ``BENCH_tenants.json``; the CI ``perf-gate`` job re-runs the small
size against the committed file.

Run with::

    PYTHONPATH=src python benchmarks/bench_tenants.py [--sizes 5000 50000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_isolate import peak_rss_bytes, run_isolated

from repro.config import ClassifierConfig, CrowdConfig, DarwinConfig, IndexConfig
from repro.datasets import load_dataset
from repro.engine.engine import DarwinEngine
from repro.serving import TenantPool, serve

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_tenants.json"

SEED_RULE = "best way to get to"


def _config(budget: int, arena_path: Optional[str]) -> DarwinConfig:
    return DarwinConfig(
        budget=budget,
        num_candidates=2000,
        min_coverage=2,
        classifier=ClassifierConfig(model="logistic", epochs=10, embedding_dim=30),
        index=IndexConfig(arena_path=arena_path),
    )


def run_solo_arm(num_sentences: int, budget: int) -> Dict[str, object]:
    """A plain single-user engine (temporary arena): the history oracle.

    Deliberately *not* a 1-tenant pool: tenant histories are compared against
    an engine with no pool machinery at all, so the equality also re-proves
    that the arena's placement never changes a history.
    """
    corpus = load_dataset(
        "directions", num_sentences=num_sentences, seed=7, parse_trees=False
    )
    engine = DarwinEngine(
        corpus,
        config=_config(budget, None),
        seeds={"rule_texts": [SEED_RULE]},
    )
    start = time.perf_counter()
    result = engine.run()
    return {
        "arm": "solo",
        "loop_seconds": round(time.perf_counter() - start, 4),
        "questions": result.queries_used,
        "history": [(rec.rule, rec.answer) for rec in result.history],
        "peak_rss_bytes": peak_rss_bytes(),
    }


def run_pool_arm(
    num_sentences: int, budget: int, tenants: int, arena_path: str
) -> Dict[str, object]:
    """A pool of ``tenants`` engines over one shared read-only arena."""
    corpus = load_dataset(
        "directions", num_sentences=num_sentences, seed=7, parse_trees=False
    )
    config = _config(budget, arena_path)
    crowd = CrowdConfig(
        num_annotators=2,
        redundancy=1,
        batch_size=1,  # sequentially consistent with the serial loop
        budget=budget,
        annotator_latency=0.0,
    )
    build_start = time.perf_counter()
    with TenantPool(corpus, config, seeds={"rule_texts": [SEED_RULE]}) as pool:
        build_seconds = time.perf_counter() - build_start
        report = serve(pool, num_tenants=tenants, crowd_config=crowd)
        memory = report.memory
        histories = {
            tenant_id: [
                (rec.rule, rec.answer)
                for rec in result.crowd.darwin_result.history
            ]
            for tenant_id, result in report.results.items()
        }
        cache = pool.featurizer.stats()
    return {
        "arm": f"pool-{tenants}",
        "tenants": tenants,
        "build_seconds": round(build_seconds, 4),
        "serve_seconds": round(report.wall_seconds, 4),
        "questions_committed": report.questions_committed,
        "answers_per_sec": round(report.answers_per_sec, 2),
        "histories": histories,
        "shared_resident_bytes": int(memory["shared_resident_bytes"]),
        "tenant_resident_bytes": int(memory["tenant_resident_bytes"]),
        "arena_file_bytes": int(memory.get("arena_file_bytes", 0)),
        "feature_cache": cache,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def measure_scale(num_sentences: int, budget: int, tenants: int) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="bench-tenants-") as tmp:
        solo = run_isolated(run_solo_arm, num_sentences, budget)
        pool_one = run_isolated(
            run_pool_arm, num_sentences, budget, 1,
            os.path.join(tmp, "pool1.arena"),
        )
        pool_many = run_isolated(
            run_pool_arm, num_sentences, budget, tenants,
            os.path.join(tmp, f"pool{tenants}.arena"),
        )

    solo_history = solo.pop("history")
    histories = list(pool_one.pop("histories").values()) + list(
        pool_many.pop("histories").values()
    )
    history_match = all(history == solo_history for history in histories)
    shared_ratio = pool_many["shared_resident_bytes"] / max(
        pool_one["shared_resident_bytes"], 1
    )
    headline = {
        "history_match": history_match,
        "shared_resident_ratio": round(shared_ratio, 4),
        "rss_ratio": round(
            pool_many["peak_rss_bytes"] / max(pool_one["peak_rss_bytes"], 1), 3
        ),
        "tenant_overlay_bytes_each": int(
            pool_many["tenant_resident_bytes"] / max(pool_many["tenants"], 1)
        ),
        "answers_per_sec": pool_many["answers_per_sec"],
    }
    return {
        "num_sentences": num_sentences,
        "tenants": tenants,
        "solo": solo,
        "pool_one": pool_one,
        "pool_many": pool_many,
        "headline": headline,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[5000, 50000],
        help="corpus sizes (sentences); the acceptance claim is the 50k "
             "point, the 5k point doubles as the CI smoke size",
    )
    parser.add_argument("--tenants", type=int, default=16,
                        help="tenant engines in the many-tenant arm")
    parser.add_argument("--budget", type=int, default=12,
                        help="per-tenant committed-question budget")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH)
    args = parser.parse_args()

    results: List[Dict[str, object]] = []
    acceptance_ok = True
    for size in args.sizes:
        print(f"== {size} sentences, {args.tenants} tenants ==")
        entry = measure_scale(size, args.budget, args.tenants)
        results.append(entry)
        headline = entry["headline"]
        pool_many, pool_one = entry["pool_many"], entry["pool_one"]
        print(f"  histories identical to solo : {headline['history_match']}")
        print(f"  shared resident bytes       : "
              f"{pool_many['shared_resident_bytes']:,} B at {args.tenants} "
              f"tenants vs {pool_one['shared_resident_bytes']:,} B at 1 "
              f"({headline['shared_resident_ratio']}x, bound 1.3x)")
        print(f"  per-tenant overlay          : "
              f"{headline['tenant_overlay_bytes_each']:,} B")
        print(f"  peak RSS                    : "
              f"{pool_many['peak_rss_bytes'] / 1e6:.0f} MB vs "
              f"{pool_one['peak_rss_bytes'] / 1e6:.0f} MB "
              f"({headline['rss_ratio']}x for {args.tenants}x tenants)")
        print(f"  throughput                  : "
              f"{headline['answers_per_sec']:.1f} answers/s "
              f"({pool_many['serve_seconds']:.2f}s serve)")
        if not headline["history_match"]:
            acceptance_ok = False
            print("  ACCEPTANCE FAIL: tenant history diverged from solo")
        if headline["shared_resident_ratio"] >= 1.3:
            acceptance_ok = False
            print("  ACCEPTANCE FAIL: shared resident bytes grew >= 1.3x")

    payload = {
        "benchmark": "bench_tenants",
        "dataset": "directions",
        "tenants": args.tenants,
        "budget": args.budget,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0 if acceptance_ok else 1


if __name__ == "__main__":
    sys.exit(main())
