"""Memory-mapped coverage arena benchmark (larger-than-memory corpora PR).

Compares the in-memory coverage backend against the mmap arena backend at
each corpus size, measuring what the arena design actually trades:

* **index build time** — sketch merge + interning (one bulk column append
  for the arena vs heap allocation for memory),
* **resident-set ceiling** — each arm runs in its own forked child process
  and reports its ``ru_maxrss`` peak, plus the store's exact coverage
  accounting: the memory backend pins every interned column on the heap,
  the arena keeps only the offsets column resident while the values column
  lives in the file (OS page cache),
* **per-question loop latency** — the full Darwin loop on both backends,
  with the histories asserted identical (the arena must be a pure storage
  swap, never a behavioural one).

Results are written to ``BENCH_arena.json`` next to the repo root; the CI
``perf-gate`` job re-runs the small size and feeds the committed file to
``benchmarks/check_regression.py`` so the arena-vs-memory ratios can never
silently regress.

Run with::

    PYTHONPATH=src python benchmarks/bench_arena.py [--sizes 5000 50000]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_isolate import peak_rss_bytes, run_isolated

from repro.config import ClassifierConfig, DarwinConfig
from repro.core.darwin import Darwin
from repro.core.oracle import BudgetedOracle, GroundTruthOracle
from repro.datasets import load_dataset
from repro.grammars.tokensregex import TokensRegexGrammar
from repro.index.trie_index import CorpusIndex

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_arena.json"


def run_arm(
    backend: str,
    num_sentences: int,
    budget: int,
    arena_path: Optional[str],
) -> Dict[str, object]:
    """Build the index and drive the Darwin loop on one backend.

    Designed to run inside a forked child so ``ru_maxrss`` reflects this
    arm alone; returns a plain JSON-able dict.
    """
    corpus = load_dataset(
        "directions", num_sentences=num_sentences, seed=7, parse_trees=False
    )
    grammar = TokensRegexGrammar(max_phrase_len=4)

    start = time.perf_counter()
    index = CorpusIndex.build(
        corpus,
        [grammar],
        max_depth=10,
        min_coverage=2,
        coverage_backend=backend,
        arena_path=arena_path,
    )
    build_seconds = time.perf_counter() - start

    config = DarwinConfig(
        budget=budget,
        num_candidates=2000,
        min_coverage=2,
        retrain_every=5,
        hierarchy_refresh="incremental",
        classifier=ClassifierConfig(model="logistic", epochs=10, embedding_dim=30),
    )
    darwin = Darwin(corpus, grammars=[grammar], config=config, index=index)
    darwin.start(seed_rule_texts=["best way to get to"])
    oracle = BudgetedOracle(base=GroundTruthOracle(corpus), budget=budget)
    loop_start = time.perf_counter()
    while oracle.queries_used < budget:
        rule = darwin.propose_next()
        if rule is None:
            break
        answer = oracle.ask(rule, darwin.sample_for_query(rule))
        darwin.record_answer(rule, answer.is_useful)
    loop_seconds = time.perf_counter() - loop_start
    questions = max(oracle.queries_used, 1)

    store = index.store
    result: Dict[str, object] = {
        "backend": backend,
        "build_seconds": round(build_seconds, 4),
        "loop_seconds": round(loop_seconds, 4),
        "questions": oracle.queries_used,
        "per_question_ms": round(1000.0 * loop_seconds / questions, 4),
        "history": [(rec.rule, rec.answer) for rec in darwin.history],
        "final_recall": round(darwin.rule_set.recall(corpus.positive_ids()), 4),
        "num_nodes": len(index) - 1,
        "interned_coverages": store.num_interned,
        "coverage_column_bytes": store.bytes_interned,
        "coverage_resident_bytes": store.resident_coverage_bytes,
        "peak_rss_bytes": peak_rss_bytes(),
    }
    if backend == "arena":
        result["arena_file_bytes"] = os.path.getsize(store.arena.path)
    return result


def measure_scale(num_sentences: int, budget: int) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="bench-arena-") as tmp:
        arena_path = os.path.join(tmp, f"bench-{num_sentences}.arena")
        memory = run_isolated(run_arm, "memory", num_sentences, budget, None)
        arena = run_isolated(run_arm, "arena", num_sentences, budget, arena_path)
    history_match = memory.pop("history") == arena.pop("history")
    headline = {
        "per_question_ratio": round(
            arena["per_question_ms"] / max(memory["per_question_ms"], 1e-9), 3
        ),
        "build_ratio": round(
            arena["build_seconds"] / max(memory["build_seconds"], 1e-9), 3
        ),
        "coverage_resident_ratio": round(
            arena["coverage_resident_bytes"]
            / max(memory["coverage_resident_bytes"], 1), 4
        ),
        "history_match": history_match,
    }
    return {
        "num_sentences": num_sentences,
        "memory": memory,
        "arena": arena,
        "headline": headline,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[5000, 50000],
        help="corpus sizes (sentences) to measure; the paper-scale claim is "
             "the 50k point, the 5k point doubles as the CI smoke size",
    )
    parser.add_argument("--budget", type=int, default=40,
                        help="oracle budget for the per-question loop runs")
    parser.add_argument("--output", type=Path, default=OUTPUT_PATH)
    args = parser.parse_args()

    results: List[Dict[str, object]] = []
    for size in args.sizes:
        print(f"== {size} sentences ==")
        entry = measure_scale(size, args.budget)
        results.append(entry)
        memory, arena, headline = entry["memory"], entry["arena"], entry["headline"]
        print(f"  build              : {arena['build_seconds']:.2f}s arena vs "
              f"{memory['build_seconds']:.2f}s memory "
              f"({headline['build_ratio']}x)")
        print(f"  per-question loop  : {arena['per_question_ms']:.2f}ms vs "
              f"{memory['per_question_ms']:.2f}ms "
              f"({headline['per_question_ratio']}x, "
              f"history match: {headline['history_match']})")
        print(f"  coverage resident  : {arena['coverage_resident_bytes']:,} B "
              f"arena (offsets) vs {memory['coverage_resident_bytes']:,} B heap "
              f"({headline['coverage_resident_ratio']}x); "
              f"arena file {arena['arena_file_bytes']:,} B")
        print(f"  peak RSS           : {arena['peak_rss_bytes'] / 1e6:.0f} MB vs "
              f"{memory['peak_rss_bytes'] / 1e6:.0f} MB")

    payload = {
        "benchmark": "bench_arena",
        "dataset": "directions",
        "budget": args.budget,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
