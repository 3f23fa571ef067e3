"""Arena smoke test: where the coverage arena lives must be invisible.

Every index keeps its coverage columns in a memory-mapped arena. Three runs
of one spec must ask the same questions in the same order:

1. an uninterrupted run on the default config (a temporary arena);
2. a temporary-arena run checkpointed after 8 questions, whose temp file is
   gone once the engine closes — the checkpoint carries the columns inline —
   resumed in a **child process**;
3. a durable-path run checkpointed the same way, whose checkpoint stays a
   digest-verified *reference* to the arena file, resumed in a child process.

Exits non-zero on any divergence; CI runs it to guard the checkpoint
protocol across processes.

    PYTHONPATH=src python examples/arena_smoke.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import DarwinEngine

SPEC = {
    "dataset": {"name": "directions", "num_sentences": 500, "seed": 3,
                "parse_trees": False},
    "config": {"budget": 16, "traversal": "hybrid", "num_candidates": 400,
               "grammars": ["tokensregex"], "oracle": "ground_truth",
               "classifier": {"model": "logistic", "epochs": 12}},
    "seeds": {"rule_texts": ["best way to get to"]},
}
CHECKPOINT_AT = 8


def history_rows(result) -> list:
    return [dataclasses.asdict(record) for record in result.history]


def resume_in_child(checkpoint: str) -> list:
    """Resume ``checkpoint`` in a fresh interpreter; returns its history."""
    output = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--resume", checkpoint],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(output)


def checkpoint_run(spec: dict, checkpoint: str) -> dict:
    """Run to :data:`CHECKPOINT_AT`, save, close the arena; returns the
    checkpoint summary."""
    engine = DarwinEngine.from_config(spec)
    engine.run(budget=CHECKPOINT_AT)
    engine.save(checkpoint)
    store = engine.darwin.index.store
    arena_path = store.arena.path
    store.close()
    print(f"  checkpointed after {engine.questions_asked} questions "
          f"(arena {arena_path}, still on disk: {os.path.exists(arena_path)})")
    return DarwinEngine.describe_checkpoint(checkpoint)


def main() -> int:
    straight = DarwinEngine.from_config(SPEC).run()
    expected = history_rows(straight)
    print(f"uninterrupted: {straight.queries_used} questions, "
          f"{len(straight.rule_set)} rules, recall {straight.final_recall:.3f}")

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        print("temporary arena:")
        inline = str(Path(tmp) / "inline.npz")
        summary = checkpoint_run(SPEC, inline)
        if summary["coverage_checkpoint"] != "inline":
            failures.append(f"temp-arena checkpoint is "
                            f"{summary['coverage_checkpoint']!r}, not inline")
        if resume_in_child(inline) != expected:
            failures.append("temp-arena resume diverged")

        print("durable arena path:")
        durable = copy.deepcopy(SPEC)
        durable["config"]["index"] = {"arena_path": str(Path(tmp) / "run.arena")}
        reference = str(Path(tmp) / "reference.npz")
        summary = checkpoint_run(durable, reference)
        stored = [name for name in summary["arrays"]
                  if name.startswith("index/store/")]
        if summary["coverage_checkpoint"] != "reference" or stored:
            failures.append(f"durable-path checkpoint is "
                            f"{summary['coverage_checkpoint']!r} with "
                            f"{len(stored)} stored coverage arrays")
        if resume_in_child(reference) != expected:
            failures.append("durable-path resume diverged")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK: uninterrupted, temp-arena and durable-path histories are "
          "identical across processes")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--resume":
        resumed = DarwinEngine.load(sys.argv[2]).run(budget=SPEC["config"]["budget"])
        print(json.dumps(history_rows(resumed)))
        sys.exit(0)
    sys.exit(main())
