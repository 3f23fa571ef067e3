"""Arena round-trip smoke test: the mmap coverage backend must be invisible.

Builds an arena-backed engine, checkpoints it mid-run, resumes from the
checkpoint (which reattaches the memory-mapped arena by reference and
verifies its content digest), and diffs the completed history against the
same run on the plain in-memory backend. Exits non-zero on any divergence —
CI runs this to guard the "arena is a pure storage swap" guarantee.
"""

from __future__ import annotations

import copy
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


def main() -> int:
    in_memory = DarwinEngine.from_config(SPEC).run()
    print(f"memory backend: {in_memory.queries_used} questions, "
          f"{len(in_memory.rule_set)} rules, recall {in_memory.final_recall:.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        spec = copy.deepcopy(SPEC)
        spec["config"]["index"] = {
            "coverage_backend": "arena",
            "arena_path": str(Path(tmp) / "arena_smoke.arena"),
        }
        checkpoint = str(Path(tmp) / "arena_smoke.npz")

        interrupted = DarwinEngine.from_config(spec)
        backend = interrupted.darwin.index.store.backend
        if backend != "arena":
            print(f"FAIL: expected arena backend, got {backend!r}")
            return 1
        interrupted.run(budget=8)
        interrupted.save(checkpoint)
        print(f"arena engine checkpointed after "
              f"{interrupted.questions_asked} questions "
              f"(arena: {interrupted.darwin.index.store.arena.path})")

        resumed = DarwinEngine.load(checkpoint)
        if resumed.darwin.index.store.backend != "arena":
            print("FAIL: resumed engine lost the arena backend")
            return 1
        arena_result = resumed.run(budget=16)
    print(f"arena resumed:  {arena_result.queries_used} questions, "
          f"{len(arena_result.rule_set)} rules, "
          f"recall {arena_result.final_recall:.3f}")

    if arena_result.history != in_memory.history:
        for memory_rec, arena_rec in zip(in_memory.history, arena_result.history):
            marker = "  " if memory_rec == arena_rec else "!!"
            print(f"{marker} q{memory_rec.question_number}: "
                  f"{memory_rec.rule!r} vs {arena_rec.rule!r}")
        print("FAIL: arena-backed history diverged from the in-memory backend")
        return 1
    print("OK: arena-backed checkpoint/resume history is identical to the "
          "in-memory backend")
    return 0


if __name__ == "__main__":
    sys.exit(main())
