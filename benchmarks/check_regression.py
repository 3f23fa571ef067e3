"""CI perf-regression gate: compare a fresh bench run against committed numbers.

Usage::

    python benchmarks/check_regression.py \
        --baseline BENCH_index_scale.json --current /tmp/BENCH_index_scale.json

The committed ``BENCH_*.json`` files are the thresholds: for each benchmark a
small table below names its **headline metrics** — the numbers the PRs that
introduced them claimed — and the gate fails when any of them regresses more
than ``--tolerance`` (default 25%) against the committed value.

All gated metrics are deliberately *machine-relative* (speedups and ratios
between two arms measured in the same run, plus exact-equivalence booleans),
never absolute milliseconds: a CI runner is slower than the machine that
produced the committed file, but it is slower for both arms, so the ratios
hold. Entries are matched by ``num_sentences`` where a benchmark sweeps
sizes; sizes present in only one file are reported and skipped, so the CI
smoke run can gate a subset of the committed sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

# metric path, direction ("higher" = bigger is better, "lower" = smaller is
# better, "true" = exact boolean that must hold in the current run).
Headline = Tuple[str, str]

HEADLINES: Dict[str, Dict[str, List[Headline]]] = {
    "bench_index_scale": {
        "per_size": [
            ("top_by_overlap.speedup", "higher"),
            ("per_question_loop.speedup", "higher"),
        ],
        "top_level": [],
    },
    "bench_hierarchy": {
        "per_size": [
            ("cleanup.speedup", "higher"),
            ("cleanup.survivors_match", "true"),
            ("benefit_sweep.speedup", "higher"),
            ("benefit_sweep.counts_match", "true"),
        ],
        "top_level": [],
    },
    "bench_crowd": {
        "per_size": [],
        "top_level": [
            ("throughput.speedup", "higher"),
            ("equivalence.rule_set_match", "true"),
            ("equivalence.history_match", "true"),
        ],
    },
    "bench_tenants": {
        "per_size": [
            ("headline.shared_resident_ratio", "lower"),
            ("headline.history_match", "true"),
        ],
        "top_level": [],
    },
    "bench_gateway": {
        "per_size": [],
        "top_level": [
            ("knee.speedup", "higher"),
            ("knee.p95_bounded", "true"),
            ("overload.saw_backpressure", "true"),
            ("overload.graceful", "true"),
        ],
    },
    "bench_fleet": {
        "per_size": [],
        "top_level": [
            ("headline.history_match", "true"),
            ("headline.rss_beats_isolated", "true"),
            ("headline.speedup_ok", "true"),
            ("headline.rss_vs_isolated_ratio", "lower"),
        ],
    },
}


def _lookup(record: Dict[str, Any], dotted: str) -> Optional[Any]:
    value: Any = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def _check_metric(
    label: str,
    path: str,
    direction: str,
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float,
    failures: List[str],
) -> None:
    base_value = _lookup(baseline, path)
    current_value = _lookup(current, path)
    if current_value is None:
        failures.append(f"{label} {path}: missing from the current run")
        return
    if direction == "true":
        status = "ok" if current_value is True else "FAIL"
        print(f"  {label} {path}: {current_value} (must be true) [{status}]")
        if current_value is not True:
            failures.append(f"{label} {path}: expected true, got {current_value!r}")
        return
    if base_value is None:
        print(f"  {label} {path}: {current_value} (no baseline, informational)")
        return
    base_value = float(base_value)
    current_value = float(current_value)
    if direction == "higher":
        threshold = base_value * (1.0 - tolerance)
        ok = current_value >= threshold
        comparison = ">="
    else:
        threshold = base_value * (1.0 + tolerance)
        ok = current_value <= threshold
        comparison = "<="
    status = "ok" if ok else "FAIL"
    print(
        f"  {label} {path}: {current_value:.4g} (baseline {base_value:.4g}, "
        f"must be {comparison} {threshold:.4g}) [{status}]"
    )
    if not ok:
        failures.append(
            f"{label} {path}: {current_value:.4g} regressed past "
            f"{comparison} {threshold:.4g} (baseline {base_value:.4g}, "
            f"tolerance {tolerance:.0%})"
        )


def _diff_metrics(label: str, baseline: Dict[str, Any], current: Dict[str, Any]) -> None:
    """Informational tail-latency diff of two ``metrics`` blocks.

    Benchmarks run with ``--obs`` embed per-phase p50/p95 (see
    ``bench_utils.metrics_block``). Absolute latencies are machine-dependent,
    so this prints the deltas for eyeballing and never fails the gate; it is
    silent when either side lacks a block (e.g. a metrics-disabled gate run).
    """
    base_block = baseline.get("metrics")
    current_block = current.get("metrics")
    if not isinstance(base_block, dict) or not isinstance(current_block, dict):
        return
    shared = sorted(set(base_block) & set(current_block))
    if shared:
        print(f"  {label} tail latency (informational, not gated):")
    for phase in shared:
        base_entry, current_entry = base_block[phase], current_block[phase]
        parts = []
        for quantile in ("p50_ms", "p95_ms"):
            base_q = float(base_entry.get(quantile, 0.0))
            current_q = float(current_entry.get(quantile, 0.0))
            ratio = f" ({current_q / base_q:.2f}x)" if base_q > 0 else ""
            parts.append(f"{quantile} {current_q:.3g} vs {base_q:.3g}{ratio}")
        print(f"    {phase}: " + ", ".join(parts))


def check(baseline: Dict[str, Any], current: Dict[str, Any], tolerance: float) -> List[str]:
    """Compare two bench payloads; returns the list of failure messages."""
    name = baseline.get("benchmark")
    if current.get("benchmark") != name:
        return [
            f"benchmark mismatch: baseline is {name!r}, "
            f"current is {current.get('benchmark')!r}"
        ]
    spec = HEADLINES.get(str(name))
    if spec is None:
        return [f"no headline metrics registered for benchmark {name!r}"]
    failures: List[str] = []
    for path, direction in spec["top_level"]:
        _check_metric(str(name), path, direction, baseline, current, tolerance, failures)
    if spec["per_size"]:
        base_by_size = {
            entry.get("num_sentences"): entry
            for entry in baseline.get("results", [])
        }
        current_by_size = {
            entry.get("num_sentences"): entry
            for entry in current.get("results", [])
        }
        shared = sorted(set(base_by_size) & set(current_by_size))
        if not shared:
            return failures + [
                f"{name}: no common corpus sizes between baseline "
                f"({sorted(base_by_size)}) and current ({sorted(current_by_size)})"
            ]
        skipped = sorted(set(base_by_size) - set(current_by_size))
        if skipped:
            print(f"  {name}: baseline sizes {skipped} not in this run, skipped")
        for size in shared:
            for path, direction in spec["per_size"]:
                _check_metric(
                    f"{name}[{size}]", path, direction,
                    base_by_size[size], current_by_size[size],
                    tolerance, failures,
                )
            _diff_metrics(
                f"{name}[{size}]", base_by_size[size], current_by_size[size]
            )
    else:
        _diff_metrics(str(name), baseline, current)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_*.json threshold file")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly generated bench JSON to gate")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default 0.25)")
    args = parser.parse_args()

    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read bench files: {exc}", file=sys.stderr)
        return 2

    print(f"perf gate: {args.current} vs committed {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    failures = check(baseline, current, args.tolerance)
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
