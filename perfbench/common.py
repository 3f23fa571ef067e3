"""Helpers shared by the library and gateway arms: statistics, the
environment record, memory read from ``/proc`` and the per-layer table."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything a run writes (ready files, checkpoints, temp files, the digest
# record) lives here, inside the checkout and outside the benchmark's files.
WORK = ROOT / ".perfbench_work"

# Percentiles tried for the tail, highest first: the tail is the highest
# one with at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return TAIL_LADDER[-1]


def wait_summary(waits_s: Sequence[float]) -> Dict[str, float]:
    """p50 and tail of answer-to-next-question waits, in milliseconds."""
    q = tail_percentile(len(waits_s))
    return {
        "p50_ms": 1000.0 * percentile(waits_s, 50.0),
        "tail_ms": 1000.0 * percentile(waits_s, q),
        "tail_percentile": q,
        "samples": len(waits_s),
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def history_digest(history: Iterable[Tuple[str, str, bool]]) -> str:
    """sha256 over the ordered (rule, grammar, answer) question history."""
    payload = json.dumps([list(item) for item in history])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def questions_to_recall(recalls: Sequence[float], target: float = 0.8) -> int:
    """1-based question count at which recall first reaches ``target``.

    A session that never reaches it reads one more than it asked.
    """
    for index, recall in enumerate(recalls, start=1):
        if recall >= target:
            return index
    return len(recalls) + 1


def recall_never_decreases(recalls: Sequence[float]) -> bool:
    return all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))


def source_digest() -> str:
    """Digest of the program's sources, so recorded histories are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_recorded_digest(key: str, digest: str) -> bool:
    """True unless an earlier run of the same key recorded another digest."""
    record_path = WORK / "history-digests.json"
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    previous = record.get(key)
    if previous is None:
        record[key] = digest
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, record_path)
        return True
    return previous == digest


# ------------------------------------------------------------------ memory
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, found by scanning ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


# ------------------------------------------------------------- environment
def calibration_ms() -> Dict[str, float]:
    """A fixed numpy matmul and a fixed pure-Python loop, best of three.

    Context for reading absolute times across machines; not a metric.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    a @ b  # the first product pays for thread-pool start-up
    matmul, loop = [], []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(20):
            a @ b
        matmul.append(time.perf_counter() - start)
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        loop.append(time.perf_counter() - start)
    return {"matmul_ms": 1000.0 * min(matmul), "python_loop_ms": 1000.0 * min(loop)}


def environment() -> Dict[str, object]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration": calibration_ms(),
    }


def child_env() -> Dict[str, str]:
    """Environment for processes that host the program: its sources on
    ``PYTHONPATH`` and temporary files inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


# ------------------------------------------------------------ layer table
def print_layer_table(title: str, self_ms: Dict[str, float],
                      total_ms: float) -> None:
    """Self time per layer within ``total_ms``, plus what no wrapped call
    covers."""
    print(f"  {title} (self time of {total_ms:.1f} ms)")
    attributed = 0.0
    for layer, value in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        attributed += value
        share = value / total_ms if total_ms else 0.0
        print(f"    {layer:<14} {value:10.1f} ms  {100 * share:5.1f}%")
    rest = total_ms - attributed
    share = rest / total_ms if total_ms else 0.0
    print(f"    {'unattributed':<14} {rest:10.1f} ms  {100 * share:5.1f}%")


def format_metric(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:14.4f} {unit:<6} {note}".rstrip()
