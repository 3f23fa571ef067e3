"""Fork-isolation helpers shared by the memory-measuring benchmarks.

``bench_tenants.py`` and ``bench_fleet.py`` need each measurement arm to run
in its own forked child so ``ru_maxrss`` reflects that arm alone; this module
holds the one implementation of that protocol (fork + pipe, error
payloads surfaced to the parent, inline fallback for sandboxes without fork).
"""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict

from repro.obs import get_registry


def peak_rss_bytes() -> int:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _run_child(pipe, target: Callable[..., Dict[str, object]], args) -> None:
    try:
        pipe.send(target(*args))
    except BaseException as exc:  # surface the failure to the parent
        pipe.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        pipe.close()


def run_isolated(target: Callable[..., Dict[str, object]], *args) -> Dict[str, object]:
    """Run ``target(*args)`` in a forked child; returns its payload dict.

    The payload gains an ``rss_isolated`` flag: True when the arm ran in its
    own child (clean RSS), False when no fork support existed and it ran
    inline. A child that dies without reporting (e.g. OOM-killed) raises —
    that IS the benchmark's answer for the arm; the workload is never
    silently re-run inline in the parent.

    Each arm's wall time lands in the parent registry's
    ``bench_phase_seconds{phase="isolated_<target>"}`` histogram (the child's
    own metrics die with the fork) and rides in the payload as
    ``wall_seconds``, so memory benchmarks get tail-latency series for free
    when observability is enabled.
    """
    observe = get_registry().histogram(
        "bench_phase_seconds", "Wall-clock seconds per benchmark phase",
        labels=("phase",),
    ).labels(phase=f"isolated_{target.__name__}")
    start = time.perf_counter()
    try:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        parent_end, child_end = context.Pipe(duplex=False)
        process = context.Process(target=_run_child, args=(child_end, target, args))
        process.start()
    except (ImportError, OSError, PermissionError):
        payload = target(*args)
        payload["rss_isolated"] = False
    else:
        child_end.close()
        try:
            payload = parent_end.recv()
        except EOFError:
            process.join()
            raise RuntimeError(
                f"benchmark arm {target.__name__}{args!r} crashed (exit code "
                f"{process.exitcode}); likely out of memory"
            ) from None
        process.join()
        payload["rss_isolated"] = True
    elapsed = time.perf_counter() - start
    observe.observe(elapsed)
    payload["wall_seconds"] = round(elapsed, 4)
    if "error" in payload:
        raise RuntimeError(f"benchmark arm failed: {payload['error']}")
    return payload
