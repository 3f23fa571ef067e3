"""Gateway arm: ``repro serve-http`` as a subprocess, driven over HTTP.

One closed-loop annotator thread per tenant runs propose -> answer cycles
with no think time and POSTs a checkpoint every ``CHECKPOINT_EVERY``
committed answers. The annotator says YES when at least 80% of the shown
sentences are gold positives, the paper's precision threshold applied to
what an annotator sees.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Set

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

CHECKPOINT_EVERY = 50
PRECISION_THRESHOLD = 0.8
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 150.0


class Failure(Exception):
    """A request that did not return a well-formed 200."""


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            if response.status != 200:
                raise Failure(f"{url}: HTTP {response.status}")
            body = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        raise Failure(f"{url}: HTTP {exc.code}") from exc
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise Failure(f"{url}: {exc!r}") from exc
    if not isinstance(body, dict):
        raise Failure(f"{url}: body is not an object")
    return body


class Annotator(threading.Thread):
    """Closed-loop client for one tenant; records every timing and check."""

    def __init__(self, url: str, tenant: str, gold: Set[int],
                 spawned_at: float) -> None:
        super().__init__(name=f"annotator-{tenant}", daemon=True)
        self.base = f"{url}/tenants/{tenant}"
        self.tenant = tenant
        self.gold = gold
        self.spawned_at = spawned_at
        self.first_question_s: Optional[float] = None
        self.waits: List[float] = []
        self.request_ms: Dict[str, List[float]] = {
            "propose": [], "answer": [], "checkpoint": []}
        self.recalls: List[float] = []
        self.checkpoints: List[str] = []
        self.committed = 0
        self.server_committed = -1
        self.accepted = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.order_ok = True
        self.loop_start = 0.0
        self.loop_end = 0.0

    def _call(self, op: str, payload: dict) -> dict:
        self.attempted += 1
        start = time.perf_counter()
        body = post(f"{self.base}/{op}", payload)
        self.request_ms[op].append(1000.0 * (time.perf_counter() - start))
        return body

    def run(self) -> None:
        try:
            self._loop()
        except Failure as exc:
            self.failed += 1
            self.errors.append(str(exc))
        except Exception as exc:  # the harness must report, not hang
            self.failed += 1
            self.errors.append(repr(exc))
        self.loop_end = time.perf_counter()

    def _loop(self) -> None:
        self.loop_start = time.perf_counter()
        body = self._call("propose", {"annotator_id": 0})
        self.first_question_s = time.perf_counter() - self.spawned_at
        last_number = 0
        while True:
            assignment = body.get("assignment")
            if assignment is None:
                if not body.get("done"):
                    raise Failure(f"{self.tenant}: no question and not done")
                return
            sample_ids = assignment["sample_ids"]
            positives = sum(1 for i in sample_ids if i in self.gold)
            useful = bool(sample_ids) and (
                positives >= PRECISION_THRESHOLD * len(sample_ids))
            cycle = time.perf_counter()
            answer = self._call("answer", {
                "ticket_id": assignment["ticket_id"], "annotator_id": 0,
                "is_useful": useful})
            if not answer.get("committed") or answer.get("record") is None:
                raise Failure(f"{self.tenant}: answer was not committed")
            record = answer["record"]
            number = record["question_number"]
            if number <= last_number:
                self.order_ok = False
            last_number = number
            self.committed += 1
            self.accepted += int(useful)
            self.recalls.append(float(record["recall"]))
            self.server_committed = int(answer["questions_committed"])
            if self.committed % CHECKPOINT_EVERY == 0:
                saved = self._call("checkpoint", {
                    "name": f"{self.tenant}-{self.committed}"})
                self.checkpoints.append(saved["path"])
                self.server_committed = int(saved["questions_committed"])
            body = self._call("propose", {"annotator_id": 0})
            self.waits.append(time.perf_counter() - cycle)


def _wait_ready(proc: subprocess.Popen, ready_file: str) -> dict:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"serve-http exited early ({proc.returncode})")
        try:
            with open(ready_file, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            time.sleep(0.005)
    raise RuntimeError("serve-http did not become ready")


def _scrape(url: str) -> Dict[str, Dict[str, object]]:
    from repro.obs.prometheus import parse_prometheus_text

    with urllib.request.urlopen(f"{url}/metrics", timeout=REQUEST_TIMEOUT_S) as response:
        return parse_prometheus_text(response.read().decode("utf-8"))


def _stop(proc: subprocess.Popen) -> int:
    """SIGTERM drain; kill whatever of the server's tree outlives it."""
    tree = {pid: _cmdline(pid) for pid in common.descendants(proc.pid)}
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=90)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    # A pid whose command line changed was reused by another process.
    survivors = [pid for pid, cmdline in tree.items()
                 if cmdline and _cmdline(pid) == cmdline]
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            _cmdline(pid) for pid in survivors):
        time.sleep(0.05)
    return code


def _cmdline(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def run_session(spec: dict, gold: Set[int], trace: bool, tag: str) -> dict:
    """Spawn one server, drive every tenant to its budget, drain it."""
    workdir = common.WORK / f"gateway-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ready_file = str(workdir / "ready.json")
    checkpoint_dir = str(workdir / "checkpoints")
    command = [sys.executable, "-m", "repro", "serve-http",
               "--dataset", spec["dataset"],
               "--num-sentences", str(spec["num_sentences"]),
               "--tenants", str(spec["tenants"]),
               "--budget", str(spec["budget"]),
               "--workers", str(spec["workers"]),
               "--seed", str(spec["seed"]),
               "--port", "0", "--ready-file", ready_file,
               "--checkpoint-dir", checkpoint_dir]
    with open(workdir / "server.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                env=common.child_env(), cwd=str(workdir))
    try:
        ready = _wait_ready(proc, ready_file)
        setup_s = time.perf_counter() - start
        url = ready["url"]
        annotators = [Annotator(url, tenant, gold, start)
                      for tenant in ready["tenants"]]
        for annotator in annotators:
            annotator.start()
        for annotator in annotators:
            annotator.join(timeout=170)
        if any(annotator.is_alive() for annotator in annotators):
            raise RuntimeError("an annotator did not finish")
        loop_s = (max(a.loop_end for a in annotators)
                  - min(a.loop_start for a in annotators))
        children = common.descendants(proc.pid)
        server_rss = common.vm_hwm_mb(proc.pid)
        worker_rss = [common.vm_hwm_mb(pid) for pid in children]
        metrics = _scrape(url) if trace else {}
    finally:
        exit_code = _stop(proc)
    from repro import DarwinEngine

    readable = 0
    for annotator in annotators:
        for path in annotator.checkpoints:
            try:
                DarwinEngine.describe_checkpoint(path)
                readable += 1
            except Exception as exc:
                annotator.errors.append(f"checkpoint {path}: {exc!r}")
    if exit_code == 0 and not any(a.errors for a in annotators):
        shutil.rmtree(workdir, ignore_errors=True)  # else keep server.log
    return {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "annotators": annotators,
        "server_rss_mb": server_rss,
        "worker_rss_mb": worker_rss,
        "metrics": metrics,
        "exit_code": exit_code,
        "checkpoints_readable": readable,
    }


# ------------------------------------------------------- /metrics readers
def family_samples(metrics: dict, family: str) -> Dict[tuple, float]:
    return dict(metrics.get(family, {}).get("samples", {}))


def histogram_totals(metrics: dict, family: str, **match: str) -> tuple:
    """(sum seconds, count) over every labelled child matching ``match``."""
    total = count = 0.0
    for (name, labels), value in family_samples(metrics, family).items():
        label_map = dict(labels)
        if any(label_map.get(k) != v for k, v in match.items()):
            continue
        if name == f"{family}_sum":
            total += value
        elif name == f"{family}_count":
            count += value
    return total, count


def histogram_mean_ms(metrics: dict, family: str, **match: str) -> float:
    total, count = histogram_totals(metrics, family, **match)
    return 1000.0 * total / count if count else 0.0


def sample_total(metrics: dict, family: str, **match: str) -> float:
    """Sum of a counter's or gauge's samples matching ``match``."""
    total = 0.0
    for (name, labels), value in family_samples(metrics, family).items():
        label_map = dict(labels)
        if all(label_map.get(k) == v for k, v in match.items()):
            total += value
    return total
