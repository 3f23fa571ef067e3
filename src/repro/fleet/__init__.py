"""``repro.fleet`` — cross-process serving: supervisor, workers, pipe RPC.

One supervisor process builds the shared substrate (sealed index, frozen
read-only coverage arena, fitted featurizer + its frozen feature matrix),
detaches the arena mapping, and forks N single-threaded worker processes
that each **reopen the arena by path** and host a disjoint partition of
tenants in their own :class:`~repro.serving.TenantPool`. The supervisor
routes gateway requests over stdlib pipe RPC, respawns crashed workers from
autosaved tenant checkpoints, and migrates tenants between workers by
shipping their overlay checkpoint.
"""

from .rpc import WorkerClient, WorkerDiedError
from .supervisor import FleetSupervisor
from .worker import process_memory_bytes, worker_main

__all__ = [
    "FleetSupervisor",
    "WorkerClient",
    "WorkerDiedError",
    "process_memory_bytes",
    "worker_main",
]
