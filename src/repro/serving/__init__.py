"""Multi-tenant serving: N Darwin engines over one shared read-only arena.

The Darwin loop is per-user mutable state (rules, hierarchy, classifier
weights, traversal pools, RNG streams) over corpus-wide immutable state (the
index and its coverage columns) — exactly the split a multi-tenant server
needs. :class:`TenantPool` attaches the immutable substrate once — a
digest-verified read-only :class:`~repro.index.arena.CoverageArena`, the
sealed :class:`~repro.index.CorpusIndex`, and one shared featurizer with its
frozen feature matrix — and
spawns per-tenant :class:`~repro.engine.DarwinEngine`\\ s whose coverage
writes land in a copy-on-write
:class:`~repro.index.overlay.OverlayCoverageStore`, so shared resident bytes
stay O(one tenant) no matter how many tenants attach
(``benchmarks/bench_tenants.py``).

:func:`serve` drives many tenants concurrently on one asyncio event loop,
one :class:`~repro.crowd.CrowdCoordinator` per tenant.
"""

from .pool import Tenant, TenantPool
from .server import ServeReport, TenantServeResult, serve, serve_tenants

__all__ = [
    "Tenant",
    "TenantPool",
    "ServeReport",
    "TenantServeResult",
    "serve",
    "serve_tenants",
]
