"""RPR004 — lock discipline: guarded state stays guarded everywhere.

``MetricsRegistry`` and ``SentenceFeaturizer`` (its one-time feature-store
build and row counters) are mutated from concurrent tenants; each owns a
``threading.Lock``/``RLock`` and wraps its mutations in ``with self._lock:``. The failure mode this
checker targets is *partial* discipline: one method mutates an attribute
under the lock, another mutates the same attribute bare, and the race only
shows up as a lost update or a torn snapshot under load.

Per class, the checker:

1. collects the class's lock attributes — ``self.X = threading.Lock()`` /
   ``RLock()`` assignments, plus any ``with self.X:`` context whose attribute
   name mentions "lock" (covers locks injected through the constructor, as
   the per-family metric children do);
2. collects every mutation of a ``self.<attr>`` — assignment, augmented or
   subscript assignment, and mutating container-method calls (``append``,
   ``update``, ``pop``, …) — tagging each as guarded (lexically inside a
   ``with self.<lock>:``) or bare;
3. flags bare mutations of any attribute that is *also* mutated under the
   lock somewhere in the class. Constructors (``__init__``/``__new__``/
   ``__post_init__``) are exempt: the object is not yet shared.

Classes with no lock attribute are skipped entirely — single-threaded state
(``CoverageStore``'s intern maps, for instance) carries no lock on purpose.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, NamedTuple, Optional, Set

from ..diagnostics import Diagnostic
from ..registry import register_checker

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})
_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})


class _Mutation(NamedTuple):
    attr: str
    line: int
    col: int
    method: str
    guarded: bool
    what: str


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attr_root(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is ``self.X`` possibly under subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr(node)


def _lock_attrs(cls: ast.ClassDef, imports) -> Set[str]:
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            resolved = imports.resolve(node.value.func)
            if resolved in _LOCK_FACTORIES:
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        locks.add(attr)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and "lock" in attr.lower():
                    locks.add(attr)
    return locks


def _scan_method(
    method: ast.AST, lock_attrs: Set[str], container_mutators
) -> List[_Mutation]:
    mutations: List[_Mutation] = []

    def record(attr, node, guarded, what):
        mutations.append(_Mutation(
            attr=attr, line=node.lineno, col=node.col_offset,
            method=method.name, guarded=guarded, what=what,
        ))

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not method:
                return  # nested defs run later, outside this lock scope
        if isinstance(node, (ast.With, ast.AsyncWith)):
            holds = any(
                _self_attr(item.context_expr) in lock_attrs
                for item in node.items
            )
            for item in node.items:
                visit(item.context_expr, guarded)
            for child in node.body:
                visit(child, guarded or holds)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None and attr not in lock_attrs:
                    record(attr, node, guarded, "assignment to")
                elif isinstance(target, ast.Subscript):
                    attr = _self_attr_root(target)
                    if attr is not None:
                        record(attr, node, guarded, "subscript write to")
        elif isinstance(node, ast.AugAssign):
            attr = _self_attr(node.target) or _self_attr_root(node.target)
            if attr is not None:
                record(attr, node, guarded, "augmented assignment to")
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in container_mutators:
                attr = _self_attr(node.func.value)
                if attr is not None:
                    record(
                        attr, node, guarded,
                        f"mutating .{node.func.attr}() call on",
                    )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    for statement in method.body:
        visit(statement, False)
    return mutations


@register_checker("RPR004")
def check_lock_discipline(ctx) -> Iterable[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs(cls, ctx.imports)
        if not lock_attrs:
            continue
        mutations: List[_Mutation] = []
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mutations.extend(
                    _scan_method(node, lock_attrs, ctx.config.container_mutators)
                )
        guarded_attrs = {m.attr for m in mutations if m.guarded}
        lock_label = "/".join(f"self.{name}" for name in sorted(lock_attrs))
        for mutation in mutations:
            if mutation.guarded or mutation.attr not in guarded_attrs:
                continue
            if mutation.method in _CONSTRUCTORS:
                continue
            diagnostics.append(Diagnostic(
                code="RPR004", path=ctx.path, line=mutation.line,
                col=mutation.col,
                message=(
                    f"{cls.name}.{mutation.method}() has unguarded "
                    f"{mutation.what} self.{mutation.attr}, which other "
                    f"methods mutate under {lock_label}"
                ),
                suggestion=(
                    f"wrap the mutation in `with {lock_label}:` so every "
                    f"write to self.{mutation.attr} observes the same lock"
                ),
            ))
    return diagnostics
