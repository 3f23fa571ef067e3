"""RPR003 — sealed-array immutability: never mutate interned columns.

``CoverageView.ids``, arena ``values_slice`` results, the ``NodeTable``
interval/CSR columns and a corpus's ``TokenColumn.ids`` / ``.offsets`` are
sealed (``setflags(write=False)``) and shared
zero-copy across nodes, checkpoints, and tenants; mutating one corrupts
every reader with no error at the mutation site (or, where sealing is
enforced, raises only at runtime on the one path a test happens to drive).

The checker runs an intra-function, flow-insensitive taint pass:

* **sources** — reads of sealed attributes (``view.ids``, ``table.pre`` …),
  calls returning sealed arrays (``values_slice``, ``as_id_array``), any
  array the function itself froze with ``setflags(write=False)``, and basic
  slices of tainted values (numpy slicing aliases memory);
* **purifiers** — ``.copy()`` / ``.astype()`` / ``np.array(...)`` /
  ``.tolist()`` and arithmetic expressions, all of which allocate;
* **sinks** — subscript assignment, augmented assignment, in-place ndarray
  methods (``sort``/``fill``/``resize``/…), ``np.copyto``-style out-arg
  kernels, and un-sealing via ``setflags(write=True)``.

Fancy (array/bool) indexing copies in numpy, so ``ids[mask]`` results are
deliberately *not* tainted — only ``ids[1:]``-style slices alias.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..diagnostics import Diagnostic
from ..registry import register_checker

_PURIFIER_METHODS = frozenset({"copy", "astype", "tolist", "tobytes"})
_NP_COPYING = frozenset({"array", "unique", "sort", "concatenate"})
_NP_OUT_MUTATORS = frozenset({"copyto", "put", "place", "putmask"})

_SUGGESTION = (
    "operate on a copy (arr.copy()) or build a fresh array — sealed "
    "columns are shared zero-copy across views, checkpoints and tenants"
)


class _TaintPass:
    """One function's linear taint walk (branches are over-approximated:
    bodies are processed in order and names, once tainted, stay tainted
    until reassigned to a clean value)."""

    def __init__(self, ctx, fn: ast.AST) -> None:
        self.ctx = ctx
        self.config = ctx.config
        self.fn = fn
        self.tainted: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------- taint model
    def is_tainted(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return node.attr in self.config.sealed_attrs
        if isinstance(node, ast.Subscript):
            # Basic slices alias the parent's memory; fancy indexing copies.
            if isinstance(node.slice, ast.Slice):
                return self.is_tainted(node.value)
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in _PURIFIER_METHODS:
                    return False
                if func.attr in self.config.sealed_calls:
                    return True
                if func.attr == "asarray" and node.args:
                    # np.asarray returns its argument unchanged when the
                    # dtype already matches — alias, not copy.
                    return self.is_tainted(node.args[0])
                return False
            if isinstance(func, ast.Name):
                if func.id in self.config.sealed_calls:
                    return True
            return False
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, ast.BoolOp):
            return any(self.is_tainted(value) for value in node.values)
        if isinstance(node, (ast.NamedExpr,)):
            return self.is_tainted(node.value)
        return False

    def describe(self, node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return f".{node.attr}"
        if isinstance(node, ast.Subscript):
            return self.describe(node.value)
        return "sealed value"

    def emit(self, node: ast.AST, what: str, target: ast.AST) -> None:
        self.diagnostics.append(Diagnostic(
            code="RPR003", path=self.ctx.path, line=node.lineno,
            col=node.col_offset,
            message=(
                f"{what} on sealed array {self.describe(target)!r} — "
                f"interned/sealed columns must never be written"
            ),
            suggestion=_SUGGESTION,
        ))

    # ---------------------------------------------------------- target helpers
    def _subscript_root_tainted(self, target: ast.Subscript) -> bool:
        base = target.value
        while isinstance(base, ast.Subscript):
            base = base.value
        return self.is_tainted(base)

    def _bind(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        """Apply assignment taint transfer for one target."""
        if isinstance(target, ast.Name):
            if value is not None and self.is_tainted(value):
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self._bind(sub_target, sub_value)
            else:
                for sub_target in target.elts:
                    self._bind(sub_target, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, None)

    # ------------------------------------------------------------- statements
    def run(self) -> List[Diagnostic]:
        body = getattr(self.fn, "body", [])
        for statement in body:
            self._statement(statement)
        return self.diagnostics

    def _statement(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested functions get their own pass
        if isinstance(node, ast.Assign):
            self._check_expression(node.value)
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    if self._subscript_root_tainted(target):
                        self.emit(node, "subscript assignment", target)
                else:
                    self._bind(target, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._check_expression(node.value)
                if isinstance(node.target, ast.Name):
                    self._bind(node.target, node.value)
            return
        if isinstance(node, ast.AugAssign):
            self._check_expression(node.value)
            target = node.target
            if isinstance(target, ast.Name) and target.id in self.tainted:
                self.emit(node, "in-place augmented assignment", target)
            elif isinstance(target, ast.Subscript) and (
                self._subscript_root_tainted(target)
            ):
                self.emit(node, "in-place augmented assignment", target)
            elif isinstance(target, ast.Attribute) and (
                target.attr in self.config.sealed_attrs
            ):
                self.emit(node, "in-place augmented assignment", target)
            return
        if isinstance(node, ast.Expr):
            self._check_expression(node.value)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_expression(node.iter)
            self._bind(node.target, None)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._check_expression(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, None)
            for child in node.body:
                self._statement(child)
            return
        if isinstance(node, ast.If):
            self._check_expression(node.test)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, (ast.While,)):
            self._check_expression(node.test)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, ast.Try):
            for child in (
                node.body
                + [s for handler in node.handlers for s in handler.body]
                + node.orelse
                + node.finalbody
            ):
                self._statement(child)
            return
        if isinstance(node, ast.Return) and node.value is not None:
            self._check_expression(node.value)
            return
        # Remaining statement kinds (Raise, Assert, Delete, Pass, …): scan
        # any embedded expressions for mutating calls.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._check_expression(child)

    # ------------------------------------------------------------- expressions
    def _check_expression(self, node: ast.AST) -> None:
        for call in [
            n for n in ast.walk(node) if isinstance(n, ast.Call)
        ]:
            func = call.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if func.attr in self.config.array_mutators and self.is_tainted(
                    receiver
                ):
                    self.emit(call, f"in-place .{func.attr}() call", receiver)
                elif func.attr == "setflags":
                    frozen_here = any(
                        keyword.arg == "write"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                        for keyword in call.keywords
                    )
                    if frozen_here and isinstance(receiver, ast.Name):
                        # A locally sealed array is a taint source from this
                        # point on: writing what this function just froze is
                        # the bug the runtime would only catch later.
                        self.tainted.add(receiver.id)
                    elif self.is_tainted(receiver):
                        for keyword in call.keywords:
                            if (
                                keyword.arg == "write"
                                and isinstance(keyword.value, ast.Constant)
                                and keyword.value.value
                            ):
                                self.emit(
                                    call, "un-sealing setflags(write=True)",
                                    receiver,
                                )
                elif func.attr in _NP_OUT_MUTATORS and call.args:
                    if self.is_tainted(call.args[0]):
                        self.emit(
                            call, f"np.{func.attr}() into", call.args[0]
                        )
            elif isinstance(func, ast.Name):
                if func.id in _NP_OUT_MUTATORS and call.args and (
                    self.is_tainted(call.args[0])
                ):
                    self.emit(call, f"{func.id}() into", call.args[0])

@register_checker("RPR003")
def check_sealed_arrays(ctx) -> Iterable[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            diagnostics.extend(_TaintPass(ctx, node).run())
    return diagnostics
