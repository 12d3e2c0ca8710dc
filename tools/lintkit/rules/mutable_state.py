"""RP501/RP502 — shared mutable state in hot-path modules.

The parallel executor rebuilds a world replica per worker and resets
per-unit counters so serial and parallel runs are bit-identical.
Any *other* mutable state shared at module or class level silently
accumulates across work units in one process while starting fresh in
another — exactly the asymmetry that broke ``_dns_fake_cursor`` (a
rotating-fake-address cursor that was never rewound per unit).

* RP501 — mutable class-level defaults: a list/dict/set literal (or
  bare ``list()``/``dict()``/``set()``/``bytearray()`` call, or
  ``field(default=<mutable>)``) assigned at class scope is shared by
  every instance; in a dataclass it is also a runtime ``ValueError``
  for the common types. Use ``field(default_factory=...)``.
* RP502 — module-level mutable globals: a list/dict/set/bytearray
  bound at module scope to a non-constant-cased name, or any name
  rebound via a ``global`` statement. Constants (``UPPER_CASE`` names,
  frozensets, tuples) are exempt — the rule targets state, not tables.

Identifier allocation (IP IDs, ephemeral ports, sequential injection
IDs, the fake-DNS cursor) lives on
:class:`repro.netmodel.netctx.NetContext`, owned by the simulator and
rewound per work unit — there are no sanctioned module-global counters
left, and therefore no RP502 pragmas in the allocator modules.

* RP503 — module-global counters in the NetContext-owned modules:
  in ``repro.netmodel.packet``, ``repro.netsim.batch``,
  ``repro.netsim.tcpstack``, ``repro.devices.actions`` (and ``netctx``
  itself), *any* module-level binding of a non-constant-cased name to a
  call or mutable value — ``itertools.count(...)``, a cursor list, a
  stateful object — or any ``global`` rebind, is flagged. This is the
  guard that keeps the old counter ritual from creeping back in (and
  keeps the packet plane's path-plan cache on the engine instance,
  where ``Simulator.reset`` governs it).

Scope (RP501/RP502): ``repro.netmodel``, ``repro.netsim``,
``repro.devices``, ``repro.services``, ``repro.core`` — everything a
measurement walks per probe.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..base import FileContext, FileRule, Violation, register
from .rng import in_scope

SCOPE_PREFIXES = (
    "repro.netmodel",
    "repro.netsim",
    "repro.devices",
    "repro.services",
    "repro.core",
)

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _is_constant_name(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper()


def _field_mutable_default(node: ast.AST) -> bool:
    """``field(default=[...])`` — mutable default smuggled through field()."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "field"
    ):
        return False
    return any(
        kw.arg == "default" and _is_mutable_literal(kw.value)
        for kw in node.keywords
    )


class _StateVisitor(ast.NodeVisitor):
    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []
        self._class_depth = 0
        self._func_depth = 0

    # -- class-level defaults (RP501) ---------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        for child in node.body:
            value = None
            targets: List[ast.expr] = []
            if isinstance(child, ast.Assign):
                value, targets = child.value, child.targets
            elif isinstance(child, ast.AnnAssign):
                value, targets = child.value, [child.target]
            if value is None:
                continue
            # Constant-cased class attrs are lookup tables, not state.
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names and all(_is_constant_name(n) for n in names):
                continue
            if _is_mutable_literal(value) or _field_mutable_default(value):
                self.violations.append(
                    Violation(
                        rule_id="RP501",
                        path=self.ctx.relative,
                        line=child.lineno,
                        message=(
                            f"mutable class-level default in {node.name} — "
                            "shared across every instance (and across worker "
                            "world replicas); use field(default_factory=...) "
                            "or build it in __init__"
                        ),
                    )
                )
        self.generic_visit(node)
        self._class_depth -= 1

    # -- module-level mutable globals (RP502) -------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_module_assign(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_module_assign(node, [node.target], node.value)
        self.generic_visit(node)

    def _check_module_assign(self, node, targets, value) -> None:
        if self._class_depth or self._func_depth:
            return
        if not _is_mutable_literal(value):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__" or _is_constant_name(target.id):
                continue
            self.violations.append(
                Violation(
                    rule_id="RP502",
                    path=self.ctx.relative,
                    line=node.lineno,
                    message=(
                        f"module-level mutable global {target.id!r} — "
                        "process-wide state breaks per-worker replica "
                        "isolation; move it into the world/simulator, or "
                        "add a per-unit reset hook and a justified pragma"
                    ),
                )
            )

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.violations.append(
                Violation(
                    rule_id="RP502",
                    path=self.ctx.relative,
                    line=node.lineno,
                    message=(
                        f"'global {name}' rebinds module state from a "
                        "function — process-wide state breaks per-worker "
                        "replica isolation; justify with a pragma naming "
                        "the per-unit reset hook"
                    ),
                )
            )

    # -- function bodies are not module scope -------------------------

    def _descend_function(self, node) -> None:
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_FunctionDef(self, node):  # noqa: N802
        self._descend_function(node)

    def visit_AsyncFunctionDef(self, node):  # noqa: N802
        self._descend_function(node)


class _StateRuleBase(FileRule):
    def applies_to(self, ctx: FileContext) -> bool:
        return in_scope(ctx, SCOPE_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        visitor = _StateVisitor(ctx)
        visitor.visit(ctx.tree)
        return [v for v in visitor.violations if v.rule_id == self.id]


@register
class MutableClassDefaultRule(_StateRuleBase):
    id = "RP501"
    name = "mutable-class-default"
    description = (
        "No mutable class-level / dataclass defaults in hot-path modules "
        "(shared across instances and worker replicas)."
    )


@register
class MutableModuleGlobalRule(_StateRuleBase):
    id = "RP502"
    name = "mutable-module-global"
    description = (
        "No module-level mutable globals or 'global' rebinding in hot-path "
        "modules without a per-unit reset hook and justified pragma."
    )


# -- RP503: the NetContext modules must stay counter-free -------------------

NETCTX_MODULES = (
    "repro.netmodel.netctx",
    "repro.netmodel.packet",
    "repro.netsim.batch",
    "repro.netsim.tcpstack",
    "repro.devices.actions",
)


class _CounterVisitor(ast.NodeVisitor):
    """Module-level state-like bindings: calls, mutable values, globals.

    Stricter than RP502 on purpose: in the allocator modules even an
    ``itertools.count(...)`` or a stateful helper object bound to a
    non-constant name is a reintroduced module-global counter.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []
        self._depth = 0

    def _flag(self, node, name: str, what: str) -> None:
        self.violations.append(
            Violation(
                rule_id="RP503",
                path=self.ctx.relative,
                line=node.lineno,
                message=(
                    f"{what} {name!r} in a NetContext-owned module — "
                    "identifier allocation belongs on NetContext "
                    "(owned by the simulator, reset per unit), not in "
                    "module globals"
                ),
            )
        )

    def _check_binding(self, node, targets, value) -> None:
        if self._depth or value is None:
            return
        if not (_is_mutable_literal(value) or isinstance(value, ast.Call)):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__" or _is_constant_name(target.id):
                continue
            self._flag(node, target.id, "module-level stateful binding")

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_binding(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_binding(node, [node.target], node.value)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self._flag(node, name, "'global' rebind of")

    def _descend(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_FunctionDef(self, node):  # noqa: N802
        self._descend(node)

    def visit_AsyncFunctionDef(self, node):  # noqa: N802
        self._descend(node)

    def visit_ClassDef(self, node):  # noqa: N802
        self._descend(node)


@register
class NetContextCounterRule(FileRule):
    id = "RP503"
    name = "netctx-module-counter"
    description = (
        "No module-global counters (or any stateful module-level binding) "
        "in the NetContext-owned allocator modules; allocation state lives "
        "on NetContext."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return in_scope(ctx, NETCTX_MODULES)

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        visitor = _CounterVisitor(ctx)
        visitor.visit(ctx.tree)
        return visitor.violations
