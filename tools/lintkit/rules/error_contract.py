"""RP901-RP902 — the typed-error contract on user-reachable paths.

The CLI promises "a clear message and exit 2, never a traceback" for
anything a user can cause with bad inputs or a corrupt run directory.
That promise rests on two conventions these passes enforce:

* RP901 — the persistence, plan and longitudinal layers
  (``repro.persist``, ``repro.codec``, ``repro.store.*``,
  ``repro.geo.drift``, ``repro.netsim.faults``) raise only their
  declared typed errors (``PersistError``, ``DriftError``,
  ``FaultPlanError``). A raw ``ValueError`` escaping from a load or
  spec path is a traceback in the user's terminal.
  Programmer-contract raises (impossible-by-construction dispatch
  arms) are waived with a justified pragma.
* RP902 — the CLI entry point (``main`` in ``repro.cli``) must route
  every typed error through the exit-2 handler: each declared error
  type needs an ``except`` clause, and each such clause must actually
  ``return 2`` / ``sys.exit(2)``. Every subcommand dispatches through
  ``main``, so one handler covers all of them — but only if it lists
  every typed error.

RP901 resolves exception names through the phase-1 index, so an
aliased or re-exported ``PersistError`` still satisfies the contract
while a same-named local impostor in an unrelated module does not.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..base import FileContext, FileRule, IndexRule, Violation, register
from ..index import ProjectIndex

#: module (exact, or prefix for packages) -> it is in RP901 scope.
TYPED_ERROR_SCOPES: Tuple[str, ...] = (
    "repro.persist",
    "repro.codec",
    "repro.store",
    "repro.geo.drift",
    "repro.netsim.faults",
)

#: The canonical typed errors, by absolute dotted name.
TYPED_ERRORS: Dict[str, str] = {
    "PersistError": "repro.persist.PersistError",
    "DriftError": "repro.geo.drift.DriftError",
    "FaultPlanError": "repro.netsim.faults.FaultPlanError",
}

#: The CLI module and its entry point.
CLI_MODULE = "repro.cli"
CLI_ENTRY = "main"

#: Typed errors main() must handle with an exit-2 clause.
REQUIRED_HANDLED: Tuple[str, ...] = (
    "PersistError",
    "DriftError",
    "FaultPlanError",
)


def _in_scope(module: Optional[str]) -> bool:
    if not module:
        return False
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in TYPED_ERROR_SCOPES
    )


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@register
class TypedErrorsOnly(IndexRule):
    id = "RP901"
    name = "typed-errors-only"
    description = (
        "persist/codec/store/geo.drift/netsim.faults raise only "
        "PersistError/DriftError/FaultPlanError on user-reachable paths "
        "(raw built-ins become CLI tracebacks)."
    )

    def check_index(
        self, index: ProjectIndex, contexts: Sequence[FileContext]
    ) -> Iterable[Violation]:
        allowed = set(TYPED_ERRORS.values())
        allowed_names = set(TYPED_ERRORS)
        violations: List[Violation] = []
        for ctx in contexts:
            if not _in_scope(ctx.module):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                dotted = _dotted(target)
                if dotted is None:
                    continue  # raise of a computed expression — rare
                resolved = index.resolve_symbol(ctx.module, dotted)
                if resolved in allowed:
                    continue
                # Unresolvable names (no import table in a partial
                # fixture tree) still pass on the bare class name.
                if resolved is None and dotted.split(".")[-1] in allowed_names:
                    continue
                violations.append(
                    Violation(
                        rule_id=self.id,
                        path=ctx.relative,
                        line=node.lineno,
                        message=(
                            f"raises {dotted} — this layer's contract is "
                            f"{sorted(allowed_names)} only (wrap it, or "
                            "waive a programmer-contract raise with a "
                            "justified pragma)"
                        ),
                    )
                )
        return violations


@register
class CliRoutesTypedErrors(FileRule):
    id = "RP902"
    name = "cli-error-routing"
    description = (
        "The CLI entry point must catch every typed error "
        "(PersistError, DriftError, FaultPlanError) and turn it into "
        "message + exit 2."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == CLI_MODULE

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        entry: Optional[ast.FunctionDef] = None
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == CLI_ENTRY:
                entry = node
        if entry is None:
            return [
                Violation(
                    rule_id=self.id,
                    path=ctx.relative,
                    line=1,
                    message=(
                        f"no {CLI_ENTRY}() entry point found to route "
                        "typed errors through"
                    ),
                )
            ]
        handled: Dict[str, ast.ExceptHandler] = {}
        for node in ast.walk(entry):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for type_node in types:
                dotted = _dotted(type_node)
                if dotted is not None:
                    handled.setdefault(dotted.split(".")[-1], node)

        violations: List[Violation] = []
        for required in REQUIRED_HANDLED:
            handler = handled.get(required)
            if handler is None:
                violations.append(
                    Violation(
                        rule_id=self.id,
                        path=ctx.relative,
                        line=entry.lineno,
                        message=(
                            f"{CLI_ENTRY}() does not catch {required} — "
                            "a user-reachable one tracebacks instead of "
                            "exiting 2"
                        ),
                    )
                )
            elif not self._exits_two(handler):
                violations.append(
                    Violation(
                        rule_id=self.id,
                        path=ctx.relative,
                        line=handler.lineno,
                        message=(
                            f"the {required} handler must report and "
                            "exit 2 (return 2 or sys.exit(2))"
                        ),
                    )
                )
        return violations

    @staticmethod
    def _exits_two(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value == 2
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and _dotted(node.func) in {"sys.exit", "exit"}
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 2
            ):
                return True
        return False
