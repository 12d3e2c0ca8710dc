"""Core abstractions for the invariant lint framework.

A *rule* is one invariant checker with a stable ID (``RP101``, ...).
Rules come in three flavours:

* :class:`FileRule` — sees one file at a time (a shared, pre-parsed
  AST in a :class:`FileContext`).
* :class:`ProjectRule` — sees every file at once, for whole-tree
  invariants (the import DAG, cycle detection).
* :class:`IndexRule` — phase-2 passes that consume the shared
  :class:`~tools.lintkit.index.ProjectIndex` built once per run
  (symbol tables, resolved imports, telemetry call sites).

Every violation can be suppressed at the offending line with a pragma
comment (``# lint: ignore[RP101] -- justification here`` on the line,
or standalone on the line immediately above). Suppression is per-rule:
the bracket list names the rule IDs being waived, and anything after
``--`` is a free-form justification (by convention mandatory in this
repo — a bare pragma tells the reader nothing).

Pragmas are recognised only in real comments (tokenize-verified), so a
pragma *example* inside a docstring neither suppresses anything nor
counts as a stale suppression. The walker tracks which pragmas
actually fired; a pragma that suppresses nothing is reported as the
warning-severity ``RP001``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

#: Comment form: ``lint: ignore[RP101]`` or
#: ``lint: ignore[RP101, RP502] -- why`` after the usual hash.
PRAGMA_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9,\s]+)\]")

RULE_ID_RE = re.compile(r"^RP\d{3}$")

#: Severity levels, in increasing order of seriousness. Only ``error``
#: findings affect the exit code; ``warning`` findings (stale pragmas)
#: are reported but do not fail ``make lint``.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule tripped at a specific file/line."""

    rule_id: str
    path: Path  # repo-relative where possible
    line: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return f"{self.path}:{self.line}: {self.rule_id}{tag} {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One ``# lint: ignore[...]`` comment found in a file."""

    line: int  # line the comment itself sits on
    ids: Tuple[str, ...]  # rule IDs it waives, sorted
    shields: Tuple[int, ...]  # source lines it suppresses findings on


class FileContext:
    """One parsed source file, shared by every pass.

    The walker parses each file exactly once; passes receive the same
    ``tree`` so a many-pass run costs one ``ast.parse`` per file.
    """

    def __init__(
        self,
        path: Path,
        relative: Path,
        source: str,
        tree: ast.Module,
        module: Optional[str],
    ) -> None:
        self.path = path
        self.relative = relative
        self.source = source
        self.tree = tree
        #: Dotted module name (``repro.netsim.simulator``) when the file
        #: sits inside an importable package, else ``None``.
        self.module = module
        self.pragmas: List[Pragma] = self._parse_pragmas(source)
        # line -> {rule_id: [pragmas shielding that line]}
        self._suppressed: Dict[int, Dict[str, List[Pragma]]] = {}
        for pragma in self.pragmas:
            for shielded in pragma.shields:
                per_line = self._suppressed.setdefault(shielded, {})
                for rule_id in pragma.ids:
                    per_line.setdefault(rule_id, []).append(pragma)
        #: (pragma line, rule id) pairs that actually fired this run.
        self._used: Set[Tuple[int, str]] = set()

    @staticmethod
    def _parse_pragmas(source: str) -> List[Pragma]:
        """All pragma *comments* (docstring look-alikes excluded)."""
        lines = source.splitlines()
        pragmas: List[Pragma] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Unreadable enough that the parser already reported it.
            return pragmas
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(tok.string)
            if not match:
                continue
            ids = {part.strip() for part in match.group(1).split(",")}
            ids = {i for i in ids if RULE_ID_RE.match(i)}
            if not ids:
                continue
            row = tok.start[0]
            shields = [row]
            # A standalone pragma comment shields the following line.
            prefix = lines[row - 1][: tok.start[1]] if row <= len(lines) else ""
            if prefix.strip() == "":
                shields.append(row + 1)
            pragmas.append(Pragma(row, tuple(sorted(ids)), tuple(shields)))
        return pragmas

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        hits = self._suppressed.get(line, {}).get(rule_id)
        if not hits:
            return False
        for pragma in hits:
            self._used.add((pragma.line, rule_id))
        return True

    def unused_pragma_ids(
        self, active_ids: Set[str]
    ) -> List[Tuple[int, str]]:
        """(pragma line, rule id) pairs that never suppressed a finding.

        Only IDs among ``active_ids`` are considered, so a partial
        ``--select`` run never convicts pragmas for rules it didn't run.
        """
        unused: List[Tuple[int, str]] = []
        for pragma in self.pragmas:
            for rule_id in pragma.ids:
                if rule_id not in active_ids:
                    continue
                if (pragma.line, rule_id) not in self._used:
                    unused.append((pragma.line, rule_id))
        return unused

    #: Top-level package of :attr:`module` (``repro`` for
    #: ``repro.netsim.simulator``), or ``None`` outside a package.
    @property
    def package_root(self) -> Optional[str]:
        return self.module.split(".", 1)[0] if self.module else None


class Rule:
    """Base class: one registered invariant with a stable ID."""

    id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope hook — override to restrict a rule to some modules."""
        return True


class FileRule(Rule):
    def check(self, ctx: FileContext) -> Iterable[Violation]:
        raise NotImplementedError


class ProjectRule(Rule):
    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterable[Violation]:
        raise NotImplementedError


class IndexRule(Rule):
    """Phase-2 rule: runs against the shared :class:`ProjectIndex`.

    The walker builds the index once per run (when at least one
    IndexRule is selected) and hands every IndexRule the same instance,
    so N cross-module passes cost one indexing sweep.
    """

    def check_index(
        self, index, contexts: Sequence[FileContext]
    ) -> Iterable[Violation]:
        raise NotImplementedError


@dataclass
class Registry:
    """All registered rules, keyed by ID; insertion order is report order."""

    rules: Dict[str, Rule] = field(default_factory=dict)

    def register(self, rule_cls: Type[Rule]) -> Type[Rule]:
        rule = rule_cls()
        if not RULE_ID_RE.match(rule.id):
            raise ValueError(f"rule id {rule.id!r} is not of the form RPxxx")
        if rule.id in self.rules:
            raise ValueError(f"duplicate rule id {rule.id}")
        self.rules[rule.id] = rule
        return rule_cls

    def select(self, ids: Optional[Sequence[str]] = None) -> List[Rule]:
        if ids is None:
            return list(self.rules.values())
        unknown = [i for i in ids if i not in self.rules]
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        return [self.rules[i] for i in ids]


#: The process-wide registry the ``@register`` decorator feeds.
REGISTRY = Registry()
register = REGISTRY.register
