"""Correctness checks the benchmark runs outside its timed phases.

Every check returns a list of problems (empty when the output is
correct); the runner fails the run if any pass reports one.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

# The golden-digest tests' canonical hash of a saved campaign directory.
from tests.helpers_golden import digest_dir


def digest_epochs(root: Path) -> str:
    """sha256 over every ``epoch-*`` campaign directory of an observatory."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).glob("epoch-*")):
        digest.update(path.name.encode())
        digest.update(digest_dir(path).encode())
    return digest.hexdigest()


def digest_deliveries(deliveries: Iterable[Tuple[str, str]]) -> str:
    """sha256 over (work key, payload) pairs, in key order."""
    digest = hashlib.sha256()
    for key, blob in sorted(deliveries):
        digest.update(key.encode())
        digest.update(blob.encode())
    return digest.hexdigest()


def same_files(a: Path, b: Path) -> List[str]:
    """Problems when directories ``a`` and ``b`` differ in any byte."""
    names_a = sorted(p.name for p in Path(a).iterdir())
    names_b = sorted(p.name for p in Path(b).iterdir())
    if names_a != names_b:
        return [f"{a} holds {names_a}, re-save holds {names_b}"]
    return [
        f"{Path(a) / name} differs after save -> load -> save"
        for name in names_a
        if (Path(a) / name).read_bytes() != (Path(b) / name).read_bytes()
    ]


def pinned(label: str, actual: str, expected: str) -> List[str]:
    if actual == expected:
        return []
    return [f"{label}: digest {actual} != pinned {expected}"]


def consistent_deliveries(
    deliveries: Sequence[Tuple[str, str]],
) -> Tuple[Dict[str, str], List[str]]:
    """Group (key, payload) deliveries; every key must carry one payload."""
    by_key: Dict[str, str] = {}
    problems: List[str] = []
    for key, blob in deliveries:
        seen = by_key.setdefault(key, blob)
        if seen != blob:
            problems.append(f"two deliveries of {key} differ")
    return by_key, problems
