"""In-memory span tracer that wraps a program's public functions.

Spans are recorded only by the wrappers this module installs, never by
the program itself: :meth:`Tracer.wrap` replaces a function at the
binding its callers look up (a class attribute, or every module global
bound to it) and :meth:`Tracer.unwrap_all` restores the originals.

A span is one call: its name, start and end (``perf_counter_ns``), the
span that was open when it began, and its *busy* time. For a plain
function busy time is end minus start. For a coroutine function it is
the sum of the slices in which the coroutine actually ran, so the time
it spends suspended (while other tasks run) is not counted twice.

A span's self time is its busy time minus the busy time of its direct
children. The process is single-threaded, so children never overlap and
the self times of one root's tree add up exactly to the root's busy
time; :meth:`Tracer.check` verifies that, and that no self time is
negative or larger than its span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.current = -1
        self.recording = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- span records --------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, parent: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.start.append(_now())
        self.end.append(0)
        self.busy.append(0)
        return sid

    def _close(self, sid: int, busy: Optional[int] = None) -> None:
        end = _now()
        self.end[sid] = end
        self.busy[sid] = end - self.start[sid] if busy is None else busy

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """A span around a block of the benchmark's own code.

        With no span open it starts a new root. It may stay open across
        ``await``s: whatever runs meanwhile on the event loop becomes
        its child, which is how a workload's phase owns the service's
        dispatcher work.
        """
        parent = self.current
        sid = self._open(self.name_id(name), parent)
        self.current = sid
        try:
            yield sid
        finally:
            self._close(sid)
            self.current = parent

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
    ) -> None:
        """Trace ``owner.attr`` under span ``name``.

        ``owner`` is a class (the method is replaced on it) or a module
        (the function is replaced in every loaded ``repro`` module that
        binds the same object, so ``from x import f`` callers see the
        wrapper too). ``before(args, kwargs)`` runs at each recorded
        call, before the function.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            fn = raw.__func__
        if inspect.iscoroutinefunction(fn):
            wrapped = self._async_wrapper(self.name_id(name), fn, before)
        else:
            wrapped = self._sync_wrapper(self.name_id(name), fn, before)
        if kind is not None:
            wrapped = kind(wrapped)
        if isinstance(owner, type):
            self.patch(owner, attr, wrapped)
            return
        for module, key in bindings(raw):
            self.patch(module, key, wrapped)

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`unwrap_all` puts the original back."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _sync_wrapper(self, nid: int, fn, before):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            parent = tracer.current
            sid = tracer._open(nid, parent)
            tracer.current = sid
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
                tracer.current = parent

        return traced

    def _async_wrapper(self, nid: int, fn, before):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.recording:
                return await fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            return await _Stepped(tracer, nid, fn(*args, **kwargs))

        return traced

    # -- analysis ------------------------------------------------------

    def self_times(self) -> array:
        """Self time (ns) of every span: busy minus direct children's busy."""
        own = array("q", self.busy)
        parent = self.parent
        busy = self.busy
        for sid in range(len(busy)):
            p = parent[sid]
            if p >= 0:
                own[p] -= busy[sid]
        return own

    def check(self) -> List[str]:
        """Consistency problems of the recorded tree (empty when sound)."""
        problems: List[str] = []
        own = self.self_times()
        root_busy: Dict[int, int] = {}
        root_self: Dict[int, int] = {}
        root_of = array("l", [0] * len(own))
        for sid in range(len(own)):
            p = self.parent[sid]
            root_of[sid] = sid if p < 0 else root_of[p]
            if p < 0:
                root_busy[sid] = self.busy[sid]
            root_self[root_of[sid]] = root_self.get(root_of[sid], 0) + own[sid]
            if self.end[sid] == 0:
                problems.append(f"span {sid} ({self.names[self.name[sid]]}) never closed")
            elif own[sid] < 0 or own[sid] > self.busy[sid]:
                problems.append(
                    f"span {sid} ({self.names[self.name[sid]]}) has self "
                    f"time {own[sid]} ns outside [0, {self.busy[sid]}]"
                )
        for root, busy in root_busy.items():
            if root_self.get(root, 0) != busy:
                problems.append(
                    f"root span {root}: self times sum to "
                    f"{root_self.get(root, 0)} ns, root is {busy} ns"
                )
        return problems

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds)."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for sid in range(len(own)):
            nid = self.name[sid]
            calls[nid] += 1
            self_ns[nid] += own[sid]
        return {
            name: (calls[nid], self_ns[nid] / 1e9)
            for nid, name in enumerate(self.names)
        }

    def write(self, path) -> int:
        """Write every span as one gzipped JSON line; returns the count."""
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for sid in range(len(own)):
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": self.names[self.name[sid]],
                            "start_ns": self.start[sid],
                            "end_ns": self.end[sid],
                            "busy_ns": self.busy[sid],
                            "self_ns": own[sid],
                            "parent": self.parent[sid],
                            "workload": self.workload,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(own)


def bindings(obj) -> List[Tuple[object, str]]:
    """(module, name) of every loaded ``repro`` module global bound to ``obj``."""
    return [
        (module, key)
        for module in list(sys.modules.values())
        if module is not None and module.__name__.startswith("repro")
        for key, value in list(vars(module).items())
        if value is obj
    ]


class _Stepped:
    """Awaitable that runs a coroutine step by step, timing each step.

    The span opens at the first step; busy time accumulates only while
    the coroutine runs, and the tracer's current span is this one only
    during those steps.
    """

    __slots__ = ("tracer", "nid", "coro")

    def __init__(self, tracer: Tracer, nid: int, coro) -> None:
        self.tracer = tracer
        self.nid = nid
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        parent = tracer.current
        sid = tracer._open(self.nid, parent)
        busy = 0
        value, error = None, None
        try:
            while True:
                t0 = _now()
                tracer.current = sid
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += _now() - t0
                    tracer.current = parent
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # re-raised inside the coroutine
                    value, error = None, exc
        finally:
            tracer._close(sid, busy)
