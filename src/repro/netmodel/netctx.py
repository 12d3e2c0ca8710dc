"""Per-run network identifier allocation: the :class:`NetContext`.

Everything a measurement emits carries identifiers that must replay
bit-identically — IP identification values, client ephemeral ports (the
ECMP flow-hash input), the sequential IP-ID stream some injectors use,
and the rotating fake-DNS-answer cursor of GFW-style injectors. These
used to live in four module-level counters scattered over
``netmodel/packet.py``, ``netsim/tcpstack.py`` and
``devices/actions.py``, held together by a reset ritual in the campaign
executor. A :class:`NetContext` owns all four streams as one explicit
object: the simulator (and through it, the world) holds exactly one,
threads it through every allocation site, and the executor's per-unit
determinism guarantee reduces to ``world.net_context.reset()``.

A process-wide default context backs the deprecated module-level
helpers (``next_ip_id()`` with no context, ``reset_ip_ids()``, ...) so
code that builds packets outside any simulator — tests, examples —
keeps working during the migration. Measurement code must always draw
from the simulator's own context: mixing the two streams would make a
measurement's identifiers depend on unrelated allocations elsewhere in
the process, exactly the coupling this class removes.
"""

from __future__ import annotations


class NetContext:
    """All mutable network-identifier streams for one simulated run.

    One instance is owned by each :class:`~repro.netsim.simulator.Simulator`
    (``sim.net_context``) and shared by every allocation site in that
    world: packet constructors, the client TCP stack, endpoint stacks,
    DNS resolvers and device injection builders. ``reset()`` rewinds
    every stream to its canonical start — the whole per-unit
    determinism protocol in one call.
    """

    IP_ID_START = 1
    EPHEMERAL_BASE = 32768
    EPHEMERAL_SPAN = 28000
    SEQUENTIAL_IP_ID_START = 0x1000
    DNS_FAKE_CURSOR_START = 0

    __slots__ = ("_ip_id", "_ephemeral", "_sequential_ip_id", "_dns_fake_cursor")

    def __init__(self) -> None:
        self.reset()

    # -- the reset protocol -------------------------------------------

    def reset(self) -> None:
        """Rewind every identifier stream to its canonical start.

        Called once per campaign work unit (see
        ``repro.experiments.executor.prepare_unit``), making each
        measurement's identifiers a function of the unit alone — never
        of which measurements ran earlier or in which process.
        """
        self.reset_ip_ids()
        self.reset_ephemeral_ports()
        self.reset_sequential_ip_id()
        self.reset_dns_fake_cursor()

    def reset_ip_ids(self, start: int = IP_ID_START) -> None:
        self._ip_id = start

    def reset_ephemeral_ports(self, base: int = EPHEMERAL_BASE) -> None:
        self._ephemeral = base

    def reset_sequential_ip_id(self, start: int = SEQUENTIAL_IP_ID_START) -> None:
        self._sequential_ip_id = start

    def reset_dns_fake_cursor(self, start: int = DNS_FAKE_CURSOR_START) -> None:
        self._dns_fake_cursor = start

    # -- allocators ----------------------------------------------------

    def next_ip_id(self) -> int:
        """A monotonically increasing IP identification value."""
        value = self._ip_id
        self._ip_id = value + 1
        return value & 0xFFFF

    def next_ephemeral_port(self) -> int:
        """A fresh client source port (wraps within the ephemeral range)."""
        port = self._ephemeral
        self._ephemeral = port + 1
        return self.EPHEMERAL_BASE + (
            (port - self.EPHEMERAL_BASE) % self.EPHEMERAL_SPAN
        )

    def next_sequential_ip_id(self) -> int:
        """The shared IPID_SEQUENTIAL stream of injecting devices."""
        self._sequential_ip_id = (self._sequential_ip_id + 1) & 0xFFFF
        return self._sequential_ip_id

    def next_dns_fake_index(self) -> int:
        """Advance the rotating fake-DNS-answer cursor by one."""
        cursor = self._dns_fake_cursor
        self._dns_fake_cursor = cursor + 1
        return cursor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetContext ip_id={self._ip_id} ephemeral={self._ephemeral}"
            f" seq_ip_id={self._sequential_ip_id:#x}"
            f" dns_cursor={self._dns_fake_cursor}>"
        )


# The process-wide fallback stream behind the deprecated module-level
# helpers. Simulators never touch it — each owns a private context — so
# it only serves packets built outside any simulated world.
_DEFAULT_CONTEXT = NetContext()


def default_context() -> NetContext:
    """The fallback context used when no explicit one is supplied."""
    return _DEFAULT_CONTEXT
