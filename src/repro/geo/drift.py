"""Epochal world drift: declarative, seeded changes between campaign runs.

Real censorship infrastructure is not static: vendors push firmware
updates that change injection fingerprints and blockpages, ISPs re-home
ASes, and rule lists churn (the reason platforms like ICLab and
Censored Planet measure *continuously*). The longitudinal observatory
models that as virtual-time **epochs**: a :class:`DriftPlan` is an
ordered tuple of :class:`DriftOp` records, each tagged with the first
epoch at which it is live, and the epoch-``e`` world is the base
:class:`~repro.geo.countries.WorldSpec` world with every op of epoch
``<= e`` applied in declaration order.

Drift is therefore *cumulative and reproducible*: the epoch world is a
pure function of (world spec, plan, epoch), which is exactly what lets
parallel campaign workers rebuild drifted replicas and lets the epoch
scheduler (``repro.experiments.epochs``) decide from the plan alone
which work units an epoch could have changed.

Op kinds:

* ``firmware`` — a vendor update on one device: switch the blocking
  action kind (drop / rst / fin / blockpage), retune the injection
  signature (TTL, TCP window, IP-ID), or swap the blockpage HTML.
* ``rehome`` — an AS changes owner: its registry name and/or country
  code change (targets ``"as:<asn>"``).
* ``rules`` — blocklist churn on one device: domains added or removed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..codec import Schema, read_spec, register
from ..devices.actions import (
    KIND_BLOCKPAGE,
    KIND_DROP,
    KIND_FIN,
    KIND_RST,
)
from ..devices.rules import BlockRule, Blocklist

OP_FIRMWARE = "firmware"
OP_REHOME = "rehome"
OP_RULES = "rules"
OP_KINDS = (OP_FIRMWARE, OP_REHOME, OP_RULES)

ACTION_KINDS = (KIND_DROP, KIND_RST, KIND_FIN, KIND_BLOCKPAGE)

#: Default page installed by a ``firmware`` op that switches a device to
#: blockpage injection without supplying HTML. The wording matches the
#: ``generic_region_block`` fingerprint in the blockpage corpus, so the
#: classifier counts the drifted device as blocking (§4.1's conservative
#: definition only accepts *known* blockpages).
DRIFT_BLOCKPAGE_HTML = (
    "<html><head><title>Access Denied</title></head><body>"
    "<h1>This content is not available in your region.</h1>"
    "</body></html>"
)


class DriftError(ValueError):
    """A drift plan is malformed or names an unknown target."""


@dataclass(frozen=True)
class DriftOp:
    """One declarative change, live from ``epoch`` onward.

    ``target`` is a device name for ``firmware``/``rules`` ops and
    ``"as:<asn>"`` for ``rehome``. Unused fields stay at their defaults;
    which fields apply depends on ``kind`` (see the module docstring).
    """

    epoch: int
    kind: str
    target: str
    # firmware ------------------------------------------------------------
    action_kind: Optional[str] = None  # new HTTP blocking action
    tls_action_kind: Optional[str] = None  # new TLS action (default: derived)
    blockpage_html: Optional[str] = None
    fixed_ttl: Optional[int] = None
    tcp_window: Optional[int] = None
    ip_id_value: Optional[int] = None
    # rehome --------------------------------------------------------------
    new_name: Optional[str] = None
    new_country: Optional[str] = None
    # rules ---------------------------------------------------------------
    add_domains: Tuple[str, ...] = ()
    remove_domains: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise DriftError(
                f"unknown drift op kind {self.kind!r}; expected one of "
                f"{OP_KINDS}"
            )
        if self.epoch < 1:
            raise DriftError(
                f"drift op epoch must be >= 1 (epoch 0 is the undrifted "
                f"baseline), got {self.epoch}"
            )
        if self.kind == OP_REHOME:
            if not self.target.startswith("as:"):
                raise DriftError(
                    f"rehome ops target an AS ('as:<asn>'), got "
                    f"{self.target!r}"
                )
            if self.new_name is None and self.new_country is None:
                raise DriftError(
                    "rehome op changes nothing: set new_name and/or "
                    "new_country"
                )
        if self.action_kind is not None and self.action_kind not in ACTION_KINDS:
            raise DriftError(
                f"unknown action kind {self.action_kind!r}; expected one "
                f"of {ACTION_KINDS}"
            )
        if self.tls_action_kind == KIND_BLOCKPAGE:
            raise DriftError(
                "TLS blocking cannot inject a blockpage into an encrypted "
                "stream; use rst/fin/drop for tls_action_kind"
            )
        if self.kind == OP_RULES and not (self.add_domains or self.remove_domains):
            raise DriftError(
                "rules op changes nothing: set add_domains and/or "
                "remove_domains"
            )
        # Tuples, not lists, so ops (and plans, and WorldSpecs carrying
        # them) stay hashable cache keys.
        object.__setattr__(self, "add_domains", tuple(self.add_domains))
        object.__setattr__(self, "remove_domains", tuple(self.remove_domains))


@dataclass(frozen=True)
class DriftPlan:
    """A seeded, declarative schedule of world changes across epochs."""

    name: str = "custom"
    ops: Tuple[DriftOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def is_noop(self) -> bool:
        return not self.ops

    def max_epoch(self) -> int:
        return max((op.epoch for op in self.ops), default=0)

    def ops_at(self, epoch: int) -> Tuple[DriftOp, ...]:
        """Every op live at ``epoch`` (cumulative), in declaration order.

        Declaration order is the application order — a later firmware op
        on the same device overrides an earlier one wholesale, exactly
        like consecutive real firmware updates.
        """
        return tuple(op for op in self.ops if op.epoch <= epoch)

    @classmethod
    def from_spec(cls, spec) -> "DriftPlan":
        """A plan from itself, a record dict, inline JSON or an ``@file``
        path (:class:`DriftError` otherwise).

        (The ``auto`` CLI spelling is resolved by the caller, which has
        the world needed to seed :func:`auto_drift_plan`.)
        """
        return read_spec(cls, spec)


# Plans are written by hand: an op may leave out any field with a
# default, an unknown field is an error, and an op's record leaves out
# the fields its kind does not use.
register(DriftError, {
    DriftPlan: Schema(spec=True),
    DriftOp: Schema(omit="default", spec=True),
})


# ---------------------------------------------------------------------------
# Application to a built world
# ---------------------------------------------------------------------------


def _device_by_name(world, name: str):
    for device in world.devices:
        if device.name == name:
            return device
    raise DriftError(
        f"drift op targets unknown device {name!r} in world "
        f"{world.name!r} (devices: {[d.name for d in world.devices]})"
    )


def _apply_firmware(world, op: DriftOp) -> None:
    device = _device_by_name(world, op.target)
    sig = device.action.signature
    sig_updates: Dict = {}
    if op.fixed_ttl is not None:
        sig_updates["fixed_ttl"] = op.fixed_ttl
    if op.tcp_window is not None:
        sig_updates["tcp_window"] = op.tcp_window
    if op.ip_id_value is not None:
        from ..devices.actions import IPID_CONSTANT

        sig_updates["ip_id_mode"] = IPID_CONSTANT
        sig_updates["ip_id_value"] = op.ip_id_value
    if sig_updates:
        sig = replace(sig, **sig_updates)

    http_kind = op.action_kind or device.action.kind
    http_updates: Dict = {"kind": http_kind, "signature": sig}
    if http_kind == KIND_BLOCKPAGE:
        http_updates["blockpage_html"] = (
            op.blockpage_html
            or device.action.blockpage_html
            or DRIFT_BLOCKPAGE_HTML
        )
    elif op.blockpage_html is not None:
        http_updates["blockpage_html"] = op.blockpage_html
    device.action = replace(device.action, **http_updates)

    # TLS action: explicit kind wins; otherwise follow the HTTP change,
    # degrading blockpage to RST (no cleartext to inject into, §5.3).
    tls_kind = op.tls_action_kind
    if tls_kind is None and op.action_kind is not None:
        tls_kind = KIND_RST if op.action_kind == KIND_BLOCKPAGE else op.action_kind
    tls_sig = device.action_tls.signature
    if sig_updates:
        tls_sig = replace(tls_sig, **sig_updates)
    device.action_tls = replace(
        device.action_tls,
        kind=tls_kind or device.action_tls.kind,
        signature=tls_sig,
    )


def _apply_rehome(world, op: DriftOp) -> None:
    asn = int(op.target[len("as:"):])
    world.asdb.reassign(asn, name=op.new_name, country=op.new_country)


def _apply_rules(world, op: DriftOp) -> None:
    device = _device_by_name(world, op.target)
    removed = set(op.remove_domains)
    rules = [r for r in device.blocklist.rules if r.domain not in removed]
    default_kind = rules[0].kind if rules else BlockRule("x").kind
    for domain in op.add_domains:
        rules.append(BlockRule(domain=domain, kind=default_kind))
    device.blocklist = Blocklist(rules=rules)


_APPLIERS = {
    OP_FIRMWARE: _apply_firmware,
    OP_REHOME: _apply_rehome,
    OP_RULES: _apply_rules,
}


def apply_drift(world, plan: DriftPlan, epoch: int) -> int:
    """Apply every op of ``plan`` live at ``epoch`` to a built world.

    Mutates devices and the AS registry in place (worlds are rebuilt
    from spec per epoch/worker, so mutation never leaks across epochs).
    Returns the number of ops applied.
    """
    ops = plan.ops_at(epoch)
    for op in ops:
        _APPLIERS[op.kind](world, op)
    return len(ops)


def devices_in_as(world, asn: int) -> Tuple[str, ...]:
    """Names of devices hosted at routers of AS ``asn``, world order.

    Device names are builder-generated (``dev16`` ...), so plan authors
    target them the way a real operator would find them: by where they
    sit in the network.
    """
    names = []
    for device in world.devices:
        host_ip = world.device_host_ip.get(device.name)
        if host_ip is None:
            continue
        meta = world.asdb.lookup(host_ip)
        if meta is not None and meta.asn == asn:
            names.append(device.name)
    return tuple(names)


# ---------------------------------------------------------------------------
# Unit-level impact analysis (the epoch scheduler's reuse contract)
# ---------------------------------------------------------------------------


def unit_touchpoints(
    world, client_ip: str, endpoint_ip: str
) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """Everything on a measurement's route that drift could touch.

    Returns ``(device_names, asns)`` across *all* candidate ECMP paths
    of the (client, endpoint) route — a measurement's packets can only
    traverse those paths (forward, reverse, and injection walks reuse
    the same route), so a drift op whose target is not in either set
    cannot change the measurement. Deliberately conservative the other
    way: any op targeting an on-route device or ASN counts as impact,
    whether or not its domains/fields end up mattering.
    """
    route = world.topology.route_between(client_ip, endpoint_ip)
    names = sorted(
        {device.name for _, device in route.all_devices()}
    )
    asns = {world.remote_client.asn} if world.remote_client else set()
    for path in route.paths:
        for node in path.resolve(world.topology):
            asn = getattr(node, "asn", None)
            if asn is not None:
                asns.add(asn)
    client_node = world.topology.node_at(client_ip)
    if client_node is not None and getattr(client_node, "asn", None) is not None:
        asns.add(client_node.asn)
    return tuple(names), tuple(sorted(asns))


def ops_touching(
    ops: Sequence[DriftOp],
    device_names: Sequence[str],
    asns: Sequence[int],
) -> Tuple[DriftOp, ...]:
    """The subset of ``ops`` that can affect a unit with these touchpoints."""
    names = set(device_names)
    asn_targets = {f"as:{asn}" for asn in asns}
    return tuple(
        op
        for op in ops
        if (op.target in asn_targets if op.kind == OP_REHOME else op.target in names)
    )


# ---------------------------------------------------------------------------
# Seeded plan generation
# ---------------------------------------------------------------------------


def auto_drift_plan(
    world,
    *,
    epochs: int,
    seed: int = 0,
    ops_per_epoch: int = 1,
) -> DriftPlan:
    """Generate a concrete declarative plan from a built world, seeded.

    Walks the world's devices and AS registry deterministically and
    emits ``ops_per_epoch`` ops for each epoch ``1..epochs-1``, cycling
    firmware flips (drop -> rst -> blockpage), rule churn, and an AS
    rehome. The output is an ordinary declarative :class:`DriftPlan`:
    the generator is convenience, never a hidden input — reproducing an
    epoch needs only the emitted plan.
    """
    if epochs < 1:
        raise DriftError(f"need at least 1 epoch, got {epochs}")
    rng = random.Random(seed)
    devices = sorted(world.devices, key=lambda d: d.name)
    if not devices:
        raise DriftError(f"world {world.name!r} has no devices to drift")
    registered = world.asdb.registered()
    flip_order = {KIND_DROP: KIND_RST, KIND_RST: KIND_BLOCKPAGE,
                  KIND_FIN: KIND_RST, KIND_BLOCKPAGE: KIND_DROP}
    ops: List[DriftOp] = []
    emitted = 0
    for epoch in range(1, epochs):
        for _ in range(ops_per_epoch):
            style = emitted % 3
            emitted += 1
            if style == 0:
                device = devices[rng.randrange(len(devices))]
                ops.append(
                    DriftOp(
                        epoch=epoch,
                        kind=OP_FIRMWARE,
                        target=device.name,
                        action_kind=flip_order[device.action.kind],
                        fixed_ttl=rng.choice((60, 64, 128, 255)),
                        tcp_window=rng.choice((0, 512, 8192, 16384)),
                    )
                )
            elif style == 1:
                device = devices[rng.randrange(len(devices))]
                ops.append(
                    DriftOp(
                        epoch=epoch,
                        kind=OP_RULES,
                        target=device.name,
                        add_domains=(f"drift-{epoch}.example",),
                    )
                )
            else:
                info = registered[rng.randrange(len(registered))]
                ops.append(
                    DriftOp(
                        epoch=epoch,
                        kind=OP_REHOME,
                        target=f"as:{info.asn}",
                        new_name=f"{info.name} (reorg {epoch})",
                    )
                )
    return DriftPlan(name=f"auto-{seed}", ops=tuple(ops))
