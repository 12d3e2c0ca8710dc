"""Epochal world drift: op validation, plan serialization, application
semantics, the unit-impact analysis, and seeded plan generation."""

import json

import pytest

from repro.codec import decode, encode
from repro.devices.actions import (
    IPID_CONSTANT,
    KIND_BLOCKPAGE,
    KIND_DROP,
    KIND_RST,
)
from repro.geo.countries import build_world
from repro.geo.drift import (
    DRIFT_BLOCKPAGE_HTML,
    DriftError,
    DriftOp,
    DriftPlan,
    apply_drift,
    auto_drift_plan,
    devices_in_as,
    ops_touching,
    unit_touchpoints,
)


def kz_world(**kwargs):
    return build_world("KZ", seed=11, scale=0.35, **kwargs)


def kz_device(world):
    """The device every selected KZ endpoint routes through."""
    names = devices_in_as(world, 9198)
    assert "dev16" in names
    return next(d for d in world.devices if d.name == "dev16")


class TestOpValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DriftError, match="unknown drift op kind"):
            DriftOp(epoch=1, kind="meteor", target="dev16")

    def test_epoch_zero_rejected(self):
        with pytest.raises(DriftError, match="epoch must be >= 1"):
            DriftOp(epoch=0, kind="firmware", target="dev16")

    def test_rehome_requires_as_target(self):
        with pytest.raises(DriftError, match="as:<asn>"):
            DriftOp(epoch=1, kind="rehome", target="dev16", new_name="X")

    def test_rehome_must_change_something(self):
        with pytest.raises(DriftError, match="changes nothing"):
            DriftOp(epoch=1, kind="rehome", target="as:9198")

    def test_rules_must_change_something(self):
        with pytest.raises(DriftError, match="changes nothing"):
            DriftOp(epoch=1, kind="rules", target="dev16")

    def test_unknown_action_kind_rejected(self):
        with pytest.raises(DriftError, match="unknown action kind"):
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    action_kind="nuke")

    def test_tls_blockpage_rejected(self):
        with pytest.raises(DriftError, match="encrypted"):
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    tls_action_kind=KIND_BLOCKPAGE)


class TestSerialization:
    def plan(self):
        return DriftPlan(name="p", ops=(
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    action_kind=KIND_RST, fixed_ttl=64),
            DriftOp(epoch=2, kind="rules", target="dev16",
                    add_domains=("x.example",)),
            DriftOp(epoch=2, kind="rehome", target="as:9198",
                    new_name="KazTelecom II"),
        ))

    def test_round_trip(self):
        plan = self.plan()
        assert decode(DriftPlan, encode(plan)) == plan

    def test_to_dict_omits_defaults(self):
        op_dict = encode(self.plan().ops[0])
        assert set(op_dict) == {
            "epoch", "kind", "target", "action_kind", "fixed_ttl"
        }

    def test_json_round_trip_via_from_spec(self):
        plan = self.plan()
        assert DriftPlan.from_spec(json.dumps(encode(plan))) == plan

    def test_from_spec_file(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(encode(plan)))
        assert DriftPlan.from_spec(f"@{path}") == plan

    def test_from_spec_missing_file_is_typed_error(self, tmp_path):
        with pytest.raises(DriftError, match="cannot read drift plan file"):
            DriftPlan.from_spec(f"@{tmp_path / 'nope.json'}")

    def test_from_spec_malformed_json_is_typed_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(DriftError, match="malformed drift plan JSON"):
            DriftPlan.from_spec(f"@{path}")
        with pytest.raises(DriftError, match="malformed drift plan JSON"):
            DriftPlan.from_spec("{not json")

    def test_from_spec_non_object_json_is_typed_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        with pytest.raises(DriftError, match="must be a JSON object"):
            DriftPlan.from_spec(f"@{path}")

    def test_unknown_fields_rejected(self):
        with pytest.raises(DriftError, match="unknown drift op fields"):
            decode(DriftOp, {"epoch": 1, "kind": "firmware",
                             "target": "dev16", "warp": 9})
        with pytest.raises(DriftError, match="unknown drift plan fields"):
            decode(DriftPlan, {"name": "p", "ops": [], "extra": 1})

    def test_ops_at_is_cumulative(self):
        plan = self.plan()
        assert len(plan.ops_at(0)) == 0
        assert len(plan.ops_at(1)) == 1
        assert len(plan.ops_at(2)) == 3
        assert plan.max_epoch() == 2
        assert not plan.is_noop()
        assert DriftPlan().is_noop()


class TestApply:
    def test_unknown_device_named_in_error(self):
        world = kz_world()
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="firmware", target="no-such-device"),
        ))
        with pytest.raises(DriftError, match="no-such-device"):
            apply_drift(world, plan, epoch=1)

    def test_firmware_flips_action_and_tls_follows(self):
        world = kz_world()
        device = kz_device(world)
        assert device.action.kind == KIND_DROP
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    action_kind=KIND_BLOCKPAGE, ip_id_value=777),
        ))
        assert apply_drift(world, plan, epoch=1) == 1
        assert device.action.kind == KIND_BLOCKPAGE
        # No cleartext to inject into a TLS stream: degrades to RST.
        assert device.action_tls.kind == KIND_RST
        assert device.action.blockpage_html == DRIFT_BLOCKPAGE_HTML
        assert device.action.signature.ip_id_mode == IPID_CONSTANT
        assert device.action.signature.ip_id_value == 777

    def test_epoch_zero_is_untouched_baseline(self):
        world = kz_world()
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    action_kind=KIND_RST),
        ))
        assert apply_drift(world, plan, epoch=0) == 0
        assert kz_device(world).action.kind == KIND_DROP

    def test_rehome_updates_registry(self):
        world = kz_world()
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="rehome", target="as:9198",
                    new_name="NewCo", new_country="RU"),
        ))
        apply_drift(world, plan, epoch=1)
        device = kz_device(world)
        meta = world.asdb.lookup(world.device_host_ip[device.name])
        assert meta.as_name == "NewCo"
        assert meta.country == "RU"

    def test_rules_churn(self):
        world = kz_world()
        device = kz_device(world)
        before = {r.domain for r in device.blocklist.rules}
        victim = sorted(before)[0]
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="rules", target="dev16",
                    add_domains=("fresh.example",),
                    remove_domains=(victim,)),
        ))
        apply_drift(world, plan, epoch=1)
        after = {r.domain for r in device.blocklist.rules}
        assert "fresh.example" in after
        assert victim not in after

    def test_build_world_applies_plan(self):
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="firmware", target="dev16",
                    action_kind=KIND_RST),
        ))
        drifted = kz_world(drift_plan=plan, epoch=1)
        assert kz_device(drifted).action.kind == KIND_RST
        assert drifted.spec.drift_plan == plan
        assert drifted.spec.epoch == 1
        # Epoch 0 with a plan is byte-for-byte the base world.
        base = kz_world(drift_plan=plan, epoch=0)
        assert kz_device(base).action.kind == KIND_DROP


class TestImpactAnalysis:
    def test_touchpoints_cover_the_blocking_device(self):
        world = kz_world()
        endpoint = world.endpoints[0]
        names, asns = unit_touchpoints(
            world, world.remote_client.ip, endpoint.ip
        )
        assert "dev16" in names
        assert 9198 in asns

    def test_ops_touching_filters_by_target(self):
        on_route = DriftOp(epoch=1, kind="firmware", target="dev16",
                           action_kind=KIND_RST)
        off_route = DriftOp(epoch=1, kind="firmware", target="dev99",
                            action_kind=KIND_RST)
        rehome = DriftOp(epoch=1, kind="rehome", target="as:9198",
                         new_name="X")
        far_rehome = DriftOp(epoch=1, kind="rehome", target="as:65000",
                             new_name="Y")
        ops = (on_route, off_route, rehome, far_rehome)
        touching = ops_touching(ops, ("dev16",), (9198,))
        assert touching == (on_route, rehome)


class TestAutoPlan:
    def test_deterministic_for_a_seed(self):
        world = kz_world()
        a = auto_drift_plan(world, epochs=4, seed=3, ops_per_epoch=2)
        b = auto_drift_plan(world, epochs=4, seed=3, ops_per_epoch=2)
        assert a == b
        assert a != auto_drift_plan(world, epochs=4, seed=4, ops_per_epoch=2)

    def test_covers_requested_epochs(self):
        world = kz_world()
        plan = auto_drift_plan(world, epochs=3, seed=0)
        assert plan.max_epoch() == 2
        assert len(plan.ops) == 2
        # The generated plan is fully declarative: it survives a JSON
        # round trip and applies to a fresh world build.
        restored = decode(DriftPlan, json.loads(json.dumps(encode(plan))))
        assert restored == plan
        build_world("KZ", seed=11, scale=0.35, drift_plan=restored, epoch=2)
