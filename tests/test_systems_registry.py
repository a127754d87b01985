"""Tests for the composable system registry (``repro.systems``)."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.__main__ import main
from repro.sim.config import HTMConfig, SystemKind, all_system_kinds, table2_config
from repro.systems import (
    SystemSpec,
    UnknownSystemError,
    get_spec,
    paper_systems,
    register,
    registered_systems,
)
from repro.systems.compose import make_policy
from repro.systems.conflict import (
    BaselineRW,
    RequesterSpeculates,
    RequesterStalls,
)
from repro.systems.outcome import ABORT, PolicyOutcome
from repro.systems.spec import ForwardClass


class TestRegistry:
    def test_paper_systems_registered_in_order(self):
        names = [s.name for s in paper_systems()]
        assert names == [
            "baseline",
            "naive-rs",
            "chats",
            "power",
            "pchats",
            "levc-be-idealized",
        ]

    def test_extra_systems_registered(self):
        names = {s.name for s in registered_systems()}
        assert {"stall", "chats-ts"} <= names

    def test_get_spec_identity(self):
        assert get_spec("chats") is get_spec("chats")
        spec = get_spec("pchats")
        assert get_spec(spec) is spec  # pass-through

    def test_unknown_name_lists_registered_keys(self):
        with pytest.raises(UnknownSystemError) as exc:
            get_spec("bogus")
        text = str(exc.value)
        assert "unknown system 'bogus'" in text
        assert "baseline" in text and "chats" in text

    def test_register_rejects_conflicting_redefinition(self):
        spec = get_spec("baseline")
        assert register(spec) is spec  # identical re-registration is a no-op
        clash = dataclasses.replace(spec, retries=99)
        with pytest.raises(ValueError, match="already registered"):
            register(clash)

    def test_layer_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="conflict"):
            SystemSpec(name="x", label="X", conflict="requester-prays")

    def test_spec_repr_and_str(self):
        assert str(get_spec("chats")) == "chats"
        assert "chats" in repr(get_spec("chats"))


class TestCompatShim:
    def test_system_kind_attributes_are_specs(self):
        assert SystemKind.BASELINE is get_spec("baseline")
        assert SystemKind.CHATS.forwards
        assert SystemKind.POWER.powered
        assert not SystemKind.BASELINE.forwards

    def test_iteration_matches_paper_systems(self):
        assert tuple(SystemKind) == paper_systems()
        assert all_system_kinds()[0] is SystemKind.BASELINE

    def test_table2_round_trip(self):
        for kind in SystemKind:
            cfg = table2_config(kind)
            assert cfg.system is kind
            assert table2_config(kind.value).system is kind

    def test_round_trip_by_name_through_registry(self):
        for spec in registered_systems():
            assert table2_config(spec.name).system is get_spec(spec.name)


class TestConfigValidation:
    def test_every_registered_spec_builds_valid_config(self):
        for spec in registered_systems():
            cfg = table2_config(spec)
            assert isinstance(cfg, HTMConfig)
            assert cfg.system is spec
            assert hash(cfg) == hash(table2_config(spec))

    def test_every_registered_spec_builds_policy(self):
        for spec in registered_systems():
            policy = make_policy(table2_config(spec))
            assert hasattr(policy, "resolve")

    def test_baseline_policy_is_baseline_rw(self):
        assert isinstance(make_policy(table2_config("baseline")), BaselineRW)
        assert isinstance(
            make_policy(table2_config("chats")), RequesterSpeculates
        )
        assert isinstance(
            make_policy(table2_config("stall")), RequesterStalls
        )


class TestPolicyOutcome:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ABORT.resolution = None

    def test_slots(self):
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(
                PolicyOutcome(ABORT.resolution), "not_a_field", 1
            )


class TestUnknownSystemErrors:
    def test_cli_rejects_unknown_system(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["run", "counter", "--system", "bogus"])

    def test_run_workload_rejects_unknown_system(self):
        with pytest.raises(UnknownSystemError, match="registered systems"):
            repro.run_workload("counter", system="bogus")


class TestNewSystemsEndToEnd:
    @pytest.mark.parametrize("system", ["stall", "chats-ts"])
    def test_runs_and_commits(self, system):
        result = repro.run_workload(
            "synth", system=system, threads=4, scale=0.1
        )
        s = result.summary()
        assert s["system"] == system
        assert s["commits"] > 0

    @pytest.mark.parametrize("system", ["stall", "chats-ts"])
    def test_deterministic(self, system):
        runs = [
            repro.run_workload(
                "counter", system=system, threads=4, seed=7, scale=0.1
            ).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_stall_policy_nacks_younger_requesters(self):
        # chats-ts forwards speculatively; stall never does.
        result = repro.run_workload(
            "counter", system="stall", threads=4, scale=0.2
        )
        assert result.stats.spec_forwards == 0


class TestCustomRegistration:
    def test_register_and_run_without_core_edits(self):
        # A brand-new system composed purely from existing layers: naive
        # requester-speculates restricted to write-forwarding.
        spec = register(
            SystemSpec(
                name="test-naive-w",
                label="Naive W (test)",
                conflict="requester-speculates",
                ordering="none",
                validation="naive-budget",
                retries=8,
                forward_class=ForwardClass.W,
                vsb_size=2,
                validation_interval=25,
            )
        )
        assert get_spec("test-naive-w") is spec
        result = repro.run_workload(
            "counter", system="test-naive-w", threads=4, scale=0.1
        )
        assert result.summary()["commits"] > 0
        assert result.system == "test-naive-w"

    def test_registered_spec_appears_in_cli_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stall" in out
        assert "chats-ts" in out
        assert "requester-speculates" in out  # layer description printed
