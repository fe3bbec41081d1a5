"""Firewall policies and violation detection (paper future-work concept)."""

import numpy as np
import pytest

import importlib

from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import ShapeError
from repro.graphs import ddos

# the generator submodule (its ``defense`` function is exported as ``defense_pattern``)
defense = importlib.import_module("repro.graphs.defense")
from repro.graphs.compose import overlay
from repro.graphs.firewall import (
    FirewallPolicy,
    compliant_traffic,
    default_policy,
    violating_traffic,
    violations,
)


class TestDefaultPolicy:
    def test_blue_internal_allowed(self):
        p = default_policy()
        assert p.permits("WS1", "WS2")
        assert p.permits("WS1", "SRV1")

    def test_egress_allowed(self):
        p = default_policy()
        assert p.permits("WS1", "EXT1")

    def test_dmz_rule(self):
        p = default_policy()
        assert p.permits("EXT1", "SRV1")      # inbound to the server only
        assert not p.permits("EXT1", "WS1")   # not to workstations

    def test_red_space_blocked(self):
        p = default_policy()
        assert not p.permits("ADV1", "SRV1")
        assert not p.permits("WS1", "ADV1")
        assert not p.permits("ADV1", "EXT1")

    def test_loopback_allowed(self):
        p = default_policy()
        for lb in p.labels:
            assert p.permits(lb, lb)

    def test_policy_matrix_colors(self):
        m = default_policy().as_matrix()
        assert int(m.color_of("WS1", "WS2")) == 1  # allowed = blue
        assert int(m.color_of("WS1", "ADV1")) == 2  # denied = red

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            FirewallPolicy(("A", "B"), np.zeros((3, 3), dtype=bool))


class TestViolations:
    def policy(self):
        return default_policy()

    def test_security_traffic_is_clean(self):
        assert violations(defense.security(10), self.policy()) == []

    def test_ddos_red_clients_flagged(self):
        viols = violations(ddos.ddos_attack(10), self.policy())
        sources = {src for src, _dst, _p in viols}
        assert sources == {"ADV3", "ADV4"}  # EXT clients pass the DMZ rule

    def test_combined_traffic_counts(self):
        traffic = overlay([defense.security(10), ddos.ddos_attack(10)])
        viols = violations(traffic, self.policy())
        assert len(viols) == 2

    def test_label_mismatch_rejected(self):
        other = TrafficMatrix.zeros(6)
        with pytest.raises(ShapeError):
            violations(other, self.policy())

    def test_split_partitions_traffic(self):
        traffic = overlay([defense.security(10), ddos.ddos_attack(10)])
        p = self.policy()
        good = compliant_traffic(traffic, p)
        bad = violating_traffic(traffic, p)
        assert good.total_packets() + bad.total_packets() == traffic.total_packets()
        assert (good.packets * bad.packets).sum() == 0  # disjoint cells

    def test_violating_traffic_colored_red(self):
        bad = violating_traffic(ddos.ddos_attack(10), self.policy())
        cells = bad.packets > 0
        assert (bad.colors[cells] == 2).all()

    def test_compliant_traffic_colored_blue(self):
        good = compliant_traffic(defense.security(10), self.policy())
        cells = good.packets > 0
        assert (good.colors[cells] == 1).all()


class TestFirewallModules:
    def test_extended_catalog_adds_family(self):
        from repro.modules.library import builtin_catalog, extended_catalog

        base = builtin_catalog()
        ext = extended_catalog()
        assert set(base) < set(ext)
        assert {k for k in ext if k.startswith("firewall/")} == {
            "firewall/policy",
            "firewall/spot_violations",
            "firewall/clean_traffic",
        }

    def test_firewall_modules_validate(self):
        from repro.modules.library import extended_catalog
        from repro.modules.schema import validate_module_dict

        for key, module in extended_catalog().items():
            if key.startswith("firewall/"):
                validate_module_dict(module.to_json_dict())

    def test_analyst_answers_violation_count(self):
        from repro.game.players import AnalystPlayer
        from repro.game.quiz import present_question
        from repro.modules.library import extended_catalog

        module = extended_catalog()["firewall/spot_violations"]
        pres = present_question(module, seed=3)
        choice = AnalystPlayer(seed=3).choose(module, pres)
        assert pres.options[choice] == module.question.correct_answer
