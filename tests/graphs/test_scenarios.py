"""Attack stages, defense concepts, DDoS components (Figs. 7-9)."""

import numpy as np
import pytest

import importlib

from repro.core.spaces import NetworkSpace as S
from repro.errors import ShapeError
from repro.graphs import attack, ddos

# the generator submodule (its ``defense`` function is exported as ``defense_pattern``)
defense = importlib.import_module("repro.graphs.defense")


def active_blocks(matrix):
    return {pair for pair, packets in matrix.space_traffic().items() if packets > 0}


class TestAttackStages:
    def test_planning_red_only(self):
        m = attack.planning(10)
        assert active_blocks(m) == {(S.RED, S.RED)}

    def test_planning_all_adversaries_participate(self):
        m = attack.planning(10)
        red_rows = m.packets[6:, 6:]
        assert (red_rows.sum(axis=1) > 0).all()

    def test_planning_no_self_traffic(self):
        assert np.diag(attack.planning(10).packets).sum() == 0

    def test_staging_blocks(self):
        m = attack.staging(10)
        assert active_blocks(m) == {(S.RED, S.GREY), (S.GREY, S.GREY)}

    def test_infiltration_border_only(self):
        m = attack.infiltration(10)
        assert active_blocks(m) == {(S.GREY, S.BLUE)}

    def test_lateral_movement_blue_only(self):
        m = attack.lateral_movement(10)
        assert active_blocks(m) == {(S.BLUE, S.BLUE)}

    def test_lateral_movement_not_full_block(self):
        # lateral movement must stay distinguishable from walls-in security
        m = attack.lateral_movement(10)
        blue = m.packets[:4, :4]
        assert 0 < np.count_nonzero(blue) < 12

    def test_lateral_custom_foothold(self):
        m = attack.lateral_movement(10, foothold="WS2")
        assert m.out_fan()[1] == 3

    def test_lateral_foothold_must_be_blue(self):
        with pytest.raises(ShapeError):
            attack.lateral_movement(10, foothold="ADV1")

    def test_full_attack_overlays_all_stages(self):
        m = attack.full_attack(10)
        expected = {
            (S.RED, S.RED), (S.RED, S.GREY), (S.GREY, S.GREY),
            (S.GREY, S.BLUE), (S.BLUE, S.BLUE),
        }
        assert active_blocks(m) == expected

    def test_stage_needs_spaces(self):
        with pytest.raises(ShapeError):
            attack.planning(4, labels=["WS1", "WS2", "WS3", "WS4"])

    def test_stage_registry_order(self):
        assert list(attack.ATTACK_STAGES) == [
            "planning", "staging", "infiltration", "lateral_movement",
        ]


class TestDefenseConcepts:
    def test_security_blue_only_and_full(self):
        m = defense.security(10)
        assert active_blocks(m) == {(S.BLUE, S.BLUE)}
        blue = m.packets[:4, :4]
        assert np.count_nonzero(blue) == 12  # complete minus diagonal

    def test_defense_watches_greyspace(self):
        m = defense.defense(10)
        assert (S.BLUE, S.GREY) in active_blocks(m)
        assert (S.RED, S.GREY) in active_blocks(m)
        assert (S.RED, S.BLUE) not in active_blocks(m)

    def test_deterrence_blocks(self):
        m = defense.deterrence(10)
        blocks = active_blocks(m)
        assert (S.BLUE, S.RED) in blocks  # visible response in adversary space
        assert (S.RED, S.BLUE) in blocks  # the provocation

    def test_deterrence_provocation_heavier(self):
        m = defense.deterrence(10, packets=1, provocation_packets=3)
        assert m["ADV1", "WS1"] == 3 and m["WS1", "ADV1"] == 1

    def test_registry(self):
        assert list(defense.DEFENSE_CONCEPTS) == ["security", "defense", "deterrence"]


class TestBotnetRoles:
    def test_default_roles_on_template(self):
        r = ddos.BotnetRoles.from_labels(
            ("WS1", "WS2", "WS3", "SRV1", "EXT1", "EXT2", "ADV1", "ADV2", "ADV3", "ADV4")
        )
        assert r.c2 == (6, 7)
        assert r.clients == (8, 9, 4, 5)
        assert r.victims == (3,)

    def test_victims_fall_back_to_blue(self):
        r = ddos.BotnetRoles.from_labels(("WS1", "WS2", "ADV1", "ADV2"))
        assert r.victims == (0, 1)

    def test_from_names(self):
        labels = ("WS1", "SRV1", "EXT1", "ADV1", "ADV2")
        r = ddos.BotnetRoles.from_names(labels, ["ADV1"], ["ADV2", "EXT1"], ["SRV1"])
        assert r.c2 == (3,) and r.victims == (1,)

    def test_overlapping_roles_rejected(self):
        labels = ("WS1", "ADV1", "ADV2")
        with pytest.raises(ShapeError, match="multiple"):
            ddos.BotnetRoles.from_names(labels, ["ADV1"], ["ADV1"], ["WS1"])

    def test_needs_red_endpoints(self):
        with pytest.raises(ShapeError):
            ddos.BotnetRoles.from_labels(("WS1", "WS2"))


class TestDDoSComponents:
    def test_c2_red_space_only(self):
        m = ddos.command_and_control(10)
        assert active_blocks(m) == {(S.RED, S.RED)}

    def test_c2_only_among_c2_nodes(self):
        m = ddos.command_and_control(10)
        assert m["ADV1", "ADV2"] > 0
        assert m["ADV3", "ADV4"] == 0

    def test_botnet_tasking_identical(self):
        m = ddos.botnet_clients(10)
        vals = m.packets[m.packets > 0]
        assert vals.size == 8  # 2 C2 × 4 clients
        assert (vals == vals[0]).all()

    def test_attack_targets_victims(self):
        m = ddos.ddos_attack(10)
        assert m["EXT1", "SRV1"] == 9
        assert m["ADV3", "SRV1"] == 9
        assert m["ADV1", "SRV1"] == 0  # C2 stays out of the flood

    def test_attack_under_display_limit(self):
        assert ddos.ddos_attack(10).cells_over_display_limit() == []

    def test_backscatter_is_attack_transpose_pattern(self):
        atk = ddos.ddos_attack(10)
        bsc = ddos.backscatter(10)
        assert np.array_equal(bsc.packets > 0, atk.packets.T > 0)

    def test_backscatter_reply_rate(self):
        bsc = ddos.backscatter(10, packets=2)
        vals = bsc.packets[bsc.packets > 0]
        assert (vals == 2).all()

    def test_full_ddos_combines_all(self):
        m = ddos.full_ddos(10)
        assert m["ADV1", "ADV2"] > 0   # C2
        assert m["ADV1", "ADV3"] > 0   # tasking
        assert m["EXT1", "SRV1"] >= 9  # flood
        assert m["SRV1", "EXT1"] > 0   # backscatter

    def test_shared_roles_consistency(self):
        roles = ddos.BotnetRoles.from_labels(
            ("WS1", "WS2", "WS3", "SRV1", "EXT1", "EXT2", "ADV1", "ADV2", "ADV3", "ADV4")
        )
        atk = ddos.ddos_attack(10, roles=roles)
        bsc = ddos.backscatter(10, roles=roles)
        assert np.array_equal(bsc.packets.T > 0, atk.packets > 0)
