"""Consumer integrations: the runtime switch reaches the public pipelines."""

import numpy as np
import pytest

from repro import runtime
from repro.analysis.streaming import merge_windows, window_stream
from repro.assoc.array import AssociativeArray
from repro.core.traffic_matrix import TrafficMatrix
from repro.errors import LabelError
from repro.graphs.attack import full_attack
from repro.graphs.compose import overlay
from repro.graphs.ddos import full_ddos
from repro.graphs.defense import defense, deterrence, full_posture, security
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _pristine_runtime():
    runtime.reset()
    yield
    runtime.reset()


class TestTrafficMatrixBridge:
    def test_to_csr_round_trip(self, tpl10):
        m = full_attack(labels=tpl10.matrix.labels)
        csr = m.to_csr()
        assert csr.shape == m.shape
        assert np.array_equal(csr.to_dense(0), np.asarray(m.packets))

    def test_compose_counts_two_hop_traffic(self):
        labels = ["WS1", "WS2", "WS3"]
        hop1 = TrafficMatrix.from_edges([("WS1", "WS2", 2)], labels)
        hop2 = TrafficMatrix.from_edges([("WS2", "WS3", 3)], labels)
        relayed = hop1.compose(hop2)
        assert relayed["WS1", "WS3"] == 6
        assert relayed.total_packets() == 6

    def test_compose_semiring_by_name(self):
        labels = ["WS1", "WS2", "WS3"]
        m = TrafficMatrix.from_edges([("WS1", "WS2", 4), ("WS2", "WS3", 2)], labels)
        widest = m.compose(m, semiring="max.times")
        assert widest["WS1", "WS3"] == 8

    def test_compose_parallel_equals_serial(self):
        rng = np.random.default_rng(3)
        labels = [f"WS{i}" for i in range(1, 41)]
        m = TrafficMatrix(rng.integers(0, 3, (40, 40)), labels)
        serial = m.compose(m)
        with runtime.configured(workers=3, backend="thread", min_parallel_work=1, block_rows=7):
            parallel = m.compose(m)
        assert parallel == serial

    def test_compose_rejects_label_mismatch(self):
        a = TrafficMatrix.zeros(3, ["WS1", "WS2", "WS3"])
        b = TrafficMatrix.zeros(3, ["WS1", "WS2", "SRV1"])
        with pytest.raises(LabelError):
            a.compose(b)

    def test_compose_rejects_min_like_semirings(self):
        """Densifying min.plus would turn 'unreachable' into cost 0 — refuse."""
        from repro.errors import TrafficMatrixError

        m = TrafficMatrix.from_edges([("WS1", "WS2", 3)], ["WS1", "WS2", "WS3"])
        with pytest.raises(TrafficMatrixError, match="min"):
            m.compose(m, semiring="min.plus")


class TestOverlayRuntimePath:
    @staticmethod
    def _sparse_stack():
        """Large, sparse matrices: the profile where the CSR path engages."""
        labels = [f"WS{i}" for i in range(1, 65)]
        stack = []
        for seed in range(3):
            dense = np.zeros((64, 64), dtype=np.int64)
            g = np.random.default_rng(seed)
            dense[g.integers(0, 64, 50), g.integers(0, 64, 50)] = g.integers(1, 9, 50)
            stack.append(TrafficMatrix(dense, labels))
        return stack

    def test_sparse_overlay_matches_dense(self):
        stack = self._sparse_stack()
        dense = overlay(stack)
        before = obs_metrics.counter("kernels.parallel_ewise_union").value
        with runtime.configured(workers=3, backend="thread", min_parallel_work=1, block_rows=9):
            sparse = overlay(stack)
        assert sparse == dense
        assert sparse.extended_colors == dense.extended_colors
        # the union of the two later layers ran once, on the blocked engine
        assert obs_metrics.counter("kernels.parallel_ewise_union").value == before + 1

    def test_stays_dense_when_its_union_would_run_serially(self, monkeypatch):
        """The whole stack clears the work floor but the union of the later
        layers does not: overlay must not pay the CSR round trip for a union
        that then runs serially."""
        stack = self._sparse_stack()
        dense = overlay(stack)
        floor = sum(m.nnz() for m in stack)
        monkeypatch.setattr(TrafficMatrix, "to_csr", lambda self: pytest.fail("took the sparse path"))
        with runtime.configured(workers=3, backend="thread", min_parallel_work=floor):
            assert overlay(stack) == dense

    def test_dense_stack_stays_on_dense_path(self, tpl10):
        """Mostly-occupied matrices must not pay the CSR round trip."""
        stages = [full_attack(labels=tpl10.matrix.labels), full_ddos(labels=tpl10.matrix.labels)]
        serial = overlay(stages)
        with runtime.configured(workers=3, backend="thread", min_parallel_work=1):
            parallel = overlay(stages)
        assert parallel == serial

    def test_sparse_overlay_validates_labels(self):
        a = TrafficMatrix.zeros(3, ["WS1", "WS2", "WS3"])
        b = TrafficMatrix.zeros(3, ["WS1", "WS2", "SRV1"])
        with runtime.configured(workers=3, backend="thread", min_parallel_work=1):
            with pytest.raises(LabelError):
                overlay([a, b])


class TestFullPosture:
    def test_overlays_all_three_concepts(self):
        combined = full_posture()
        expected = security() + defense() + deterrence()
        assert np.array_equal(combined.packets, expected.packets)

    def test_parallel_equals_serial(self):
        serial = full_posture()
        with runtime.configured(workers=3, backend="thread", min_parallel_work=1):
            parallel = full_posture()
        assert parallel == serial


class TestMergeWindows:
    @staticmethod
    def _windows():
        events = [(f"S{i % 13}", f"D{i % 7}", 1 + i % 3) for i in range(2000)]
        return [w for w, _ in window_stream(events, window_size=256)]

    def test_empty_input(self):
        assert merge_windows([]) == AssociativeArray.empty()

    def test_single_window_passthrough(self):
        wins = self._windows()[:1]
        assert merge_windows(wins) == wins[0]

    def test_aggregate_preserves_totals(self):
        wins = self._windows()
        total = merge_windows(wins)
        assert int(total.sum()) == sum(int(w.sum()) for w in wins)

    def test_parallel_equals_serial(self):
        wins = self._windows()
        serial = merge_windows(wins)
        with runtime.configured(workers=4, backend="thread", min_parallel_work=1):
            parallel = merge_windows(wins)
        assert parallel == serial
