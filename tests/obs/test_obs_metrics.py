"""Unit coverage for the always-on metrics half of repro.obs."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import metrics as obs


class TestCounter:
    def test_inc_accumulates(self):
        c = obs.counter("t.counter")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_rejected(self):
        with pytest.raises(ObservabilityError):
            obs.counter("t.counter").inc(-1)

    def test_same_name_same_object(self):
        assert obs.counter("t.same") is obs.counter("t.same")


class TestGauge:
    def test_set_inc_dec(self):
        g = obs.gauge("t.gauge")
        g.set(10.0)
        g.inc(2.5)
        g.dec()
        assert g.value == pytest.approx(11.5)


class TestHistogram:
    def test_scalars_are_exact(self):
        h = obs.histogram("t.hist")
        for v in (0.25, 1.0, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(104.25)
        assert h.mean == pytest.approx(104.25 / 4)
        d = h.to_dict()
        assert d["min"] == 0.25 and d["max"] == 100.0

    def test_bucket_exponents(self):
        # bucket e covers (2^(e-1), 2^e]: exact powers land in their own bucket
        assert obs.bucket_exponent(1.0) == 0
        assert obs.bucket_exponent(2.0) == 1
        assert obs.bucket_exponent(2.0001) == 2
        assert obs.bucket_exponent(0.5) == -1
        assert obs.bucket_exponent(3.0) == 2
        # clamps at both ends, and non-positive folds to the lowest bucket
        assert obs.bucket_exponent(0.0) == -20
        assert obs.bucket_exponent(1e-30) == -20
        assert obs.bucket_exponent(1e30) == 40

    def test_bucket_counts(self):
        h = obs.histogram("t.buckets")
        for v in (1.0, 1.5, 2.0, 3.0):
            h.observe(v)
        buckets = h.to_dict()["buckets"]
        assert buckets == {"le_2^0": 1, "le_2^1": 2, "le_2^2": 1}

    def test_empty_histogram_has_null_extrema(self):
        d = obs.histogram("t.empty").to_dict()
        assert d["count"] == 0 and d["min"] is None and d["max"] is None


class TestRegistry:
    def test_kind_mismatch_raises(self):
        obs.counter("t.kind")
        with pytest.raises(ObservabilityError):
            obs.gauge("t.kind")
        with pytest.raises(ObservabilityError):
            obs.histogram("t.kind")

    def test_bad_names_rejected(self):
        with pytest.raises(ObservabilityError):
            obs.counter("")
        with pytest.raises(ObservabilityError):
            obs.counter(None)  # type: ignore[arg-type]

    def test_kind_mismatch_raises_on_every_lookup(self):
        gauge = obs.gauge("t.kind2")
        for _ in range(3):
            assert obs.gauge("t.kind2") is gauge
            with pytest.raises(ObservabilityError, match="is a Gauge"):
                obs.counter("t.kind2")

    @pytest.mark.parametrize("name", ["", None, []], ids=["empty", "none", "list"])
    def test_bad_name_kinds_raise_observability_error(self, name):
        registry = obs.MetricsRegistry()
        for make in (registry.counter, registry.gauge, registry.histogram):
            with pytest.raises(ObservabilityError, match="non-empty strings"):
                make(name)  # type: ignore[arg-type]

    def test_reset_then_lookup_gives_a_fresh_metric(self):
        old = obs.counter("t.fresh")
        old.inc(5)
        obs.reset_metrics()
        new = obs.counter("t.fresh")
        assert new is not old and new.value == 0
        assert obs.counter("t.fresh") is new

    def test_threads_asking_for_one_name_get_one_object(self):
        import sys
        import threading

        registry = obs.MetricsRegistry()
        barrier = threading.Barrier(8)
        seen: list[list[obs.Counter]] = [[] for _ in range(8)]

        def ask(k):
            barrier.wait(timeout=10)
            for _ in range(200):
                counter = registry.counter("t.race")
                counter.inc()
                seen[k].append(counter)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        first = seen[0][0]
        assert all(metric is first for per_thread in seen for metric in per_thread)
        assert sum(map(len, seen)) == 1600 and first.value == 1600

    def test_snapshot_groups_and_is_json_able(self):
        obs.counter("t.c").inc(3)
        obs.gauge("t.g").set(1.5)
        obs.histogram("t.h").observe(2.0)
        snap = obs.snapshot()
        assert snap["counters"]["t.c"] == 3
        assert snap["gauges"]["t.g"] == 1.5
        assert snap["histograms"]["t.h"]["count"] == 1
        json.dumps(snap)  # must be serialisable as-is

    def test_merge_snapshot_is_additive_for_counters_and_histograms(self):
        obs.counter("t.c").inc(2)
        obs.gauge("t.g").set(1.0)
        obs.histogram("t.h").observe(1.0)
        remote = obs.MetricsRegistry()
        remote.counter("t.c").inc(5)
        remote.gauge("t.g").set(9.0)
        remote.histogram("t.h").observe(4.0)
        remote.histogram("t.h").observe(0.25)
        obs.merge_snapshot(remote.snapshot())
        assert obs.counter("t.c").value == 7
        assert obs.gauge("t.g").value == 9.0  # gauges: last write wins
        h = obs.histogram("t.h").to_dict()
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(5.25)
        assert h["min"] == 0.25 and h["max"] == 4.0

    def test_reset_clears_everything(self):
        obs.counter("t.c").inc()
        obs.reset_metrics()
        snap = obs.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_private_registries_are_independent(self):
        private = obs.MetricsRegistry()
        private.counter("t.c").inc(100)
        assert obs.counter("t.c").value == 0
