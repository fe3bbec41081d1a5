"""Oracle semantics: pass/skip verdicts, and fault injection that must fail.

The fault-injection fixture is the acceptance check for the whole subsystem:
a deliberately perturbed semiring whose multiplicative operator depends on
the *size* of the array it sees.  The serial ESC kernel applies ``mult`` to
one full expansion while the blocked kernel applies it per row block, so the
perturbation makes blocked results drift from serial ones — exactly the
class of tile-dependent kernel bug differential testing exists to catch.
"""

import pytest
from fault_fixtures import PERTURBED_SEMIRING, WRONG_SHAPE_INFER

from repro.assoc import planner, sparse
from repro.assoc.semiring import PLUS_TIMES
from repro.core.traffic_matrix import TrafficMatrix
from repro.runtime import backends
from repro.scenarios import NoiseSpec, OverlaySpec, ScenarioSpec
from repro.verify import (
    CacheDeltaOracle,
    ClassifierOracle,
    KernelEqualityOracle,
    MaskedEqualityOracle,
    OverlayMetamorphicOracle,
    RoundTripOracle,
    StaticShapesOracle,
    StreamPartitionOracle,
    default_oracles,
    make_corpus,
    run_corpus,
)


class TestKernelEqualityOracle:
    def test_passes_on_corpus_specs(self):
        oracle = KernelEqualityOracle()
        for spec in make_corpus(20, seed=31):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail

    def test_passes_on_empty_matrix(self):
        # isolated_links at n=1 builds an all-zero matrix
        verdict = KernelEqualityOracle().check(ScenarioSpec(base="isolated_links", n=1))
        assert verdict.passed

    def test_injected_fault_is_caught(self):
        oracle = KernelEqualityOracle(semiring=PERTURBED_SEMIRING)
        verdict = oracle.check(ScenarioSpec(base="clique", n=10, seed=3))
        assert verdict.failed
        assert "mxm" in verdict.detail

    def test_unperturbed_semiring_passes_where_fault_fails(self):
        spec = ScenarioSpec(base="clique", n=10, seed=3)
        assert KernelEqualityOracle().check(spec).passed
        assert KernelEqualityOracle(semiring=PERTURBED_SEMIRING).check(spec).failed

    def test_min_plus_semiring_also_verified(self):
        from repro.assoc.semiring import MIN_PLUS

        oracle = KernelEqualityOracle(semiring=MIN_PLUS)
        verdict = oracle.check(ScenarioSpec(base="ring", n=12, seed=5))
        assert verdict.passed, verdict.detail


@pytest.mark.skipif(not backends.has_scipy(), reason="scipy not installed")
class TestNativeRouteSpotCheck:
    """ESC spot-checks the native route for int64 and float64: a planted
    off-by-one there must fail both product oracles, naming the routed
    product and the dtype it broke."""

    SPEC = ScenarioSpec(base="clique", n=10, seed=3)

    @staticmethod
    def plant(monkeypatch, dtype):
        def planted(kernel):
            def wrong(*args):
                c = kernel(*args)
                data = c.data + 1 if c.dtype == dtype else c.data
                return sparse.CSRMatrix(c.shape, c.indptr, c.indices, data, _trusted=True)

            return wrong

        monkeypatch.setattr(planner, "_native_mxm", planted(planner._native_mxm))
        monkeypatch.setattr(planner, "_native_masked_mxm", planted(planner._native_masked_mxm))

    def test_oracles_pass_on_the_native_route(self):
        assert KernelEqualityOracle().check(self.SPEC).passed
        assert MaskedEqualityOracle().check(self.SPEC).passed

    @pytest.mark.parametrize("dtype", ["int64", "float64"])
    def test_kernel_equality_catches_native_off_by_one(self, monkeypatch, dtype):
        self.plant(monkeypatch, dtype)
        verdict = KernelEqualityOracle().check(self.SPEC)
        assert verdict.failed
        assert verdict.detail == f"mxm routed != ESC (plus.times, {dtype})"

    @pytest.mark.parametrize("dtype", ["int64", "float64"])
    def test_masked_equality_catches_native_off_by_one(self, monkeypatch, dtype):
        self.plant(monkeypatch, dtype)
        verdict = MaskedEqualityOracle().check(self.SPEC)
        assert verdict.failed
        assert verdict.detail == f"masked mxm routed != ESC (plus.times, {dtype})"


class TestRoundTripOracle:
    def test_passes_on_corpus_specs(self):
        oracle = RoundTripOracle()
        for spec in make_corpus(20, seed=32):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail

    def test_detects_non_roundtrippable_spec(self):
        # a params value JSON cannot carry (a tuple decodes as a list)
        spec = ScenarioSpec(base="mesh", n=6, params={"dims": (2, 3)})
        verdict = RoundTripOracle().check(spec)
        assert verdict.failed
        assert "from_json" in verdict.detail


class TestClassifierOracle:
    def test_noise_free_specs_classify_to_their_family(self):
        oracle = ClassifierOracle()
        for base in ("star", "ring", "security", "ddos_attack", "isolated_links"):
            verdict = oracle.check(ScenarioSpec(base=base, n=10, seed=1))
            assert verdict.passed, (base, verdict.detail)

    def test_directed_variants_classify(self):
        # the corpus fuzzer originally found mutual=False rejected as unknown
        oracle = ClassifierOracle()
        for base in ("ring", "triangle", "tree", "bipartite"):
            verdict = oracle.check(
                ScenarioSpec(base=base, n=6, params={"mutual": False})
            )
            assert verdict.passed, (base, verdict.detail)

    def test_composites_are_skipped(self):
        verdict = ClassifierOracle().check(ScenarioSpec(base="full_ddos", n=10))
        assert verdict.skipped

    def test_overlay_stacks_are_skipped(self):
        spec = ScenarioSpec(base="star", n=10, overlays=(OverlaySpec("ring"),))
        assert ClassifierOracle().check(spec).skipped

    def test_unclassifiable_family_is_skipped(self):
        verdict = ClassifierOracle().check(
            ScenarioSpec(base="background_noise", n=10, params={"density": 0.2})
        )
        assert verdict.skipped

    def test_empty_matrix_is_skipped(self):
        verdict = ClassifierOracle().check(ScenarioSpec(base="isolated_links", n=1))
        assert verdict.skipped

    def test_noise_above_threshold_is_stripped_not_skipped(self):
        spec = ScenarioSpec(base="star", n=10, seed=2, noise=NoiseSpec(density=0.3))
        verdict = ClassifierOracle(noise_threshold=0.0).check(spec)
        assert verdict.passed and not verdict.skipped

    def test_noise_below_threshold_is_classified_as_is(self):
        # density 0 noise adds nothing: classification must survive it as-is
        spec = ScenarioSpec(base="star", n=10, seed=2, noise=NoiseSpec(density=0.0))
        verdict = ClassifierOracle(noise_threshold=0.05).check(spec)
        assert verdict.passed

    def test_staging_botnet_ambiguity_is_documented_not_failed(self):
        # at sizes with one grey endpoint, staging == uniform botnet tasking
        verdict = ClassifierOracle().check(ScenarioSpec(base="staging", n=6))
        assert verdict.passed


class TestOverlayMetamorphicOracle:
    def test_single_layer_checks_provenance_only(self):
        verdict = OverlayMetamorphicOracle().check(ScenarioSpec(base="star", n=8))
        assert verdict.passed
        assert "provenance" in verdict.detail

    def test_overlay_stacks_are_order_insensitive(self):
        oracle = OverlayMetamorphicOracle()
        spec = ScenarioSpec(
            base="security",
            n=10,
            seed=4,
            overlays=(
                OverlaySpec("ddos_attack"),
                OverlaySpec("background_noise", {"density": 0.1}),
            ),
        )
        verdict = oracle.check(spec)
        assert verdict.passed, verdict.detail

    def test_passes_on_corpus_specs(self):
        oracle = OverlayMetamorphicOracle()
        for spec in make_corpus(20, seed=33):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail


class TestCacheDeltaOracle:
    def test_passes_on_overlay_free_spec(self):
        verdict = CacheDeltaOracle().check(ScenarioSpec(base="ring", n=12, seed=4))
        assert verdict.passed, verdict.detail

    def test_passes_on_noisy_overlaid_spec(self):
        spec = ScenarioSpec(
            base="star",
            n=14,
            seed=9,
            noise=NoiseSpec(density=0.1),
            overlays=(OverlaySpec("ddos_attack"), OverlaySpec("clique")),
        )
        verdict = CacheDeltaOracle().check(spec)
        assert verdict.passed, verdict.detail

    def test_passes_on_corpus_specs(self):
        oracle = CacheDeltaOracle()
        for spec in make_corpus(20, seed=37):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail

    def test_injected_delta_fault_is_caught(self, monkeypatch):
        """A delta path that perturbs one cell must fail the oracle."""
        from repro.scenarios import delta as delta_mod

        true_apply = delta_mod.apply_delta

        def corrupted(base_spec, delta, **kwargs):
            result = true_apply(base_spec, delta, **kwargs)
            stray = TrafficMatrix.from_edges([(0, 1, 1)], result.matrix.labels)
            broken = (result.matrix + stray).with_meta(**result.matrix.meta)  # one stray packet
            return type(result)(spec=result.spec, matrix=broken, stats=result.stats)

        monkeypatch.setattr(delta_mod, "apply_delta", corrupted)
        verdict = CacheDeltaOracle().check(ScenarioSpec(base="ring", n=10, seed=1))
        assert verdict.failed
        assert "delta rebuild != full rebuild" in verdict.detail

    def test_injected_cache_fault_is_caught(self, monkeypatch):
        """A cache that serves a stale/corrupted entry must fail the oracle."""
        from repro.scenarios.cache import ScenarioCache

        true_get = ScenarioCache.get

        def corrupted(self, spec):
            matrix = true_get(self, spec)
            if matrix is not None:
                stray = TrafficMatrix.from_edges([(0, 1, 1)], matrix.labels)
                matrix = (matrix + stray).with_meta(**matrix.meta)
            return matrix

        monkeypatch.setattr(ScenarioCache, "get", corrupted)
        verdict = CacheDeltaOracle().check(ScenarioSpec(base="ring", n=10, seed=1))
        assert verdict.failed
        assert "cache hit != direct build" in verdict.detail


class TestStaticShapesOracle:
    def test_passes_on_generated_matrices(self):
        oracle = StaticShapesOracle()
        for base, n, seed in [("star", 10, 3), ("ring", 8, 1), ("ddos_attack", 12, 5)]:
            verdict = oracle.check(ScenarioSpec(base=base, n=n, seed=seed))
            assert verdict.passed, verdict.detail

    def test_passes_on_single_entry_matrix(self):
        # nnz == 1 regression: building the float-promoted operand used to
        # crash CSRMatrix._validate on matrices with leading empty rows.
        verdict = StaticShapesOracle().check(
            ScenarioSpec(base="command_and_control", n=5, seed=0)
        )
        assert verdict.passed, verdict.detail

    def test_fault_injection_wrong_inference_is_caught(self):
        verdict = StaticShapesOracle(infer_fn=WRONG_SHAPE_INFER).check(
            ScenarioSpec(base="star", n=10, seed=3)
        )
        assert verdict.failed
        assert "inferred shape" in verdict.detail

    def test_fault_injection_survives_process_fanout(self):
        report = run_corpus(
            [ScenarioSpec(base="ring", n=8, seed=1)],
            oracles=[StaticShapesOracle(infer_fn=WRONG_SHAPE_INFER)],
            workers=2,
            backend="process",
            shrink=False,
        )
        assert not report.ok


class TestStreamPartitionOracle:
    def test_passes_on_corpus_specs(self):
        oracle = StreamPartitionOracle()
        for spec in make_corpus(20, seed=41):
            verdict = oracle.check(spec)
            assert verdict.passed, verdict.detail

    def test_empty_matrix_is_skipped(self):
        verdict = StreamPartitionOracle().check(ScenarioSpec(base="isolated_links", n=1))
        assert verdict.skipped

    def test_injected_lossy_merge_is_caught(self, monkeypatch):
        """A merge that drops a window must fail the oracle."""
        from repro.analysis import streaming

        true_merge = streaming.merge_windows

        def lossy(arrays):
            arrays = list(arrays)
            return true_merge(arrays[:-1] if len(arrays) > 2 else arrays)

        monkeypatch.setattr(streaming, "merge_windows", lossy)
        verdict = StreamPartitionOracle().check(ScenarioSpec(base="clique", n=10, seed=3))
        assert verdict.failed, verdict.detail

    def test_injected_unsorted_trusted_axes_are_caught(self, monkeypatch):
        """A trusted merge result whose axes break the axis rule must fail."""
        from repro.analysis import streaming
        from repro.assoc.array import AssociativeArray

        true_merge = streaming.merge_windows

        def reversed_axes(arrays):
            m = true_merge(arrays)
            return AssociativeArray(
                m.row_labels[::-1], m.col_labels[::-1], m.csr, _trusted=True
            )

        monkeypatch.setattr(streaming, "merge_windows", reversed_axes)
        verdict = StreamPartitionOracle().check(ScenarioSpec(base="clique", n=10, seed=3))
        assert verdict.failed, verdict.detail


class TestBattery:
    def test_default_battery_has_all_nine(self):
        names = [oracle.name for oracle in default_oracles()]
        assert names == [
            "kernel_equality",
            "masked_equality",
            "round_trip",
            "classifier_agreement",
            "overlay_metamorphic",
            "cache_delta",
            "static_shapes",
            "store_round_trip",
            "stream_partition",
        ]

    def test_oracles_are_picklable(self):
        import pickle

        for oracle in default_oracles():
            clone = pickle.loads(pickle.dumps(oracle))
            assert clone.name == oracle.name

    def test_default_semiring_is_plus_times(self):
        assert KernelEqualityOracle().semiring is PLUS_TIMES
