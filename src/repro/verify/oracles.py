"""Differential-testing oracles: independent paths that must agree.

Each oracle takes one :class:`~repro.scenarios.ScenarioSpec` and returns an
:class:`OracleVerdict`.  The theme is MindOpt-style adapter-level differential
benchmarking: run the *same* workload through independent implementations
(serial vs blocked kernels, spec vs its JSON round trip, generator vs
classifier, overlay order vs its permutation) and demand agreement.  An
oracle never mutates global runtime state, so corpora can be fanned over the
process-pool executors — every oracle here is a picklable frozen dataclass.

Verdicts are three-valued: *passed*, *failed*, or *skipped* (the oracle does
not apply to this spec — e.g. the classifier oracle on a composite base).
Skips are recorded, not silently dropped, so a corpus report shows exactly
how much each oracle covered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro.assoc.blocked import (
    parallel_coalesce,
    parallel_ewise_intersect,
    parallel_ewise_union,
    parallel_masked_intersect,
    parallel_masked_mxm,
    parallel_masked_mxv,
    parallel_mxm,
    parallel_mxv,
    parallel_union_all,
)
from repro.assoc.planner import _dispatch_masked_mxm
from repro.assoc.semiring import PLUS_MONOID, PLUS_TIMES, Monoid, Semiring
from repro.assoc.sparse import (
    CSRMatrix,
    _coalesce_core,
    _masked_intersect_serial,
    _masked_mxm_serial,
    _masked_mxv_serial,
    _union_all_serial,
    masked_select,
)
from repro.runtime.config import RuntimeConfig, serial_region
from repro.scenarios.registry import get_generator
from repro.scenarios.spec import OverlaySpec, ScenarioSpec

__all__ = [
    "OracleVerdict",
    "Oracle",
    "KernelEqualityOracle",
    "MaskedEqualityOracle",
    "RoundTripOracle",
    "ClassifierOracle",
    "OverlayMetamorphicOracle",
    "CacheDeltaOracle",
    "StaticShapesOracle",
    "StoreRoundTripOracle",
    "StreamPartitionOracle",
    "default_oracles",
]


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle on one spec."""

    oracle: str
    passed: bool
    skipped: bool = False
    detail: str = ""

    @property
    def failed(self) -> bool:
        return not self.passed and not self.skipped


@runtime_checkable
class Oracle(Protocol):
    """The pluggable oracle contract: a name and a pure ``check``."""

    name: str

    def check(self, spec: ScenarioSpec) -> OracleVerdict:  # pragma: no cover
        ...


def _passed(name: str, detail: str = "") -> OracleVerdict:
    return OracleVerdict(oracle=name, passed=True, detail=detail)


def _failed(name: str, detail: str) -> OracleVerdict:
    return OracleVerdict(oracle=name, passed=False, detail=detail)


def _skipped(name: str, detail: str) -> OracleVerdict:
    return OracleVerdict(oracle=name, passed=False, skipped=True, detail=detail)


def _csr_identical(a: CSRMatrix, b: CSRMatrix) -> bool:
    """Bit-identity: same shape, structure, values, and dtype."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _route_operands(a: CSRMatrix, semiring: Semiring) -> tuple[CSRMatrix, ...]:
    """The operands a routed product is audited on: the corpus matrix, and
    for ``plus.times`` also its row-normalised float64 copy (the traffic
    analyst's transition matrix), so the native route is checked for both
    dtypes it takes.
    """
    if semiring is not PLUS_TIMES:
        return (a,)
    totals = np.asarray(a.reduce_rows(), dtype=np.float64)
    totals[totals == 0] = 1.0
    scaled = a.data / np.repeat(totals, a.row_nnz())
    return a, CSRMatrix(a.shape, a.indptr, a.indices, scaled, _trusted=True)


# --------------------------------------------------------------------------- #
# 1. serial vs blocked-parallel kernel equality
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class KernelEqualityOracle:
    """Serial kernels vs their row-blocked decomposition, bit for bit.

    The corpus matrix is converted to CSR and pushed through every kernel the
    blocked engine parallelises (``mxm``, ``mxv``, ``ewise_union``,
    ``ewise_intersect``, ``coalesce``) twice: once on the plain serial path
    and once through its ``parallel_*`` entry point in
    :mod:`repro.assoc.blocked` with a deliberately tiny ``block_rows`` so
    every matrix splits into several blocks.  Results must be identical to the bit (values, structure, dtype).
    The routed serial ``mxm`` (the native scipy route for ``plus.times``)
    must also equal the ESC product, on the int64 corpus matrix and on its
    row-normalised float64 copy: ESC is the exact reference that
    spot-checks the fast route.

    The blocked evaluation runs on a serial executor by design: the *math*
    of the tiled decomposition is what differential testing probes here, and
    keeping the oracle executor-free lets :func:`repro.verify.run_corpus`
    fan whole corpora over thread/process pools without nesting pools inside
    worker tasks.  ``semiring``/``monoid`` are injectable so a test fixture
    can plant a perturbed operator and watch this oracle catch it.
    """

    semiring: Semiring = PLUS_TIMES
    monoid: Monoid = PLUS_MONOID
    block_rows: int = 3

    name = "kernel_equality"

    def _config(self) -> RuntimeConfig:
        return RuntimeConfig(workers=1, backend="serial", block_rows=self.block_rows)

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        cfg = self._config()
        a = spec.build().to_csr()
        at = a.transpose()
        rng = np.random.default_rng(spec.seed)
        x = rng.integers(0, 5, size=a.shape[1]).astype(np.int64)

        for m in _route_operands(a, self.semiring):
            with serial_region():
                routed_mxm = m.mxm(m, self.semiring)
            if not _csr_identical(routed_mxm, m._mxm_serial(m, self.semiring)):
                return _failed(self.name, f"mxm routed != ESC ({self.semiring.name}, {m.dtype})")
        serial_mxm = a._mxm_serial(a, self.semiring)
        blocked_mxm = parallel_mxm(a, a, self.semiring, cfg)
        if not _csr_identical(serial_mxm, blocked_mxm):
            return _failed(self.name, f"mxm serial != blocked ({self.semiring.name})")
        if self.semiring is PLUS_TIMES:
            dense_ref = a.to_dense(0) @ a.to_dense(0)
            if not np.array_equal(blocked_mxm.to_dense(0), dense_ref):
                return _failed(self.name, "mxm disagrees with dense reference")

        serial_mxv = a._mxv_serial(x, self.semiring)
        blocked_mxv = parallel_mxv(a, x, self.semiring, cfg)
        if serial_mxv.dtype != blocked_mxv.dtype or not np.array_equal(
            serial_mxv, blocked_mxv
        ):
            return _failed(self.name, f"mxv serial != blocked ({self.semiring.name})")

        serial_union = a._ewise_union_serial(at, self.monoid)
        blocked_union = parallel_ewise_union(a, at, self.monoid, cfg)
        if not _csr_identical(serial_union, blocked_union):
            return _failed(self.name, f"ewise_union serial != blocked ({self.monoid.name})")

        mult = self.semiring.mult
        serial_inter = a._ewise_intersect_serial(at, mult)
        blocked_inter = parallel_ewise_intersect(a, at, mult, cfg)
        if not _csr_identical(serial_inter, blocked_inter):
            return _failed(self.name, f"ewise_intersect serial != blocked ({mult.name})")

        rows, cols, vals = a.triples()
        rows = np.concatenate([rows, rows])
        cols = np.concatenate([cols, cols])
        vals = np.concatenate([vals, vals])
        order = rng.permutation(rows.size)
        rows, cols, vals = rows[order], cols[order], vals[order]
        s_r, s_c, s_v = _coalesce_core(rows, cols, vals, a.shape, self.monoid)
        p_r, p_c, p_v = parallel_coalesce(rows, cols, vals, a.shape, self.monoid, cfg)
        if not (
            np.array_equal(s_r, p_r)
            and np.array_equal(s_c, p_c)
            and np.array_equal(s_v, p_v)
            and s_v.dtype == p_v.dtype
        ):
            return _failed(self.name, f"coalesce serial != blocked ({self.monoid.name})")

        return _passed(self.name, f"5 kernels agree at block_rows={self.block_rows}")


# --------------------------------------------------------------------------- #
# 1b. lazy-masked ≡ eager-then-filter
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MaskedEqualityOracle:
    """Fused masked evaluation vs independent eager-then-filter references.

    Every corpus matrix is pushed through the expression layer's masked
    kernels three ways — serial fused, row-blocked fused (deliberately tiny
    blocks), and the lazy ``.new(mask=…)`` surface — and each must be
    bit-identical to an *independent* dense reference that materialises the
    full result and zeroes the masked-out cells.  Covered: masked ``mxm``
    (plain and complement), the fused n-ary union, the masked intersection,
    ``masked_select``, masked ``mxv``, and the mask+accumulator assignment
    rule.  The routed serial masked ``mxm`` (native for ``plus.times``) must
    equal the fused ESC kernel, on the int64 corpus matrix and on its
    row-normalised float64 copy.  The structural mask is drawn
    deterministically from the spec seed, so the corpus replays identically
    everywhere.

    Like :class:`KernelEqualityOracle`, the blocked paths run on an explicit
    serial config so whole corpora can fan over thread/process pools without
    nesting executors.
    """

    semiring: Semiring = PLUS_TIMES
    monoid: Monoid = PLUS_MONOID
    block_rows: int = 3
    mask_density: float = 0.3

    name = "masked_equality"

    def _config(self) -> RuntimeConfig:
        return RuntimeConfig(workers=1, backend="serial", block_rows=self.block_rows)

    @staticmethod
    def _filtered_ref(result: CSRMatrix, allow: np.ndarray) -> CSRMatrix:
        """Independent reference: densify, zero the disallowed cells, rebuild."""
        dense = result.to_dense(0)
        dense = np.where(allow, dense, 0)
        rows, cols = np.nonzero(dense)
        return CSRMatrix.from_triples(
            rows, cols, dense[rows, cols].astype(result.dtype), result.shape
        )

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        from repro.assoc import expr

        cfg = self._config()
        a = spec.build().to_csr()
        at = a.transpose()
        n = a.shape[0]
        rng = np.random.default_rng(spec.seed + 7)
        allow = rng.random(a.shape) < self.mask_density
        mask = CSRMatrix.from_dense(allow)
        sr, add = self.semiring, self.monoid

        # masked mxm: routed ≡ fused serial ≡ fused blocked ≡ lazy surface ≡ dense ref
        for m in _route_operands(a, sr):
            with serial_region():
                routed = _dispatch_masked_mxm(m, m, sr, mask)
            if not _csr_identical(routed, _masked_mxm_serial(m, m, sr, mask)):
                return _failed(self.name, f"masked mxm routed != ESC ({sr.name}, {m.dtype})")
        fused = _masked_mxm_serial(a, a, sr, mask)
        eager = a._mxm_serial(a, sr)
        for complement, allowed in ((False, allow), (True, ~allow)):
            ref = self._filtered_ref(eager, allowed)
            lazy_out = expr.lazy(a).mxm(a, sr).new(mask=mask, complement=complement)
            if not _csr_identical(lazy_out, ref):
                return _failed(self.name, f"lazy masked mxm != eager-then-filter (complement={complement})")
            if not complement:
                blocked = parallel_masked_mxm(a, a, sr, mask, cfg)
                if not (_csr_identical(fused, ref) and _csr_identical(blocked, ref)):
                    return _failed(self.name, "fused masked mxm != eager-then-filter")
                plan = expr.lazy(a).mxm(a, sr).plan(mask=mask)
                if plan.materializes_unmasked or "masked_mxm" not in plan.kernels:
                    return _failed(self.name, f"planner did not fuse the mask: {plan.describe()}")

        # fused n-ary masked union over [A, Aᵀ, A]
        parts = [a, at, a]
        eager_union = a._ewise_union_serial(at, add)._ewise_union_serial(a, add)
        for complement, allowed in ((False, allow), (True, ~allow)):
            ref = self._filtered_ref(eager_union, allowed)
            fused = _union_all_serial(parts, add, mask, complement)
            blocked = parallel_union_all(parts, add, mask, complement, cfg)
            lazy_out = (expr.lazy(a) + at + a).new(mask=mask, complement=complement)
            if not (
                _csr_identical(fused, ref)
                and _csr_identical(blocked, ref)
                and _csr_identical(lazy_out, ref)
            ):
                return _failed(self.name, f"masked union != eager-then-filter (complement={complement})")

        # masked intersection A ⊗ Aᵀ
        mult = sr.mult
        eager_inter = a._ewise_intersect_serial(at, mult)
        for complement, allowed in ((False, allow), (True, ~allow)):
            ref = self._filtered_ref(eager_inter, allowed)
            fused = _masked_intersect_serial(a, at, mult, mask, complement)
            blocked = parallel_masked_intersect(a, at, mult, mask, complement, cfg)
            if not (_csr_identical(fused, ref) and _csr_identical(blocked, ref)):
                return _failed(self.name, f"masked intersect != eager-then-filter (complement={complement})")

        # masked select of the operand itself
        for complement, allowed in ((False, allow), (True, ~allow)):
            ref = self._filtered_ref(a, allowed)
            if not _csr_identical(masked_select(a, mask, complement), ref):
                return _failed(self.name, f"masked select != eager-then-filter (complement={complement})")

        # masked mxv: unselected rows carry the additive identity
        x = rng.integers(0, 5, size=n).astype(np.int64)
        row_allow = rng.random(n) < 0.5
        y_ref = a._mxv_serial(x, sr)
        y_ref = np.where(row_allow, y_ref, sr.add.identity(y_ref.dtype))
        y_fused = _masked_mxv_serial(a, x, sr, row_allow)
        y_blocked = parallel_masked_mxv(a, x, sr, row_allow, cfg)
        y_lazy = expr.lazy(a).mxv(x, sr).new(mask=row_allow)
        if not (
            np.array_equal(y_ref, y_fused)
            and np.array_equal(y_ref, y_blocked)
            and np.array_equal(y_ref, y_lazy)
            and y_ref.dtype == y_fused.dtype == y_blocked.dtype == y_lazy.dtype
        ):
            return _failed(self.name, "masked mxv != eager-then-filter")

        # mask + accumulator assignment vs a dense model of the GraphBLAS rule
        result = masked_select(at, mask, False)
        for replace in (False, True):
            assigned = expr.apply_assign(a, result, expr.Mask(mask), PLUS_MONOID, replace)
            old_d = a.to_dense(0)
            res_d = result.to_dense(0)
            po, pr = old_d != 0, res_d != 0
            out = np.where(pr & po, old_d + res_d, np.where(pr, res_d, old_d))
            if replace:
                out = np.where(~allow & po & ~pr, 0, out)
            if not np.array_equal(assigned.to_dense(0), out):
                return _failed(self.name, f"accum assignment diverged (replace={replace})")

        return _passed(self.name, "6 masked paths agree with eager-then-filter")


# --------------------------------------------------------------------------- #
# 2. spec → JSON → spec → matrix round trip
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RoundTripOracle:
    """Serialisation is lossless and provenance is rebuildable.

    ``spec → to_json → from_json`` must reproduce the spec, both documents
    must build bit-identical matrices, and the provenance metadata stamped on
    the built matrix must itself rebuild the same matrix — three independent
    representations of one scenario.
    """

    name = "round_trip"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        decoded = ScenarioSpec.from_json(spec.to_json())
        if decoded != spec:
            return _failed(self.name, "spec != from_json(to_json(spec))")
        built = spec.build()
        rebuilt = decoded.build()
        if built != rebuilt or built.meta != rebuilt.meta:
            return _failed(self.name, "decoded spec builds a different matrix")
        provenance = built.meta.get("scenario")
        if provenance != spec.to_dict():
            return _failed(self.name, "provenance metadata != spec document")
        if ScenarioSpec.from_dict(provenance).build() != built:
            return _failed(self.name, "provenance document does not rebuild the matrix")
        return _passed(self.name)


# --------------------------------------------------------------------------- #
# 3. classifier agreement
# --------------------------------------------------------------------------- #

#: Structural ambiguities the classifier cannot resolve even in principle:
#: at sizes with a single grey-space endpoint, ``staging`` (red→grey with no
#: grey↔grey replication) is cell-for-cell identical to uniform botnet
#: tasking, so either answer is correct.
CLASSIFIER_AMBIGUITIES: dict[str, frozenset[str]] = {
    "staging": frozenset({"botnet_clients"}),
}

#: Families whose generators the rule-based classifiers cover.
_CLASSIFIABLE_FAMILIES = frozenset({"pattern", "topology", "attack", "defense", "ddos"})


@dataclass(frozen=True)
class ClassifierOracle:
    """The rule-based classifier must recover the generating family.

    For every non-composite, overlay-free spec, :func:`classify_spec` runs
    the matrix back through the structural classifiers; the predicted label
    (in registry vocabulary) must belong to the same family that generated
    it, modulo the documented :data:`CLASSIFIER_AMBIGUITIES`.

    Noise handling: specs whose noise density is at or below
    ``noise_threshold`` are classified as-is (classification must survive
    that much chatter); noisier specs are classified with the noise stage
    stripped, so the generator↔classifier agreement is still exercised on
    every spec the corpus draws.  The structural classifiers are exact by
    design — a single stray cell can change a star into "unknown" — so the
    default threshold is 0.0; raise it deliberately in tests that construct
    noise known not to land.
    """

    noise_threshold: float = 0.0

    name = "classifier_agreement"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        info = get_generator(spec.base)
        if info.family not in _CLASSIFIABLE_FAMILIES:
            return _skipped(self.name, f"family {info.family!r} has no classifier")
        if "composite" in info.tags:
            return _skipped(self.name, f"{spec.base!r} is a multi-family composite")
        if spec.overlays:
            return _skipped(self.name, "overlay stacks are composites")

        target = spec
        if spec.noise is not None and spec.noise.density > self.noise_threshold:
            target = replace(spec, noise=None)
        matrix = target.build()
        if matrix.nnz() == 0:
            return _skipped(self.name, "empty matrix carries no signature")

        from repro.graphs.classify import classify_matrix

        # classify_matrix already reports registry vocabulary (aliases resolved)
        canonical = predicted = classify_matrix(matrix, info.family)
        if canonical in CLASSIFIER_AMBIGUITIES.get(info.name, frozenset()):
            return _passed(self.name, f"{predicted!r} accepted (documented ambiguity)")
        try:
            predicted_family = get_generator(canonical).family
        except Exception:
            predicted_family = "unknown"
        if predicted_family != info.family:
            return _failed(
                self.name,
                f"{spec.base!r} ({info.family}) classified as {predicted!r} "
                f"({predicted_family})",
            )
        return _passed(self.name, f"classified as {predicted!r}")


# --------------------------------------------------------------------------- #
# 4. metamorphic overlay properties
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class OverlayMetamorphicOracle:
    """Overlay composition is order-insensitive and provenance-preserving.

    :func:`repro.graphs.compose.overlay` sums layers with the commutative
    ``plus`` monoid and resolves colours by a per-cell priority rule, so any
    permutation of the same materialised layers must produce the same matrix
    — packets, labels, and colours.  The built matrix must also carry the
    full spec document as provenance.  Specs without overlays only exercise
    the provenance half (a single layer has one ordering).
    """

    name = "overlay_metamorphic"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        from repro.graphs.compose import overlay

        built = spec.build()
        if built.meta.get("scenario") != spec.to_dict():
            return _failed(self.name, "provenance metadata lost in composition")
        if not spec.overlays:
            return _passed(self.name, "single layer; provenance verified")

        layers = spec.layer_matrices()
        forward = overlay(layers)
        for label, permuted in (
            ("reversed", list(reversed(layers))),
            ("rotated", layers[1:] + layers[:1]),
        ):
            other = overlay(permuted)
            if forward != other:
                return _failed(
                    self.name,
                    f"overlay of {len(layers)} layers changed under {label} order",
                )
        return _passed(self.name, f"{len(layers)}-layer overlay is order-insensitive")


# --------------------------------------------------------------------------- #
# 5. cache transparency and delta-rebuild bit-identity
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CacheDeltaOracle:
    """The cache serves bit-identical results and delta rebuilds match full ones.

    Two independent claims the scenario service stands on, fuzzed per spec:

    * **Cache transparency** — routing a spec through a fresh
      :class:`~repro.scenarios.ScenarioCache` twice must produce the direct
      ``spec.build()`` result both times, packets *and* provenance metadata,
      with the analytics counting exactly one miss then one hit.  The cache
      must be unobservable except in speed.
    * **Delta bit-identity** — splitting the spec into a base plus its last
      overlay (or, for overlay-free specs, appending the spec's own base
      generator as a synthetic delta layer) and rebuilding through
      :func:`~repro.scenarios.apply_delta` must reproduce the full
      from-scratch build of the combined spec bit for bit, noise and
      provenance included — the row-blocked incremental path against the
      monolithic one.
    """

    name = "cache_delta"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        from repro.scenarios.batch import generate_batch
        from repro.scenarios.cache import ScenarioCache
        from repro.scenarios.delta import apply_delta, extend_spec

        direct = spec.build()

        cache = ScenarioCache()
        first = generate_batch([spec], cache=cache)[0]
        second = generate_batch([spec], cache=cache)[0]
        if first != direct or first.meta != direct.meta:
            return _failed(self.name, "cache miss path != direct build")
        if second != direct or second.meta != direct.meta:
            return _failed(self.name, "cache hit != direct build")
        analytics = cache.analytics()
        if analytics.misses != 1 or analytics.hits != 1:
            return _failed(
                self.name,
                f"analytics miscounted: {analytics.misses} misses, "
                f"{analytics.hits} hits (expected 1 and 1)",
            )

        if spec.overlays:
            base = replace(spec, overlays=spec.overlays[:-1])
            delta = spec.overlays[-1:]
        else:
            base = spec
            delta = (OverlaySpec(spec.base, dict(spec.params)),)
        target = extend_spec(base, delta)
        full = target.build()
        result = apply_delta(base, delta, cache=ScenarioCache())
        if result.spec != target:
            return _failed(self.name, "apply_delta built the wrong combined spec")
        if result.matrix != full or result.matrix.meta != full.meta:
            return _failed(
                self.name,
                f"delta rebuild != full rebuild of {target.base!r} "
                f"(+{len(delta)} overlay)",
            )
        return _passed(
            self.name,
            f"cache transparent; delta recomputed "
            f"{result.stats.rows_recomputed}/{result.stats.rows} rows identically",
        )


# --------------------------------------------------------------------------- #
# 6. static shape/dtype inference vs runtime observation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StaticShapesOracle:
    """:func:`repro.staticcheck.shapes.infer` must agree with reality.

    For every corpus spec, an expression battery is built over the scenario
    matrix — ``mxm`` (plain, masked, float-promoting), a fused 3-way union,
    an intersection, a transpose above a product, ``mxv`` and ``reduce_rows``
    (plain and row-masked) — and each tree is typed **statically** and then
    **executed**; inferred shape and dtype must match the observed result
    exactly.  The battery also checks the negative direction: a
    raw-constructed inner-dimension-mismatched ``MxM`` (which the builder
    methods would have refused) must be *rejected* by inference, proving
    ``Plan.typecheck()`` catches trees that previously failed only inside a
    kernel.

    The battery sticks to ``PLUS_TIMES``, for which the eager ``mxm``
    kernel's empty-operand dtype degradation (``np.result_type`` instead of
    the ufunc probe) is invisible — so agreement is exact even on empty
    corpus matrices.

    ``infer_fn`` is the fault-injection seam: tests plant a deliberately
    wrong (module-level, picklable) inference function and this oracle must
    fail, proving the agreement check has teeth.
    """

    mask_density: float = 0.3
    infer_fn: object | None = None

    name = "static_shapes"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        from repro.assoc import expr as E
        from repro.errors import ShapeInferenceError
        from repro.staticcheck import shapes

        infer = self.infer_fn if self.infer_fn is not None else shapes.infer

        a = spec.build().to_csr()
        at = a.transpose()
        a_float = CSRMatrix(a.shape, a.indptr, a.indices, a.data.astype(np.float64))
        rng = np.random.default_rng(spec.seed + 13)
        mask = CSRMatrix.from_dense(rng.random(a.shape) < self.mask_density)

        battery: list[tuple[str, E.MatExpr, CSRMatrix | None]] = [
            ("mxm", E.as_expr(a).mxm(at, PLUS_TIMES), None),
            ("masked_mxm", E.as_expr(a).mxm(at, PLUS_TIMES), mask),
            ("mxm_float", E.as_expr(a).mxm(a_float, PLUS_TIMES), None),
            ("union3", E.as_expr(a) + at + a_float, mask),
            (
                "intersect",
                E.as_expr(a).ewise(at, PLUS_TIMES.mult, how="intersect"),
                None,
            ),
            ("transpose_mxm", E.as_expr(a).mxm(at, PLUS_TIMES).transpose(), None),
        ]
        for label, tree, m in battery:
            try:
                inferred = infer(tree, m)
            except ShapeInferenceError as exc:
                return _failed(self.name, f"{label}: inference rejected a valid tree: {exc}")
            observed = tree.new(mask=m)
            if tuple(inferred.shape) != observed.shape:
                return _failed(
                    self.name,
                    f"{label}: inferred shape {inferred.shape} != observed "
                    f"{observed.shape}",
                )
            if np.dtype(inferred.dtype) != observed.dtype:
                return _failed(
                    self.name,
                    f"{label}: inferred dtype {np.dtype(inferred.dtype)} != "
                    f"observed {observed.dtype}",
                )

        # vector half (always the real inference: the seam covers matrices)
        x = rng.integers(0, 5, size=a.shape[1]).astype(np.int64)
        row_allow = rng.random(a.shape[0]) < 0.5
        vec_battery: list[tuple[str, E.VecExpr, np.ndarray | None]] = [
            ("mxv", E.as_expr(a).mxv(x, PLUS_TIMES), None),
            ("masked_mxv", E.as_expr(a).mxv(x, PLUS_TIMES), row_allow),
            ("reduce_rows", E.as_expr(a).reduce_rows(PLUS_MONOID), None),
            ("masked_reduce", E.as_expr(a).reduce_rows(PLUS_MONOID), row_allow),
        ]
        for label, vtree, allow in vec_battery:
            inferred = shapes.infer_vec(vtree, allow)
            observed_v = vtree.new(mask=allow)
            if tuple(inferred.shape) != observed_v.shape or np.dtype(
                inferred.dtype
            ) != observed_v.dtype:
                return _failed(
                    self.name,
                    f"{label}: inferred {inferred} != observed "
                    f"{observed_v.shape} {observed_v.dtype}",
                )

        # negative direction: the raw-constructed mismatch must be rejected
        wrong = CSRMatrix.empty((a.shape[1] + 1, a.shape[1]), a.dtype)
        bad = E.MxM(E.MatLeaf(a), E.MatLeaf(wrong), PLUS_TIMES)  # staticcheck: ignore[SHP001]
        plan = bad.plan()
        try:
            plan.typecheck()
        except ShapeInferenceError:
            pass
        else:
            return _failed(
                self.name,
                "Plan.typecheck() accepted an inner-dimension-mismatched MxM",
            )

        return _passed(
            self.name,
            f"{len(battery)}+{len(vec_battery)} expressions typed identically "
            f"to execution; mismatched tree rejected",
        )


# --------------------------------------------------------------------------- #
# 7. durable store round trip vs direct build
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StoreRoundTripOracle:
    """The disk round trip is bit-identical and corruption never goes quiet.

    Extends the bit-identity contract to :mod:`repro.store`, fuzzed per spec:

    * **Round-trip identity** — ``put`` into a fresh store, reopen the same
      directory as a *new* store instance (a stand-in for a new process: no
      shared state survives but the files), and ``get`` must reproduce the
      direct ``spec.build()`` result exactly — packets, colours, labels, and
      provenance metadata.
    * **Upsert idempotence** — a second ``put`` of the same spec leaves
      exactly one index row (``writes`` bumped, nothing duplicated).
    * **Integrity enforcement** — flipping one byte of the stored blob must
      make ``get`` raise :class:`~repro.errors.StoreIntegrityError`; a store
      that serves corrupt bytes quietly fails the oracle.

    ``fsync`` defaults off: the oracle exercises framing and integrity, not
    the disk cache, and fuzz corpora run this hundreds of times.
    """

    name = "store_round_trip"
    fsync: bool = False

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        import shutil
        import tempfile

        from repro.errors import StoreIntegrityError
        from repro.store import ScenarioStore

        direct = spec.build()
        root = tempfile.mkdtemp(prefix="repro_store_oracle_")
        try:
            with ScenarioStore(root, fsync=self.fsync) as store:
                key = store.put(spec, direct)
            with ScenarioStore(root, fsync=self.fsync) as reopened:
                loaded = reopened.get(key)
                if loaded is None:
                    return _failed(self.name, "stored matrix missing after reopen")
                if loaded != direct or loaded.meta != direct.meta:
                    return _failed(self.name, "store round trip != direct build")
                reopened.put(spec, direct)
                if reopened.index.count() != 1:
                    return _failed(
                        self.name,
                        f"re-put left {reopened.index.count()} index rows "
                        f"(expected exactly 1)",
                    )
                row = reopened.entry(key)
                writes = row.writes if row is not None else 0
            blob_path = None
            with ScenarioStore(root, fsync=self.fsync) as store3:
                blob_path = store3.blobs.path_for(key)
                corrupted = bytearray(blob_path.read_bytes())
                corrupted[len(corrupted) // 2] ^= 0xFF
                blob_path.write_bytes(bytes(corrupted))
                try:
                    store3.get(key)
                except StoreIntegrityError:
                    pass
                else:
                    return _failed(
                        self.name, "corrupted blob served without an integrity error"
                    )
            return _passed(
                self.name,
                f"disk round trip identical; upsert idempotent "
                f"(writes={writes}); corruption detected",
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# 8. streaming merges are partition-invariant
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StreamPartitionOracle:
    """Merging windows part by part equals merging them all at once.

    The spec's non-empty cells are replayed as ``(src, dst, packets)`` events
    through :func:`~repro.analysis.window_stream` in about ``WINDOWS``
    windows.  A seeded random partition of those windows is merged part by
    part with :func:`~repro.analysis.merge_windows`, and the part merges are
    merged again.  The result must equal ``merge_windows`` of all windows:
    the same label axes and a bit-identical CSR.  Both must conserve the
    spec's packets and carry axes that pass the entry validation, which
    guards the merge path that builds its result from trusted axes.
    """

    WINDOWS = 6

    name = "stream_partition"

    def check(self, spec: ScenarioSpec) -> OracleVerdict:
        from repro.analysis.streaming import merge_windows, window_stream
        from repro.assoc.array import _as_labels
        from repro.errors import AssocArrayError

        matrix = spec.build()
        events = list(matrix.iter_edges())
        window_size = max(1, -(-len(events) // self.WINDOWS))
        windows = [a for a, _ in window_stream(events, window_size=window_size)]
        if len(windows) < 2:
            return _skipped(self.name, f"{len(windows)} window(s): nothing to partition")
        rng = np.random.default_rng(spec.seed)
        n_parts = int(rng.integers(2, len(windows) + 1))
        owner = rng.integers(0, n_parts, size=len(windows))
        parts = [[w for w, o in zip(windows, owner) if o == p] for p in range(n_parts)]
        whole = merge_windows(windows)
        staged = merge_windows([merge_windows(part) for part in parts if part])
        if (staged.row_labels, staged.col_labels) != (whole.row_labels, whole.col_labels):
            return _failed(self.name, "partitioned merge has different label axes")
        if not _csr_identical(staged.csr, whole.csr):
            return _failed(self.name, "partitioned merge != whole merge")
        for axis in (whole.row_labels, whole.col_labels):
            try:
                _as_labels(axis)
            except AssocArrayError as exc:
                return _failed(self.name, f"merged axis fails validation: {exc}")
        if int(whole.sum()) != matrix.total_packets():
            return _failed(self.name, "merge does not conserve the spec's packets")
        return _passed(
            self.name,
            f"{len(windows)} windows in {len({int(o) for o in owner})} parts merge identically",
        )


def default_oracles() -> tuple[Oracle, ...]:
    """The standard battery: all nine differential oracles, default settings."""
    return (
        KernelEqualityOracle(),
        MaskedEqualityOracle(),
        RoundTripOracle(),
        ClassifierOracle(),
        OverlayMetamorphicOracle(),
        CacheDeltaOracle(),
        StaticShapesOracle(),
        StoreRoundTripOracle(),
        StreamPartitionOracle(),
    )
