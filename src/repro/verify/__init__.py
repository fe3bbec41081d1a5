"""Differential verification: spec-space fuzzing with agreement oracles.

This package turns the determinism guarantees of the runtime and scenario
subsystems into continuously enforced properties.  It draws random-but-valid
:class:`~repro.scenarios.ScenarioSpec` documents from the registry's
introspected schemas (:func:`make_corpus`), runs each through a battery of
independent-path oracles (:func:`default_oracles`), and reports — shrinking
and persisting any failure as a replayable JSON repro file.

The nine standard oracles:

* :class:`KernelEqualityOracle` — serial vs row-blocked semiring kernels on
  corpus-derived CSR matrices, bit for bit (plus a dense reference for
  ``plus.times``);
* :class:`MaskedEqualityOracle` — the expression layer's fused masked kernels
  (masked ``mxm``/union/intersect/select/``mxv`` and accumulator assignment)
  vs independent eager-then-filter references, serial and blocked;
* :class:`RoundTripOracle` — spec → JSON → spec → matrix identity, and
  provenance metadata that rebuilds its own matrix;
* :class:`ClassifierOracle` — the rule-based classifier recovers the
  generating family (documented ambiguities excepted);
* :class:`OverlayMetamorphicOracle` — overlay composition is
  order-insensitive and preserves provenance;
* :class:`CacheDeltaOracle` — the content-addressed scenario cache is
  transparent (hit ≡ miss ≡ direct build, provenance included) and the
  row-blocked :func:`~repro.scenarios.apply_delta` incremental rebuild is
  bit-identical to the full rebuild;
* :class:`StaticShapesOracle` — :func:`repro.staticcheck.shapes.infer` types
  an expression battery over every corpus matrix identically to runtime
  observation (shape *and* dtype), and ``Plan.typecheck()`` rejects a
  raw-constructed ill-shaped product;
* :class:`StoreRoundTripOracle` — the durable :mod:`repro.store` round trip
  (put, reopen, get) is bit-identical to the direct build, upserts are
  idempotent, and a corrupted blob raises instead of serving bad bytes;
* :class:`StreamPartitionOracle` — merging streaming windows part by part
  equals merging them all at once: the same label axes, a bit-identical CSR.

Quickstart::

    from repro.verify import make_corpus, run_corpus

    report = run_corpus(make_corpus(200, seed=7), workers=4)
    assert report.ok, report.summary()
"""

from repro.verify.corpus import (
    CorpusConfig,
    make_corpus,
    random_spec,
    sampleable_names,
)
from repro.verify.oracles import (
    CLASSIFIER_AMBIGUITIES,
    CacheDeltaOracle,
    ClassifierOracle,
    KernelEqualityOracle,
    MaskedEqualityOracle,
    Oracle,
    OracleVerdict,
    OverlayMetamorphicOracle,
    RoundTripOracle,
    StaticShapesOracle,
    StoreRoundTripOracle,
    StreamPartitionOracle,
    default_oracles,
)
from repro.verify.runner import (
    CorpusFailure,
    CorpusReport,
    SpecResult,
    load_repro,
    replay_from_store,
    replay_repro,
    run_corpus,
    save_repro,
)
from repro.verify.shrink import shrink_spec

__all__ = [
    "CorpusConfig",
    "make_corpus",
    "random_spec",
    "sampleable_names",
    "Oracle",
    "OracleVerdict",
    "KernelEqualityOracle",
    "MaskedEqualityOracle",
    "RoundTripOracle",
    "ClassifierOracle",
    "OverlayMetamorphicOracle",
    "CacheDeltaOracle",
    "StaticShapesOracle",
    "StoreRoundTripOracle",
    "StreamPartitionOracle",
    "CLASSIFIER_AMBIGUITIES",
    "default_oracles",
    "SpecResult",
    "CorpusFailure",
    "CorpusReport",
    "run_corpus",
    "save_repro",
    "load_repro",
    "replay_repro",
    "replay_from_store",
    "shrink_spec",
]
