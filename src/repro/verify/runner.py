"""The differential-verification driver: corpora × oracles × executors.

:func:`run_corpus` fans a spec corpus over the runtime executors (the same
serial/thread/process machinery the kernels and ``generate_batch`` use),
runs every oracle on every spec, and returns a :class:`CorpusReport`.
Verdicts are deterministic — same corpus, same oracles ⇒ same report, on
any backend — which is itself asserted by the fuzz tests via
:meth:`CorpusReport.signature`.

Failures are shrunk (:func:`repro.verify.shrink.shrink_spec`) and, when a
``repro_dir`` is given, persisted as self-contained JSON repro files that
:func:`replay_repro` can re-run directly — a failing fuzz campaign leaves
behind exactly the artefacts needed to debug it.

With a :class:`~repro.store.ScenarioStore` attached (``store=`` on
:func:`run_corpus`/:func:`save_repro`), repros also persist *durably*: the
minimized spec, its built matrix, and the failure provenance land in the
store under ``kind="repro"``, and :func:`replay_from_store` re-runs them in
any later process — a fuzz campaign's findings survive the machine that
found them.  :func:`load_repro` imports file-only repros into a store on
first load.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ReproError, ScenarioError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import ScenarioStore
from repro.obs import trace as _trace
from repro.runtime.config import configured
from repro.runtime.executor import parallel_map
from repro.scenarios.spec import ScenarioSpec
from repro.verify.oracles import Oracle, OracleVerdict, default_oracles
from repro.verify.shrink import shrink_spec

__all__ = [
    "SpecResult",
    "CorpusFailure",
    "CorpusReport",
    "run_corpus",
    "save_repro",
    "load_repro",
    "replay_repro",
    "replay_from_store",
]

#: Version stamp for persisted repro documents.
REPRO_FILE_VERSION = 1


@dataclass(frozen=True)
class SpecResult:
    """All oracle verdicts for one corpus spec."""

    index: int
    spec: ScenarioSpec
    verdicts: tuple[OracleVerdict, ...]

    @property
    def failed(self) -> bool:
        return any(v.failed for v in self.verdicts)


@dataclass(frozen=True)
class CorpusFailure:
    """One oracle failure, with its minimized reproduction."""

    index: int
    oracle: str
    detail: str
    spec: ScenarioSpec
    minimized: ScenarioSpec
    repro_path: Path | None = None


@dataclass(frozen=True)
class CorpusReport:
    """Everything a corpus run produced, in corpus order."""

    results: tuple[SpecResult, ...]
    failures: tuple[CorpusFailure, ...] = field(default=())
    #: When the run failed under an active tracer and had a ``repro_dir``,
    #: the Perfetto trace of the failing fan-out lands next to the repro
    #: files and its path is recorded here (excluded from equality — the
    #: verdicts, not the artefact location, are the report's identity).
    trace_path: Path | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def counts(self) -> dict[str, int]:
        passed = failed = skipped = 0
        for result in self.results:
            for v in result.verdicts:
                if v.skipped:
                    skipped += 1
                elif v.passed:
                    passed += 1
                else:
                    failed += 1
        return {
            "specs": len(self.results),
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        }

    def signature(self) -> tuple[tuple[int, str, bool, bool], ...]:
        """A backend-independent fingerprint of every verdict.

        Two runs of the same corpus must produce identical signatures no
        matter which executor fanned them out — the determinism claim the
        fuzz tests assert across serial, thread, and process backends.
        """
        return tuple(
            (result.index, v.oracle, v.passed, v.skipped)
            for result in self.results
            for v in result.verdicts
        )

    def summary(self) -> str:
        c = self.counts
        head = (
            f"{c['specs']} specs: {c['passed']} checks passed, "
            f"{c['failed']} failed, {c['skipped']} skipped"
        )
        lines = [head]
        for failure in self.failures:
            lines.append(
                f"  FAIL [{failure.oracle}] spec #{failure.index} "
                f"({failure.spec.base}): {failure.detail}"
            )
            if failure.repro_path is not None:
                lines.append(f"       repro: {failure.repro_path}")
        if self.trace_path is not None:
            lines.append(f"  trace: {self.trace_path}")
        return "\n".join(lines)


def _check_task(args: tuple[ScenarioSpec, tuple[Oracle, ...]]) -> tuple[OracleVerdict, ...]:
    """Run every oracle on one spec (module-level: crosses process pools).

    An oracle that *raises* produces a failed verdict rather than killing the
    fan-out — a crash on a generated input is precisely the kind of finding
    a fuzzer exists to report.
    """
    spec, oracles = args
    verdicts = []
    for oracle in oracles:
        try:
            verdicts.append(oracle.check(spec))
        except Exception as exc:  # noqa: BLE001 - fuzzing converts crashes to findings
            verdicts.append(
                OracleVerdict(
                    oracle=oracle.name,
                    passed=False,
                    detail=f"oracle raised {type(exc).__name__}: {exc}",
                )
            )
    return tuple(verdicts)


def _still_fails(oracle: Oracle, candidate: ScenarioSpec) -> bool:
    try:
        return oracle.check(candidate).failed
    except Exception:  # noqa: BLE001 - a crashing candidate still reproduces
        return True


def _store_repro(
    store: "ScenarioStore", spec: ScenarioSpec, *, oracle: str, detail: str
) -> str:
    """Persist one repro spec (and its matrix, when buildable) into a store.

    A spec whose *build itself* crashes — exactly the kind of finding a
    fuzzer treasures — is indexed spec-only, with the crash recorded in the
    provenance, so the repro still survives even without a payload.
    """
    extra = {"oracle": oracle, "detail": detail}
    try:
        matrix = spec.build()
    except ReproError as exc:
        extra["build_error"] = f"{type(exc).__name__}: {exc}"
        return store.put_spec(spec, kind="repro", extra=extra)
    return store.put(spec, matrix, kind="repro", extra=extra)


def save_repro(
    failure: CorpusFailure,
    repro_dir: Path | str,
    *,
    store: "ScenarioStore | None" = None,
) -> Path:
    """Persist one failure as a self-contained JSON repro file.

    The file name is content-addressed (oracle + base + a prefix of the
    minimized spec's :meth:`~repro.scenarios.ScenarioSpec.cache_key` — the
    same single content address the scenario cache uses), so re-running a
    failing corpus overwrites the same repro instead of accumulating
    duplicates.

    With ``store`` the failure also lands durably under ``kind="repro"``
    (minimized spec + built matrix + oracle provenance), replayable later
    via :func:`replay_from_store`.
    """
    repro_dir = Path(repro_dir)
    repro_dir.mkdir(parents=True, exist_ok=True)
    minimized_doc = failure.minimized.to_dict()
    digest = failure.minimized.cache_key()[:10]
    stem = f"repro_{failure.oracle}_{failure.minimized.base}"
    path = repro_dir / f"{stem}_{digest}.json"
    document = {
        "repro_version": REPRO_FILE_VERSION,
        "oracle": failure.oracle,
        "detail": failure.detail,
        "spec": minimized_doc,
        "original_spec": failure.spec.to_dict(),
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    if store is not None:
        _store_repro(
            store, failure.minimized, oracle=failure.oracle, detail=failure.detail
        )
    return path


def load_repro(
    path: Path | str, *, store: "ScenarioStore | None" = None
) -> tuple[ScenarioSpec, dict]:
    """Read a repro file back into its minimized spec (plus the raw document).

    With ``store`` the repro is imported into the durable store on first
    load — the migration path for file-only corpora (e.g. under
    ``tests/corpus/``).  Any repro file reads by path; its name is not
    checked.  Already-imported repros are left untouched, so repeated loads
    are free.
    """
    path = Path(path)
    document = json.loads(path.read_text())
    version = document.get("repro_version")
    if version != REPRO_FILE_VERSION:
        raise ScenarioError(
            f"unsupported repro_version {version!r} in {path} "
            f"(this library reads {REPRO_FILE_VERSION})"
        )
    spec = ScenarioSpec.from_dict(document["spec"])
    if store is not None and store.entry(spec) is None:
        _store_repro(
            store,
            spec,
            oracle=str(document.get("oracle", "")),
            detail=str(document.get("detail", "")),
        )
    return spec, document


def replay_repro(
    path: Path | str, oracles: Sequence[Oracle] | None = None
) -> tuple[OracleVerdict, ...]:
    """Re-run a saved repro file through the oracle battery.

    By default only the oracle named in the file runs (that is the recorded
    failure); pass ``oracles`` explicitly to run a different battery.
    """
    spec, document = load_repro(path)
    battery = tuple(oracles) if oracles is not None else tuple(
        o for o in default_oracles() if o.name == document.get("oracle")
    )
    if not battery:
        battery = default_oracles()
    return _check_task((spec, tuple(battery)))


def replay_from_store(
    store: "ScenarioStore",
    key: "ScenarioSpec | str",
    oracles: Sequence[Oracle] | None = None,
) -> tuple[OracleVerdict, ...]:
    """Re-run a repro persisted in a :class:`~repro.store.ScenarioStore`.

    ``key`` is the spec or its content address.  The spec is rehydrated from
    the index row (no blob needed — spec-only crash repros replay too), and
    by default only the oracle recorded in the row's provenance runs; pass
    ``oracles`` to run a different battery.
    """
    row = store.entry(key)
    if row is None:
        raise ScenarioError(
            f"store has no repro for key "
            f"{(key if isinstance(key, str) else key.cache_key())[:12]}…"
        )
    spec = ScenarioSpec.from_json(row.spec_json)
    recorded = (row.extra or {}).get("oracle")
    battery = tuple(oracles) if oracles is not None else tuple(
        o for o in default_oracles() if o.name == recorded
    )
    if not battery:
        battery = default_oracles()
    return _check_task((spec, tuple(battery)))


def run_corpus(
    specs: Iterable[ScenarioSpec],
    oracles: Sequence[Oracle] | None = None,
    *,
    workers: int | None = None,
    backend: str | None = None,
    repro_dir: Path | str | None = None,
    store: "ScenarioStore | None" = None,
    shrink: bool = True,
    max_shrink_attempts: int = 200,
) -> CorpusReport:
    """Run every oracle over every spec, optionally in parallel.

    ``workers``/``backend`` scope a runtime configuration to this call (the
    same contract as :func:`repro.scenarios.generate_batch`); the default
    inherits the process-wide :func:`repro.runtime.configure` opt-in.
    Failures are shrunk and, when ``repro_dir`` is given, written as JSON
    repro files; ``store`` additionally persists each failure durably (see
    :func:`save_repro`).  Shrinking happens after the fan-out, serially —
    predicates re-run oracles, and only failures pay that cost.
    """
    seq: list[ScenarioSpec] = list(specs)
    for k, spec in enumerate(seq):
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError(
                f"run_corpus expects ScenarioSpec items, got "
                f"{type(spec).__name__} at index {k}"
            )
    battery = tuple(oracles) if oracles is not None else default_oracles()
    tasks = [(spec, battery) for spec in seq]
    tracer = _trace.get_tracer()
    with tracer.span("verify.run_corpus", specs=len(seq), oracles=len(battery)):
        if workers is None and backend is None:
            verdict_rows = parallel_map(_check_task, tasks)
        else:
            with configured(workers=workers, backend=backend, min_parallel_work=1):
                verdict_rows = parallel_map(_check_task, tasks)

    results = tuple(
        SpecResult(index=k, spec=spec, verdicts=row)
        for k, (spec, row) in enumerate(zip(seq, verdict_rows))
    )

    failures: list[CorpusFailure] = []
    by_name = {oracle.name: oracle for oracle in battery}
    for result in results:
        for verdict in result.verdicts:
            if not verdict.failed:
                continue
            oracle = by_name[verdict.oracle]
            minimized = result.spec
            if shrink:
                minimized = shrink_spec(
                    result.spec,
                    functools.partial(_still_fails, oracle),
                    max_attempts=max_shrink_attempts,
                )
            failure = CorpusFailure(
                index=result.index,
                oracle=verdict.oracle,
                detail=verdict.detail,
                spec=result.spec,
                minimized=minimized,
            )
            if repro_dir is not None:
                failure = replace(
                    failure,
                    repro_path=save_repro(failure, repro_dir, store=store),
                )
            elif store is not None:
                _store_repro(
                    store, failure.minimized,
                    oracle=failure.oracle, detail=failure.detail,
                )
            failures.append(failure)
    trace_path: Path | None = None
    if failures and repro_dir is not None and tracer.enabled and len(tracer) > 0:
        # a failing, traced run leaves its Perfetto timeline next to the
        # repro files — open it in ui.perfetto.dev to see what the fan-out
        # was doing when the oracle tripped
        trace_path = _trace.write_trace_json(
            tracer.spans(), Path(repro_dir) / "trace_run_corpus.json"
        )
    return CorpusReport(
        results=results, failures=tuple(failures), trace_path=trace_path
    )
