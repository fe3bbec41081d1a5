"""Exception hierarchy for the Traffic Warehouse reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class TrafficMatrixError(ReproError):
    """Invalid construction or manipulation of a :class:`~repro.core.TrafficMatrix`."""


class ShapeError(TrafficMatrixError):
    """Operands have incompatible shapes."""


class LabelError(TrafficMatrixError):
    """Axis labels are missing, duplicated, or do not match the matrix size."""


class ColorError(TrafficMatrixError):
    """A colour grid contains values outside the supported palette."""


class SemiringError(ReproError):
    """A semiring was constructed from incompatible monoid/binary operators."""


class SparseFormatError(ReproError):
    """A sparse kernel received indices or values that violate its format."""


class ExpressionError(ReproError):
    """Invalid construction or evaluation of a lazy :mod:`repro.assoc.expr` expression."""


class ShapeInferenceError(ExpressionError):
    """Static shape/dtype inference rejected an expression tree.

    Raised by :func:`repro.staticcheck.shapes.infer` (and therefore by
    :meth:`repro.assoc.planner.Plan.typecheck`) with a dotted *path* naming
    the offending subtree, e.g. ``mxm.left.union[2]``.
    """

    def __init__(self, message: str, *, path: str = "expr") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class StaticCheckError(ReproError):
    """The :mod:`repro.staticcheck` framework was misused (unparseable file,
    unknown rule code, malformed baseline document)."""


class RuntimeConfigError(ReproError):
    """Invalid :mod:`repro.runtime` configuration (workers, backend, blocks)."""


class WorkerCrashError(ReproError):
    """A pool worker died mid-task (segfault, ``os._exit``, OOM kill).

    Raised in place of the opaque ``BrokenProcessPool`` so the failure names
    the work that was in flight; the broken pool is evicted from the executor
    cache, so the next dispatch gets a fresh, usable pool.
    """

    def __init__(self, message: str, *, label: str = "", task_index: int | None = None) -> None:
        super().__init__(message)
        self.label = label
        self.task_index = task_index


class SharedMemoryError(ReproError):
    """The shared-memory operand plane was misused (stale segment, attach
    failure, double release)."""


class ObservabilityError(ReproError):
    """The :mod:`repro.obs` registry or tracer was misused (metric kind
    mismatch, malformed span dump, bad capacity)."""


class AssocArrayError(ReproError):
    """Invalid operation on an :class:`~repro.assoc.AssociativeArray`."""


class StoreError(ReproError):
    """Invalid use of the durable scenario store (:mod:`repro.store`):
    bad root directory, malformed blob framing, unsupported schema version,
    or lock contention that outlived every retry (:class:`StoreBusyError`)."""


class StoreBusyError(StoreError):
    """The store index stayed locked by another writer through every retry
    of :class:`~repro.store.StoreIndex`; counted as
    ``store.index.busy_failures``."""


class StoreIntegrityError(StoreError):
    """A stored artefact failed its integrity check: blob checksum mismatch,
    an index row whose blob is missing, or a digest that disagrees with the
    index.  Raised loudly — a store must never serve bytes it cannot vouch
    for."""


class ScenarioError(ReproError):
    """Invalid use of the :mod:`repro.scenarios` registry or batch API."""


class ScenarioSpecError(ScenarioError):
    """A :class:`~repro.scenarios.ScenarioSpec` document is malformed."""


class ScenarioServiceError(ScenarioError):
    """Invalid use of the :class:`~repro.scenarios.ScenarioService` front end
    (not started, saturated queue, bad configuration)."""


class ModuleSchemaError(ReproError):
    """A learning-module JSON document does not satisfy the schema."""

    def __init__(self, message: str, *, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class ModuleLoadError(ReproError):
    """A learning-module file or bundle could not be read."""


class EngineError(ReproError):
    """Scene-tree or node lifecycle violation in :mod:`repro.engine`."""


class NodePathError(EngineError):
    """A node path (``$\"../Data\"`` style) did not resolve."""


class SignalError(EngineError):
    """Connecting or emitting an unknown signal."""


class ResourceError(EngineError):
    """A ``preload``-style resource path could not be resolved."""


class GDScriptError(ReproError):
    """Base class for GDScript front-end errors."""

    def __init__(self, message: str, *, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class GDScriptSyntaxError(GDScriptError):
    """Tokenizer or parser rejected the script."""


class GDScriptRuntimeError(GDScriptError):
    """The interpreter hit an error while executing a script."""


class VoxelError(ReproError):
    """Invalid voxel-model construction or serialization."""


class RenderError(ReproError):
    """The software rasterizer was configured inconsistently."""


class GameError(ReproError):
    """Game-flow violation (answering a closed question, bad level index, ...)."""


class QuizError(GameError):
    """Quiz-specific failures (no question, out-of-range answer index)."""
