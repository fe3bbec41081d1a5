"""Declarative scenario specifications — JSON-round-trippable build recipes.

A :class:`ScenarioSpec` is data, not code: the name of a registered base
generator plus its parameters, optional overlay layers, optional background
noise, a matrix size and a seed.  The same spec document produces the same
:class:`~repro.core.TrafficMatrix` on every machine and every executor —
all randomness flows through the spec's seed — which is what makes the
batch API (:func:`repro.scenarios.generate_batch`) safe to parallelize.

Specs serialise to plain JSON (``to_json`` / ``from_json``), so curricula,
fuzzing corpora, and service requests can all be stored and shipped as text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ScenarioSpecError
from repro.scenarios.registry import GeneratorInfo, get_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix

__all__ = ["SPEC_VERSION", "NoiseSpec", "OverlaySpec", "ScenarioSpec"]

#: Version stamp written into every serialised spec document.
SPEC_VERSION = 1


def _layer_seed(seed: int, index: int) -> int:
    """Deterministic per-layer seed derivation (stable across processes).

    A fixed odd multiplier keeps layer streams distinct without touching any
    global RNG state — ``hash()`` is unsuitable because string hashing is
    randomised per process.
    """
    return (int(seed) * 1_000_003 + 7919 * (index + 1)) % (2**31)


@dataclass(frozen=True)
class NoiseSpec:
    """Background-noise stage of a spec (see :func:`repro.graphs.with_noise`)."""

    density: float = 0.1
    max_packets: int = 2
    preserve_pattern: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "density": self.density,
            "max_packets": self.max_packets,
            "preserve_pattern": self.preserve_pattern,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "NoiseSpec":
        if not isinstance(doc, Mapping):
            raise ScenarioSpecError(f"noise must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"density", "max_packets", "preserve_pattern"}
        if unknown:
            raise ScenarioSpecError(f"unknown noise field(s) {sorted(unknown)}")
        return cls(
            density=float(doc.get("density", 0.1)),
            max_packets=int(doc.get("max_packets", 2)),
            preserve_pattern=bool(doc.get("preserve_pattern", True)),
        )


@dataclass(frozen=True)
class OverlaySpec:
    """One overlay layer: a registered generator name plus its parameters."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "OverlaySpec":
        if not isinstance(doc, Mapping) or "name" not in doc:
            raise ScenarioSpecError("overlay must be an object with a 'name' field")
        unknown = set(doc) - {"name", "params"}
        if unknown:
            raise ScenarioSpecError(f"unknown overlay field(s) {sorted(unknown)}")
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioSpecError("overlay 'params' must be an object")
        return cls(name=str(doc["name"]), params=dict(params))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serialisable description of one scenario matrix.

    ``base`` names a registered generator; ``params`` are its keyword
    arguments (JSON-able values only).  ``overlays`` are summed on top of the
    base layer via :func:`repro.graphs.compose.overlay`; ``noise`` adds
    seeded background chatter last, so planted signatures survive verbatim
    when ``preserve_pattern`` is on.
    """

    base: str
    params: dict[str, Any] = field(default_factory=dict)
    n: int = 10
    seed: int = 0
    noise: NoiseSpec | None = None
    overlays: tuple[OverlaySpec, ...] = ()

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> "ScenarioSpec":
        """Check the spec against the registry; returns self for chaining."""
        if int(self.n) < 1:
            raise ScenarioSpecError(f"scenario size n must be >= 1, got {self.n}")
        for where, name, params in (
            ("params", self.base, self.params),
            *(("overlay params", ov.name, ov.params) for ov in self.overlays),
        ):
            if "n" in params:
                raise ScenarioSpecError(
                    f"matrix size belongs in the spec's 'n' field, not in "
                    f"{name!r} {where}: every layer must share one size"
                )
            info = get_generator(name)
            if info.accepts("n") and not info.valid_n(self.n):
                constraint = f"needs n >= {info.min_n}"
                if info.n_multiple_of > 1:
                    constraint += f" and n divisible by {info.n_multiple_of}"
                raise ScenarioSpecError(
                    f"generator {name!r} {constraint} on the spec path, got n={self.n}"
                )
            info.validate_params(params)
        return self

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec_version": SPEC_VERSION,
            "base": self.base,
            "params": dict(self.params),
            "n": self.n,
            "seed": self.seed,
            "noise": None if self.noise is None else self.noise.to_dict(),
            "overlays": [ov.to_dict() for ov in self.overlays],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(doc, Mapping):
            raise ScenarioSpecError(f"spec must be an object, got {type(doc).__name__}")
        if "base" not in doc:
            raise ScenarioSpecError("spec needs a 'base' generator name")
        version = doc.get("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ScenarioSpecError(
                f"unsupported spec_version {version!r} (this library reads {SPEC_VERSION})"
            )
        known = {"spec_version", "base", "params", "n", "seed", "noise", "overlays"}
        unknown = set(doc) - known
        if unknown:
            raise ScenarioSpecError(f"unknown spec field(s) {sorted(unknown)}")
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioSpecError("spec 'params' must be an object")
        noise = doc.get("noise")
        overlays = doc.get("overlays", ())
        if not isinstance(overlays, (list, tuple)):
            raise ScenarioSpecError("spec 'overlays' must be a list")
        return cls(
            base=str(doc["base"]),
            params=dict(params),
            n=int(doc.get("n", 10)),
            seed=int(doc.get("seed", 0)),
            noise=None if noise is None else NoiseSpec.from_dict(noise),
            overlays=tuple(OverlaySpec.from_dict(ov) for ov in overlays),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        try:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        except TypeError as exc:
            raise ScenarioSpecError(
                f"spec for {self.base!r} holds non-JSON parameter values: {exc}"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioSpecError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #

    def canonical_json(self) -> str:
        """The canonical serialisation: sorted keys, no whitespace.

        Two specs produce the same canonical document iff they are equal, so
        this string (not the pretty ``to_json`` form) is what gets hashed for
        content addressing.
        """
        try:
            return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        except TypeError as exc:
            raise ScenarioSpecError(
                f"spec for {self.base!r} holds non-JSON parameter values: {exc}"
            ) from None

    def cache_key(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the spec's content address.

        This is the single content address in the codebase: the scenario
        result cache (:class:`~repro.scenarios.ScenarioCache`) keys entries
        by it and :func:`repro.verify.save_repro` names repro files with it.
        Because a spec fully determines its matrix (all randomness flows from
        ``seed``), equal keys imply bit-identical builds.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # realisation
    # ------------------------------------------------------------------ #

    def _materialize(
        self, info: GeneratorInfo, params: Mapping[str, Any], layer: int
    ) -> "TrafficMatrix":
        from repro.core.labels import space_labels

        kwargs = dict(params)
        # Deterministic seeding: a generator that accepts a seed gets one
        # derived from (spec seed, layer index) unless the spec pinned it.
        if info.accepts("seed") and "seed" not in kwargs:
            kwargs["seed"] = _layer_seed(self.seed, layer)
        # Space-aware labels at every size: the plain generators fall back to
        # generic (all-grey) ``N*`` labels outside the 6x6/10x10 templates,
        # which would break space-dependent layers for other spec sizes.
        if info.accepts("labels") and "labels" not in kwargs:
            kwargs["labels"] = space_labels(self.n)
        if info.accepts("n"):  # validate() bans 'n' in params, so no clash
            return info.func(self.n, **kwargs)
        return info.func(**kwargs)

    def layer_matrices(self) -> list["TrafficMatrix"]:
        """Every layer (base first, then overlays) materialised independently.

        These are exactly the matrices :meth:`build` sums via
        :func:`repro.graphs.compose.overlay` — exposed so differential tests
        (:mod:`repro.verify`) can recombine them in other orders and assert
        the composition is order-insensitive.
        """
        self.validate()
        layers = [self._materialize(get_generator(self.base), self.params, 0)]
        for k, ov in enumerate(self.overlays, start=1):
            layers.append(self._materialize(get_generator(ov.name), ov.params, k))
        return layers

    def build(self) -> "TrafficMatrix":
        """Realise the spec into a :class:`~repro.core.TrafficMatrix`.

        The result carries the full spec document as provenance metadata
        (``matrix.meta["scenario"]``), so any matrix produced by this API can
        be traced back to — and rebuilt from — its recipe.
        """
        from repro.graphs.compose import overlay

        layers = self.layer_matrices()
        return self._finish(layers[0] if len(layers) == 1 else overlay(layers), len(layers))

    def _finish(self, matrix: "TrafficMatrix", layer_count: int) -> "TrafficMatrix":
        """Noise seeded after *layer_count* layers, then provenance: the one
        last step of :meth:`build` and :func:`repro.scenarios.apply_delta`."""
        if self.noise is not None:
            from repro.graphs.noise import with_noise

            matrix = with_noise(
                matrix,
                density=self.noise.density,
                max_packets=self.noise.max_packets,
                seed=_layer_seed(self.seed, layer_count),
                preserve_pattern=self.noise.preserve_pattern,
            )
        return matrix._with_own_meta({"scenario": self.to_dict()})
