"""Playing a hierarchical curriculum: unit-by-unit progression with gating.

Wraps :class:`~repro.modules.curriculum.Curriculum` in game terms: the student
plays one unlocked unit at a time as a normal :class:`GameSession`; finishing
a unit records pass/fail against the unit's ``pass_score``, and passing
unlocks whatever required it.  Failed units can be retried (a fresh session,
freshly shuffled answers).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import GameError
from repro.game.session import GameSession
from repro.modules.curriculum import Curriculum, Unit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios import ScenarioSpec

__all__ = ["UnitResult", "CurriculumSession"]


@dataclass(frozen=True)
class UnitResult:
    """Outcome of one unit attempt."""

    unit_title: str
    correct: int
    questions: int
    passed: bool


class CurriculumSession:
    """Progress state over a curriculum: unlocked units, attempts, passes."""

    def __init__(self, curriculum: Curriculum, *, seed: int | None = 0) -> None:
        self.curriculum = curriculum
        self.seed = seed
        self._passed: list[str] = []
        self._attempts: list[UnitResult] = []
        self._active_unit: Unit | None = None
        self._active_session: GameSession | None = None

    @classmethod
    def from_specs(
        cls,
        units: Mapping[str, Sequence["ScenarioSpec"]],
        *,
        title: str = "Scenario Curriculum",
        pass_score: float = 0.5,
        sequential: bool = True,
        seed: int | None = 0,
        workers: int | None = None,
    ) -> "CurriculumSession":
        """A playable curriculum generated from declarative scenario specs.

        ``units`` maps unit titles to the :class:`~repro.scenarios.ScenarioSpec`
        lists that become their modules; every matrix is realised in one
        :func:`~repro.scenarios.generate_batch` call, so a wide curriculum
        generates in parallel when ``workers`` (or the process-wide
        :func:`repro.runtime.configure`) enables it.  With ``sequential``
        (default) each unit requires the previous one, giving the
        unlock-in-order progression of the paper's hierarchical-modules
        future work.
        """
        from repro.modules.builder import scenario_module
        from repro.scenarios import generate_batch

        flat: list[tuple[str, "ScenarioSpec"]] = [
            (unit_title, spec) for unit_title, specs in units.items() for spec in specs
        ]
        matrices = generate_batch([spec for _, spec in flat], workers=workers)
        modules: dict[str, list] = {unit_title: [] for unit_title in units}
        for (unit_title, spec), matrix in zip(flat, matrices):
            number = len(modules[unit_title]) + 1
            modules[unit_title].append(
                scenario_module(spec, matrix=matrix, name=f"{unit_title} #{number}")
            )
        children: list[Unit] = []
        for unit_title in units:
            children.append(
                Unit(
                    title=unit_title,
                    modules=tuple(modules[unit_title]),
                    requires=(children[-1].title,) if sequential and children else (),
                    pass_score=pass_score,
                )
            )
        curriculum = Curriculum(Unit(title=title, children=tuple(children)))
        return cls(curriculum, seed=seed)

    # ------------------------------------------------------------------ #
    # unit selection
    # ------------------------------------------------------------------ #

    @property
    def passed_units(self) -> tuple[str, ...]:
        return tuple(self._passed)

    @property
    def attempts(self) -> tuple[UnitResult, ...]:
        return tuple(self._attempts)

    def available(self) -> list[Unit]:
        """Units the student may start now."""
        return self.curriculum.available_units(self._passed)

    def is_complete(self) -> bool:
        return not self.available() and self._active_unit is None

    def start_unit(self, title: str) -> GameSession:
        """Begin (or retry) an unlocked unit; returns its game session.

        Units without modules (pure grouping nodes) pass immediately.
        """
        if self._active_unit is not None:
            raise GameError(
                f"unit {self._active_unit.title!r} is still in progress; finish it first"
            )
        unit = self.curriculum.unit(title)
        if unit.title in self._passed:
            raise GameError(f"unit {title!r} is already passed")
        if not all(req in self._passed for req in unit.requires):
            missing = [r for r in unit.requires if r not in self._passed]
            raise GameError(f"unit {title!r} is locked; missing prerequisites: {missing}")
        if not unit.modules:
            self._passed.append(unit.title)
            self._attempts.append(UnitResult(unit.title, 0, 0, True))
            return None  # type: ignore[return-value]  # grouping unit, nothing to play
        attempt_number = sum(1 for a in self._attempts if a.unit_title == title)
        # zlib.crc32, not hash(): string hashing is salted per process, so the
        # same seed would shuffle answers differently in every run.
        unit_seed = (
            None
            if self.seed is None
            else zlib.crc32(f"{self.seed}/{attempt_number}/{title}".encode()) % (2**31)
        )
        self._active_unit = unit
        self._active_session = GameSession(list(unit.modules), seed=unit_seed)
        return self._active_session

    def finish_unit(self) -> UnitResult:
        """Score the active unit's session and update progress."""
        if self._active_unit is None or self._active_session is None:
            raise GameError("no unit is in progress")
        unit = self._active_unit
        report = self._active_session.report()
        passed = self.curriculum.unit_passed(unit.title, report.correct)
        result = UnitResult(
            unit_title=unit.title,
            correct=report.correct,
            questions=unit.question_count(),
            passed=passed,
        )
        self._attempts.append(result)
        if passed:
            self._passed.append(unit.title)
        self._active_unit = None
        self._active_session = None
        return result

    def abandon_unit(self) -> None:
        """Drop the active unit without recording an attempt."""
        self._active_unit = None
        self._active_session = None

    # ------------------------------------------------------------------ #
    # autoplay (experiments / tests)
    # ------------------------------------------------------------------ #

    def autoplay(self, player, *, max_attempts_per_unit: int = 3) -> list[UnitResult]:  # noqa: ANN001
        """Drive a scripted player through the whole curriculum.

        Units are attempted in unlock order; a failed unit is retried up to
        ``max_attempts_per_unit`` times before the run stops (a student stuck
        below the pass bar is a result, not an error).
        """
        results: list[UnitResult] = []
        fail_counts: dict[str, int] = {}
        while not self.is_complete():
            unlocked = self.available()
            if not unlocked:
                break
            unit = unlocked[0]
            session = self.start_unit(unit.title)
            if session is None:  # grouping unit auto-passed
                results.append(self._attempts[-1])
                continue
            while True:
                if session.has_question() and not session.already_answered():
                    pres = session.presentation()
                    session.answer(player.choose(session.current, pres))
                if session.is_last():
                    break
                session.next_module()
            result = self.finish_unit()
            results.append(result)
            if not result.passed:
                fail_counts[unit.title] = fail_counts.get(unit.title, 0) + 1
                if fail_counts[unit.title] >= max_attempts_per_unit:
                    break
        return results
