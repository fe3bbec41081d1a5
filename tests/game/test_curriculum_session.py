"""Curriculum play-through: gating, retries, autoplay."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import GameError
from repro.game.curriculum_session import CurriculumSession
from repro.game.players import PerfectPlayer, RandomPlayer
from repro.modules.curriculum import Curriculum, Unit
from repro.modules.library import builtin_catalog, family_modules


def course() -> Curriculum:
    cat = builtin_catalog()
    return Curriculum(
        Unit(
            "Course",
            children=(
                Unit("Basics", modules=(cat["training/training"],)),
                Unit(
                    "Topologies",
                    modules=tuple(family_modules("topologies")),
                    requires=("Basics",),
                    pass_score=0.75,
                ),
            ),
        )
    )


class TestGating:
    def test_locked_unit_rejected(self):
        cs = CurriculumSession(course())
        with pytest.raises(GameError, match="missing prerequisites"):
            cs.start_unit("Topologies")

    def test_grouping_unit_auto_passes(self):
        cs = CurriculumSession(course())
        assert cs.start_unit("Course") is None
        assert "Course" in cs.passed_units

    def test_pass_unlocks_dependents(self):
        cs = CurriculumSession(course())
        cs.start_unit("Course")
        session = cs.start_unit("Basics")
        session.answer(session.presentation().correct_index)
        result = cs.finish_unit()
        assert result.passed
        assert any(u.title == "Topologies" for u in cs.available())

    def test_already_passed_rejected(self):
        cs = CurriculumSession(course())
        cs.start_unit("Course")
        with pytest.raises(GameError, match="already passed"):
            cs.start_unit("Course")

    def test_one_unit_at_a_time(self):
        cs = CurriculumSession(course())
        cs.start_unit("Course")
        cs.start_unit("Basics")
        with pytest.raises(GameError, match="in progress"):
            cs.start_unit("Basics")

    def test_finish_without_start(self):
        cs = CurriculumSession(course())
        with pytest.raises(GameError, match="no unit"):
            cs.finish_unit()

    def test_abandon_records_nothing(self):
        cs = CurriculumSession(course())
        cs.start_unit("Course")
        cs.start_unit("Basics")
        cs.abandon_unit()
        assert cs.attempts == (cs.attempts[0],)  # only the grouping auto-pass


class TestRetries:
    def test_failed_unit_can_retry_with_fresh_shuffle(self):
        cs = CurriculumSession(course(), seed=1)
        cs.start_unit("Course")
        session = cs.start_unit("Basics")
        pres1 = session.presentation()
        wrong = (pres1.correct_index + 1) % 3
        session.answer(wrong)
        result = cs.finish_unit()
        assert not result.passed
        session2 = cs.start_unit("Basics")
        assert session2 is not session


#: Plays a unit of the topology modules with seed 0 and prints each
#: module's presented option order.
PRESENTATIONS_SCRIPT = """
from repro.game.curriculum_session import CurriculumSession
from repro.modules.curriculum import Curriculum, Unit
from repro.modules.library import family_modules

unit = Unit("Topologies", modules=tuple(family_modules("topologies")))
cs = CurriculumSession(Curriculum(Unit("Course", children=(unit,))), seed=0)
session = cs.start_unit("Topologies")
for _ in unit.modules:
    print(session.presentation().options)
    session.next_module()
"""


class TestSeedStability:
    def test_same_presentations_under_any_hash_seed(self):
        """The unit seed must not depend on the per-process string hash salt."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", PRESENTATIONS_SCRIPT],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == len(family_modules("topologies"))
        assert outputs[0] == outputs[1]


class TestAutoplay:
    def test_perfect_player_completes(self):
        cs = CurriculumSession(course(), seed=2)
        results = cs.autoplay(PerfectPlayer())
        assert cs.is_complete()
        assert all(r.passed for r in results)
        assert set(cs.passed_units) == {"Course", "Basics", "Topologies"}

    def test_random_player_may_stall_at_pass_bar(self):
        cs = CurriculumSession(course(), seed=3)
        results = cs.autoplay(RandomPlayer(seed=3), max_attempts_per_unit=2)
        # either it got lucky and finished, or it stopped after repeated fails
        if not cs.is_complete():
            failed = [r for r in results if not r.passed]
            assert len(failed) >= 2
