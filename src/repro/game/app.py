"""Traffic Warehouse: the top-level game application.

Ties everything together: a module sequence (built-in catalogue, a single
JSON, or a zip bundle) presented one at a time through
:class:`~repro.game.session.GameSession`, each rendered as a warehouse level
with the 2-D/3-D/rotate controls, plus the quiz flow.

Two ways to drive it:

* **interactively** — ``traffic-warehouse [bundle.zip]`` runs a terminal
  loop (SPACE/Q/E/1-3/n/p/h as in :data:`repro.engine.input.ACTIONS`),
* **programmatically** — :meth:`TrafficWarehouse.handle_action` consumes the
  same actions headlessly; :meth:`TrafficWarehouse.autoplay` runs a scripted
  player through every question (the quiz-outcome experiments).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.engine.input import ACTIONS, Key, action_for_key
from repro.errors import GameError, QuizError
from repro.game.players import Player
from repro.game.quiz import AnswerResult
from repro.game.session import GameSession, SessionReport
from repro.game.warehouse import WarehouseLevel
from repro.modules.library import builtin_catalog
from repro.modules.loader import load_bundle, load_module
from repro.modules.module import LearningModule
from repro.render.camera import ViewMode

__all__ = ["TrafficWarehouse", "main"]


class TrafficWarehouse:
    """The game: a session of modules, one live warehouse level at a time."""

    def __init__(
        self,
        modules: Sequence[LearningModule] | None = None,
        *,
        seed: int | None = 0,
        place_packets: bool = True,
    ) -> None:
        mods = list(modules) if modules is not None else list(builtin_catalog().values())
        self.session = GameSession(mods, seed=seed)
        self.place_packets = place_packets
        self.level = self._make_level()
        self.last_answer: AnswerResult | None = None

    # -- loading --------------------------------------------------------- #

    @classmethod
    def from_path(cls, path: str | Path, **kwargs) -> "TrafficWarehouse":
        """Load a ``.json`` module or a ``.zip`` bundle into a game.

        Curriculum bundles (zips carrying a ``curriculum.json`` manifest) are
        played in prerequisite order; plain bundles in sorted-name order.
        """
        path = Path(path)
        if path.suffix.lower() == ".zip":
            import zipfile

            with zipfile.ZipFile(path) as zf:
                has_manifest = "curriculum.json" in zf.namelist()
            if has_manifest:
                from repro.modules.curriculum import load_curriculum_bundle

                return cls(load_curriculum_bundle(path).flatten(), **kwargs)
            return cls(load_bundle(path), **kwargs)
        return cls([load_module(path)], **kwargs)

    def _make_level(self) -> WarehouseLevel:
        level = WarehouseLevel(self.session.current)
        if self.place_packets:
            level.place_all_packets()
        return level

    # -- the action interface --------------------------------------------- #

    def handle_key(self, key: Key) -> str | None:
        """Translate a key through the action map and handle it."""
        action = action_for_key(key)
        if action is None:
            return None
        return self.handle_action(action)

    def handle_action(self, action: str) -> str:
        """Perform one game action; returns a short status line."""
        if action not in ACTIONS:
            raise GameError(f"unknown action {action!r}; available: {sorted(ACTIONS)}")
        if action == "toggle_view":
            mode = self.level.toggle_view()
            return f"view: {'3D warehouse' if mode is ViewMode.ISOMETRIC_3D else '2D top-down'}"
        if action == "rotate_left":
            return f"rotated to step {self.level.rotate_left()}/8"
        if action == "rotate_right":
            return f"rotated to step {self.level.rotate_right()}/8"
        if action in ("answer_1", "answer_2", "answer_3"):
            choice = int(action[-1]) - 1
            result = self.session.answer(choice)
            self.last_answer = result
            verdict = "correct!" if result.correct else (
                f"wrong — the answer was {result.correct_answer!r}"
                if result.correct_answer is not None
                else "wrong"
            )
            return f"{result.chosen!r}: {verdict}"
        if action == "next_module":
            self.session.next_module()
            self.level = self._make_level()
            return f"module {self.session.index + 1}/{len(self.session.modules)}: {self.current.name}"
        if action == "prev_module":
            self.session.prev_module()
            self.level = self._make_level()
            return f"module {self.session.index + 1}/{len(self.session.modules)}: {self.current.name}"
        if action == "hint":
            if self.session.has_question():
                hint = self.session.presentation().hint
                return hint if hint else "no hint for this question"
            return "no question on this module"
        if action == "confirm":
            return "ready"
        if action == "quit":
            return "quit"
        raise GameError(f"unhandled action {action!r}")  # pragma: no cover

    @property
    def current(self) -> LearningModule:
        return self.session.current

    # -- screens ------------------------------------------------------------ #

    def render_screen(self, *, ansi: bool = True, width: int = 100, height: int = 32) -> str:
        """The full game screen: header, view, and the question block."""
        module = self.current
        lines = [
            f"═══ Traffic Warehouse ═══  module {self.session.index + 1}/"
            f"{len(self.session.modules)}: {module.name}  [{module.size}] by {module.author}",
        ]
        if self.level.camera.mode is ViewMode.TOP_DOWN_2D:
            lines.append(self.level.render_2d(ansi=ansi))
        else:
            buf = self.level.render_ascii(width=width, height=height)
            lines.append(buf.to_ansi() if ansi else buf.to_plain())
        if self.session.has_question() and not self.session.already_answered():
            pres = self.session.presentation()
            lines.append("")
            lines.append(pres.text)
            lines.extend(pres.option_lines())
            lines.append("(answer with 1-3, h for a hint)")
        elif self.session.already_answered() and self.last_answer is not None:
            lines.append("answered: " + ("correct!" if self.last_answer.correct else "wrong"))
        lines.append("[SPACE] 2D/3D  [Q/E] rotate  [n/p] next/prev  [esc] quit")
        return "\n".join(lines)

    # -- autoplay (experiments) ------------------------------------------------ #

    def autoplay(self, player: Player) -> SessionReport:
        """Run *player* through every module with a question, then report."""
        while True:
            if self.session.has_question() and not self.session.already_answered():
                pres = self.session.presentation()
                choice = player.choose(self.current, pres)
                self.session.answer(choice)
            if self.session.is_last():
                break
            self.session.next_module()
        return self.session.report()


def main(argv: Sequence[str] | None = None, stdin: TextIO | None = None, stdout: TextIO | None = None) -> int:
    """CLI entry point: ``traffic-warehouse [module.json | bundle.zip]``.

    Reads single-character commands per line (the keys of the action map).
    Runs on plain pipes, so classroom demos can be scripted:
    ``printf 'n\\n1\\nq\\n' | traffic-warehouse``.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    try:
        game = TrafficWarehouse.from_path(argv[0]) if argv else TrafficWarehouse()
    except Exception as exc:  # a CLI reports, not tracebacks
        print(f"error: {exc}", file=stdout)
        return 2
    key_by_char = {k.value: k for k in Key}
    key_by_char[" "] = Key.SPACE
    key_by_char[""] = Key.ENTER
    print(game.render_screen(ansi=stdout.isatty()), file=stdout)
    for raw in stdin:
        ch = raw.rstrip("\n").strip().lower() or " "
        if ch in ("quit", "exit", "q!"):
            break
        key = key_by_char.get(ch)
        if key is None:
            print(f"unknown key {ch!r} (try space/q/e/1/2/3/n/p/h, or 'quit')", file=stdout)
            continue
        try:
            status = game.handle_key(key)
        except QuizError as exc:
            print(f"! {exc}", file=stdout)
            continue
        if status == "quit":
            break
        print(game.render_screen(ansi=stdout.isatty()), file=stdout)
        if status:
            print(f"-- {status}", file=stdout)
    report = game.session.report()
    if report.questions_asked:
        print(report.summary(), file=stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
