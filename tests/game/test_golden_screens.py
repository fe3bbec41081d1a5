"""Golden screens: the full built-in catalogue, played key by key.

Every screen a student sees while playing the catalogue — the 2-D grid, the
3-D warehouse at each of the eight yaw steps, coloured and plain pallets,
the question block before and after an answer — is hashed into one sha256.
The digest was recorded before the 3-D renderer started caching voxel
clouds, so a match shows the renderer's speed-ups changed no character and
no colour on any screen.
"""

import hashlib

from repro.engine.input import Key
from repro.game.app import TrafficWarehouse
from repro.modules.library import builtin_catalog

#: sha256 over every ``render_screen(ansi=True)`` and ``render_screen(ansi=False)``
#: of the scripted play below.
GOLDEN_DIGEST = "d4630dc85aeaaf5a8fc1ea5519f81acd6116f561e14cc2ae1b1b8f3e8ce30d7b"

_ANSWER_KEYS = (Key.ONE, Key.TWO, Key.THREE)


def _module_script(game: TrafficWarehouse) -> list[Key]:
    """SPACE, E x8, Q, SPACE, the correct answer if a question is open, N."""
    keys = [Key.SPACE] + [Key.E] * 8 + [Key.Q, Key.SPACE]
    session = game.session
    if session.has_question() and not session.already_answered():
        keys.append(_ANSWER_KEYS[session.presentation().correct_index])
    if not session.is_last():
        keys.append(Key.N)
    return keys


def play_digest() -> str:
    """Play the catalogue key by key; return the digest of every screen."""
    game = TrafficWarehouse(list(builtin_catalog().values()), seed=0)
    digest = hashlib.sha256()

    def snap() -> None:
        for ansi in (True, False):
            digest.update(game.render_screen(ansi=ansi).encode("utf-8"))
            digest.update(b"\x00")

    for index in range(len(game.session.modules)):
        assert game.session.index == index
        if index % 3 == 0:
            game.level.toggle_pallet_colors()
        snap()
        for key in _module_script(game):
            game.handle_key(key)
            snap()
    return digest.hexdigest()


def test_catalogue_screens_match_the_recorded_digest():
    assert play_digest() == GOLDEN_DIGEST
