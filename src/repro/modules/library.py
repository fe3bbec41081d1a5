"""The built-in learning-module catalogue.

"Using this facility an initial set of modules were rapidly created covering:
basic traffic matrices, traffic patterns, security/defense/deterrence, a
notional cyber attack, a distributed denial-of-service (DDoS) attack, and a
variety of graph theory concepts."

Every module here is generated from :mod:`repro.graphs`, carries the standard
three-choice question with in-family distractors, and cites the same external
hints the paper's figures do.  The catalogue is keyed ``"family/name"`` and
ordered the way the paper presents the material (Figs. 5–10).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Mapping

from repro.core.traffic_matrix import TrafficMatrix
from repro.graphs import attack, ddos, defense, patterns, topologies
from repro.graphs.compose import challenge
from repro.modules.builder import ModuleBuilder, pattern_question
from repro.modules.module import LearningModule, STANDARD_QUESTION
from repro.modules.templates import template_6x6, template_10x10
from repro.scenarios import ScenarioSpec, ensure_registered
from repro.scenarios.registry import REGISTRY_ALIASES, SCENARIO_REGISTRY

__all__ = [
    "builtin_catalog",
    "catalog_families",
    "family_modules",
    "HINT_SCALING",
    "HINT_ZERO_BOTNETS",
    "HINT_TEDX",
]

#: Ref [50]: the traffic-topology figures point at the scaling-relations paper.
HINT_SCALING = (
    "See: Kepner et al., 'Multi-temporal analysis and scaling relations of "
    "100,000,000,000 network packets', IEEE HPEC 2020."
)

#: Ref [52]: attack/defense figures point at the observe-pursue-counter report.
HINT_ZERO_BOTNETS = (
    "See: Kepner et al., 'Zero Botnets: An Observe-Pursue-Counter Approach', "
    "Belfer Center Reports, June 2021."
)

#: Ref [51]: the TEDx talk hint used alongside the Belfer report.
HINT_TEDX = (
    "See: Kepner, 'Beyond Zero Botnets: Web3 Enabled Observe-Pursue-Counter "
    "Approach', TEDxBoston, June 2022."
)

_AUTHOR = "Traffic Warehouse"


def _display_names() -> dict[str, str]:
    """Human-readable answer strings per generator name, from the registry.

    Catalogue aliases (``defense`` → ``defense_pattern``) appear under both
    names; the alias table lives in :mod:`repro.scenarios.registry`.
    """
    ensure_registered()
    names = {info.name: info.display for info in SCENARIO_REGISTRY.values()}
    for catalog_name, registry_name in REGISTRY_ALIASES.items():
        names[catalog_name] = names[registry_name]
    return names


#: Human-readable answer strings per generator name (registry-derived; kept
#: as a module attribute for backwards compatibility).
DISPLAY_NAMES: Mapping[str, str] = _display_names()


def _display_title(name: str) -> str:
    """The registry display string for *name* (the default module title)."""
    return DISPLAY_NAMES[name]


def _family(
    family: str,
    generators: Mapping[str, Callable[..., TrafficMatrix]],
    hint: str | None,
    title: Callable[[str], str] = _display_title,
) -> dict[str, LearningModule]:
    """Build one catalogue family through the declarative scenario API.

    ``generators`` supplies the catalogue names and ordering (the per-figure
    registries the paper presents); each matrix is realised from a
    :class:`~repro.scenarios.ScenarioSpec`, so every built-in module carries
    provenance and could be regenerated from its JSON recipe alone.
    """
    names = tuple(generators)
    out: dict[str, LearningModule] = {}
    for name in generators:
        spec = ScenarioSpec(base=REGISTRY_ALIASES.get(name, name), n=10)
        module = (
            ModuleBuilder(title(name))
            .author(_AUTHOR)
            .scenario(spec)
            .build()
        )
        question = pattern_question(name, names, dict(DISPLAY_NAMES), hint=hint)
        out[f"{family}/{name}"] = replace(module, question=question)
    return out


def _training_module() -> LearningModule:
    """The built-in training level's lesson content (Fig. 5).

    The training level "walks the player through what a traffic matrix is,
    how to read one... and how it will be represented in the game" — its
    matrix is the 10×10 template and its question is the template's
    read-one-cell exercise.
    """
    tpl = template_10x10()
    return replace(tpl, name="Training: Reading a Traffic Matrix", author=_AUTHOR)


def _challenge_modules() -> dict[str, LearningModule]:
    """Combined-stages and pattern-in-noise exercises the paper proposes."""
    out: dict[str, LearningModule] = {}

    full_attack = attack.full_attack(10)
    out["challenge/full_attack"] = (
        ModuleBuilder("Challenge: Full Attack Campaign")
        .author(_AUTHOR)
        .matrix(full_attack)
        .question(
            "All four attack stages are shown together. Which stage placed the "
            "traffic inside blue space?",
            answers=["Lateral movement", "Planning", "Staging"],
            correct=0,
            hint=HINT_ZERO_BOTNETS,
        )
        .build()
    )

    full_ddos = ddos.full_ddos(10)
    out["challenge/full_ddos"] = (
        ModuleBuilder("Challenge: Full DDoS")
        .author(_AUTHOR)
        .matrix(full_ddos)
        .question(
            "All DDoS components are shown together. Which component do the "
            "heaviest cells belong to?",
            answers=["DDoS attack", "Backscatter", "Command and control (C2)"],
            correct=0,
            hint=HINT_ZERO_BOTNETS,
        )
        .build()
    )

    noisy = challenge(topologies.external_supernode(10), noise_density=0.12, seed=7)
    out["challenge/supernode_in_noise"] = (
        ModuleBuilder("Challenge: Find the Supernode")
        .author(_AUTHOR)
        .matrix(noisy)
        .question(
            STANDARD_QUESTION,
            answers=["External supernode", "Isolated links", "Ring"],
            correct=0,
            hint=HINT_SCALING,
        )
        .build()
    )

    noisy_attack = challenge(attack.infiltration(10), noise_density=0.10, seed=11)
    out["challenge/infiltration_in_noise"] = (
        ModuleBuilder("Challenge: Infiltration in Background Traffic")
        .author(_AUTHOR)
        .matrix(noisy_attack)
        .question(
            "Background noise has been added. Which attack stage is hidden in "
            "this traffic?",
            answers=["Infiltration", "Planning", "Lateral movement"],
            correct=0,
            hint=HINT_ZERO_BOTNETS,
        )
        .build()
    )
    return out


@lru_cache(maxsize=1)
def _catalog() -> dict[str, LearningModule]:
    cat: dict[str, LearningModule] = {}
    cat["training/training"] = _training_module()
    cat["templates/6x6"] = template_6x6()
    cat["templates/10x10"] = template_10x10()
    cat.update(_family("topologies", topologies.TOPOLOGY_GENERATORS, HINT_SCALING))
    cat.update(_family("attack", attack.ATTACK_STAGES, HINT_ZERO_BOTNETS))
    cat.update(_family("defense", defense.DEFENSE_CONCEPTS, HINT_TEDX))
    cat.update(_family("ddos", ddos.DDOS_COMPONENTS, HINT_ZERO_BOTNETS))
    cat.update(_family("graph_theory", patterns.PATTERN_GENERATORS, None))
    cat.update(_challenge_modules())
    return cat


def _firewall_modules() -> dict[str, LearningModule]:
    """Firewall-configuration lessons (a paper future-work concept).

    Kept out of :func:`builtin_catalog` — they extend the paper's shipped
    content rather than reproduce it — and exposed via
    :func:`extended_catalog`.
    """
    from repro.graphs import ddos as ddos_mod
    from repro.graphs import firewall
    from repro.graphs.compose import overlay

    out: dict[str, LearningModule] = {}
    policy = firewall.default_policy()

    out["firewall/policy"] = (
        ModuleBuilder("Firewall: The Policy")
        .author(_AUTHOR)
        .matrix(policy.as_matrix())
        .question(
            "Blue cells are allowed flows, red cells are denied. Which space "
            "does the policy block entirely?",
            answers=["Adversary (red) space", "Blue space", "Grey space"],
            correct=0,
        )
        .build()
    )

    traffic = overlay(
        [
            defense.security(10),
            ddos_mod.ddos_attack(10),
        ]
    )
    viols = firewall.violations(traffic, policy)
    distract1 = str(len(viols) + 2)
    distract2 = str(max(0, len(viols) - 3))
    out["firewall/spot_violations"] = (
        ModuleBuilder("Firewall: Spot the Violations")
        .author(_AUTHOR)
        .matrix(firewall.violating_traffic(traffic, policy) + firewall.compliant_traffic(traffic, policy))
        .question(
            "How many source/destination flows violate the default perimeter "
            "policy?",
            answers=[str(len(viols)), distract1, distract2],
            correct=0,
        )
        .build()
    )

    out["firewall/clean_traffic"] = (
        ModuleBuilder("Firewall: Compliant Traffic")
        .author(_AUTHOR)
        .matrix(firewall.compliant_traffic(defense.security(10), policy))
        .question(
            "Every displayed flow passes the firewall. Which concept is this "
            "traffic most relevant to?",
            answers=["Security (walls-in)", "DDoS attack", "Planning"],
            correct=0,
            hint=HINT_ZERO_BOTNETS,
        )
        .build()
    )
    return out


def extended_catalog() -> dict[str, LearningModule]:
    """The built-in catalogue plus the future-work families (firewall)."""
    cat = builtin_catalog()
    cat.update(_firewall_modules())
    return cat


def builtin_catalog() -> dict[str, LearningModule]:
    """A fresh copy of the full catalogue, keyed ``"family/name"``.

    The returned dict is a copy, so callers may mutate it (e.g. drop
    questions for a discussion session) without affecting other callers.
    """
    return dict(_catalog())


def catalog_families() -> list[str]:
    """Family names in presentation order."""
    seen: list[str] = []
    for key in _catalog():
        fam = key.split("/", 1)[0]
        if fam not in seen:
            seen.append(fam)
    return seen


def family_modules(family: str) -> list[LearningModule]:
    """All modules of one family, in catalogue order."""
    return [m for key, m in _catalog().items() if key.split("/", 1)[0] == family]
