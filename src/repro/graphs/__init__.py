"""Traffic-pattern generators, metrics, and classifiers for all paper figures."""

from repro.graphs.attack import (
    ATTACK_STAGES,
    full_attack,
    infiltration,
    lateral_movement,
    planning,
    staging,
)
from repro.graphs.classify import (
    GRAPH_PATTERN_NAMES,
    SCENARIO_NAMES,
    TOPOLOGY_NAMES,
    ScenarioScore,
    classify_graph_pattern,
    classify_scenario,
    classify_spec,
    classify_topology,
)
from repro.graphs.compose import challenge, overlay, sequence
from repro.graphs.ddos import (
    DDOS_COMPONENTS,
    BotnetRoles,
    backscatter,
    botnet_clients,
    command_and_control,
    ddos_attack,
    full_ddos,
)
# NOTE: the ``defense`` *function* is exported as ``defense_pattern`` — its
# canonical name, matching the scenario registry — so ``repro.graphs.defense``
# is the submodule, under its natural name.
from repro.graphs.defense import DEFENSE_CONCEPTS, deterrence, full_posture, security
from repro.graphs.defense import defense as defense_pattern
from repro.graphs.metrics import (
    TrafficStats,
    degree_histogram,
    diagonal_fraction,
    power_law_slope,
    reciprocity,
    summarize,
    supernodes,
)
from repro.graphs.noise import background_noise, with_noise
from repro.graphs.patterns import (
    PATTERN_GENERATORS,
    bipartite,
    clique,
    grid_dims,
    mesh,
    ring,
    self_loops,
    star,
    toroidal_mesh,
    tree,
    triangle,
)
from repro.graphs.topologies import (
    TOPOLOGY_GENERATORS,
    external_supernode,
    internal_supernode,
    isolated_links,
    single_links,
    template_matrix,
)

__all__ = [
    # Fig. 10
    "star", "clique", "bipartite", "tree", "ring", "mesh", "toroidal_mesh",
    "self_loops", "triangle", "grid_dims", "PATTERN_GENERATORS",
    # Fig. 6
    "isolated_links", "single_links", "internal_supernode", "external_supernode",
    "template_matrix", "TOPOLOGY_GENERATORS",
    # Fig. 7
    "planning", "staging", "infiltration", "lateral_movement", "full_attack",
    "ATTACK_STAGES",
    # Fig. 8
    "security", "defense_pattern", "deterrence", "full_posture", "DEFENSE_CONCEPTS",
    # Fig. 9
    "command_and_control", "botnet_clients", "ddos_attack", "backscatter",
    "full_ddos", "BotnetRoles", "DDOS_COMPONENTS",
    # composition / noise
    "overlay", "sequence", "challenge", "background_noise", "with_noise",
    # metrics
    "TrafficStats", "summarize", "reciprocity", "diagonal_fraction",
    "supernodes", "degree_histogram", "power_law_slope",
    # classification
    "classify_graph_pattern", "classify_topology", "classify_scenario",
    "classify_spec",
    "ScenarioScore", "GRAPH_PATTERN_NAMES", "TOPOLOGY_NAMES", "SCENARIO_NAMES",
]
