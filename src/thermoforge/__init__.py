"""Design-space exploration for multi-split fluid cooling architectures.

The pipeline: represent candidate architectures as rooted trees
(:mod:`thermoforge.config`), count and generate configuration populations
(:mod:`thermoforge.enumeration`), place junctions from device positions
(:mod:`thermoforge.spatial`), expand each candidate into a lumped thermal
model (:mod:`thermoforge.thermal`), maximize its thermal endurance with
optimal open-loop flow control (:mod:`thermoforge.oloc`), and rank whole
populations (:mod:`thermoforge.study`).
"""

from .config import (
    ConfigGraph,
    FlowMap,
    GraphValidationError,
    NotationError,
    build_flow_map,
    parse_notation,
    serialize,
)
from .enumeration import (
    EnumerationCapError,
    GraphPopulation,
    count_multi_split,
    count_single_split,
    enumerate_junction_placements,
    enumerate_single_split,
    enumerate_trees,
    generate_level_graphs,
)
from .oloc import (
    OlocOptions,
    OlocSolution,
    Transcription,
    evaluate_endurance,
    solve,
)
from .spatial import (
    DeviceLayout,
    SuperNode,
    SuperNodeTree,
    build_supernode_tree,
    kmeans,
    select_cluster_count,
)
from .study import RankedPopulation, StudySpec, rank, report, run_study
from .thermal import (
    PhysicsParams,
    assemble,
    build_model,
    build_physics_graph,
    simulate,
)

__version__ = "0.1.0"
