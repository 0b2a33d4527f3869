"""Qubit mapping compiler for heterogeneous distributed quantum clusters."""

__version__ = "0.1.0"

from .anneal import (
    AnnealParams,
    Plan,
    PlanStep,
    Prepared,
    anneal_segment,
    compile,
    prepare,
)
from .circuit import (
    Circuit,
    GateOp,
    LayeredCircuit,
    layerize,
    parse_qasm,
    serialize_qasm,
)
from .cost import CostBreakdown, CostParams, SegmentCostEvaluator
from .errors import InfeasibleError, InputError, QasmError, ValidationError
from .hardware import ClusterTopology, QPU, QuantumSwitch, gen_topology, load_cluster
from .placement import (
    Assignment,
    InteractionGraph,
    build_graph,
    cluster_graph,
    edge_cut,
    random_placement,
    repair_capacity,
)
from .segmentation import Segment, SegmentationParams, jaccard, random_segment, segment

__all__ = [
    "AnnealParams", "Assignment", "Circuit", "ClusterTopology", "CostBreakdown",
    "CostParams", "GateOp", "InfeasibleError", "InputError",
    "InteractionGraph", "LayeredCircuit", "Plan",
    "PlanStep", "Prepared", "QPU", "QasmError", "QuantumSwitch",
    "Segment", "SegmentCostEvaluator", "SegmentationParams", "ValidationError",
    "anneal_segment", "build_graph", "cluster_graph",
    "compile", "edge_cut", "gen_topology", "jaccard",
    "layerize", "load_cluster", "parse_qasm", "prepare", "random_placement",
    "random_segment", "repair_capacity", "segment", "serialize_qasm",
    "__version__",
]
