"""Calculus of framed, double, and linear chord diagrams.

Canonical forms, 4T/2T relation generators, surgery weight systems, the
parity maps onto two circles or two lines, connected sums, and exact
equality decisions in the quotient modules.
"""

from .algebra import (
    DEGREE_CEILING,
    KindMismatchError,
    ModuleElement,
    RelationGenerator,
    UndecidedError,
    generate_2T_pairs,
    generate_4T,
    quotient_equal,
)
from .diagrams import (
    KINDS,
    CanonicalKey,
    DoubleChordDiagram,
    DoubleLinearDiagram,
    FramedChordDiagram,
    FramedLinearDiagram,
    InvalidArgumentError,
    InvalidDiagramError,
    closure,
    coproduct,
    enumerate_diagrams,
    from_key,
    restrict,
)
from .parity import psi, psi_l, psi_l_module, psi_l_summands, psi_module, psi_summands
from .sums import (
    SumWitness,
    connected_sum_dlinear,
    connected_sum_framed,
    connected_sum_linear,
    cut_open,
    search_counterexample,
    witness_quotient_split,
)
from .surgery import SmoothingGraph, beta, beta_framed, smoothing_graph, weight

__version__ = "0.1.0"

__all__ = [
    "CanonicalKey",
    "DEGREE_CEILING",
    "DoubleChordDiagram",
    "DoubleLinearDiagram",
    "FramedChordDiagram",
    "FramedLinearDiagram",
    "InvalidArgumentError",
    "InvalidDiagramError",
    "KINDS",
    "KindMismatchError",
    "ModuleElement",
    "RelationGenerator",
    "SmoothingGraph",
    "SumWitness",
    "UndecidedError",
    "beta",
    "beta_framed",
    "closure",
    "connected_sum_dlinear",
    "connected_sum_framed",
    "connected_sum_linear",
    "coproduct",
    "cut_open",
    "enumerate_diagrams",
    "from_key",
    "generate_2T_pairs",
    "generate_4T",
    "psi",
    "psi_l",
    "psi_l_module",
    "psi_l_summands",
    "psi_module",
    "psi_summands",
    "quotient_equal",
    "restrict",
    "search_counterexample",
    "smoothing_graph",
    "weight",
    "witness_quotient_split",
]
