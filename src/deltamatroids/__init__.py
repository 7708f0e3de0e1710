"""Workbench for matroids and delta-matroids on small ground sets.

Axiom checkers with witnesses, upper/lower matroid extraction, duals and
minors, the sandwich construction, graph rigidity via (2,3)-sparsity, and
exhaustive verification suites at desk scale.
"""

from .core import AxiomError, ExchangeViolation, GroundSet, InputError, SetFamily, Subset, default_ground
from .delta import DeltaMatroid, PairabilityReport, bouchet_triple, construct_sandwich, fmax_lower_uniform
from .delta import fmax_upper_uniform, is_pairable, restrict_by_deletion, restrict_to_contained
from .matroids import Matroid, direct_sum, is_quotient, is_union_of_circuits, uniform
from .rigidity import CORPUS, ConeQuotientReport, ConeResult, Multigraph, cone, cycle_matroid, is_sparse_23
from .rigidity import rigidity_feasible_family, rigidity_matroid, verify_cone_quotient
from .search import PROPERTY_IDS, SearchReport, enumerate_delta_matroids, enumerate_matroids
from .search import find_unpairable_pair, verify_property

__version__ = "0.1.0"

__all__ = [
    "AxiomError",
    "CORPUS",
    "ConeQuotientReport",
    "ConeResult",
    "DeltaMatroid",
    "ExchangeViolation",
    "GroundSet",
    "InputError",
    "Matroid",
    "Multigraph",
    "PROPERTY_IDS",
    "PairabilityReport",
    "SearchReport",
    "SetFamily",
    "Subset",
    "bouchet_triple",
    "cone",
    "construct_sandwich",
    "cycle_matroid",
    "default_ground",
    "direct_sum",
    "enumerate_delta_matroids",
    "enumerate_matroids",
    "find_unpairable_pair",
    "fmax_lower_uniform",
    "fmax_upper_uniform",
    "is_pairable",
    "is_quotient",
    "is_sparse_23",
    "is_union_of_circuits",
    "restrict_by_deletion",
    "restrict_to_contained",
    "rigidity_feasible_family",
    "rigidity_matroid",
    "uniform",
    "verify_cone_quotient",
    "verify_property",
]
