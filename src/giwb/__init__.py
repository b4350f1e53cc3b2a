"""giwb: an exact graph-invariant workbench.

Exact stability/covering invariants for small graphs, checkers for the
bounds relating them, the Gamma(a, t) minimum-edge machinery, hypergraph
conformality, and an exhaustive small-graph verification harness.
"""

__version__ = "0.1.0"

from .bounds import (CatalogResult, FamilySpec, Verdict, catalog_min_edges,
                     check_berge, check_cor1, check_edge_bound,
                     check_galvin_goddard, check_theorem1,
                     classify_equality_theorem1, generate_family)
from .conjectures import (CliqueSystem, check_conjecture1_bound,
                          check_conjecture1_full, check_conjecture3,
                          check_omega_v_substitution, clique_system_search)
from .gamma import (GammaPropertyReport, GammaValue, gamma_closed,
                    gamma_oracle, gamma_property_suite)
from .graphs import (Graph, GraphFormatError, bridges, complement,
                     connected_components, from_edges, induced_subgraph,
                     neighbor_set, parse_edge_list, parse_graph6, to_graph6)
from .harness import ScanConfig, ScanReport, enumerate_graphs, scan
from .hypergraphs import (HyperGraph, check_conjecture2, check_hyper_corollary,
                          is_conformal, two_section)
from .invariants import (CoreDecomposition, CriticalityProfile, GraphAnalysis,
                         InvariantReport, core_decomposition,
                         criticality_profile, has_perfect_matching,
                         invariant_suite, maximal_stable_sets,
                         maximum_stable_sets, stability_number)

__all__ = [name for name in dir() if not name.startswith("_")]
