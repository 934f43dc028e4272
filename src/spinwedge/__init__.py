"""Signed wedge powers of graphs and the sector structure of XY/Heisenberg spin models.

The k-excitation sector of the XY (Heisenberg) model on a graph G acts as
the adjacency matrix (combinatorial laplacian) of the k-th wedge power of G.
This package builds those graphs with their hop signs, assembles the spin
hamiltonians both blockwise and on the full 2^n space, evaluates the
closed-form spectra for paths and complete graphs, lifts single-particle
eigen-data to the sectors, evolves states, and cross-checks all of it
against brute-force oracles.
"""

from .graphs import (
    CapacityError,
    Graph,
    adjacency,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_matrix,
    erdos_renyi_graph,
    export_dot,
    graph_from_edge_list,
    graph_from_json,
    graph_to_json,
    laplacian,
    path_graph,
)
from .wedge import (
    LiftRoute,
    WedgeGraph,
    alt_delta_oracle,
    build_wedge_graph,
    hop_sign,
    lift_route,
    rank_subset,
    sector_dimension,
    signed_matrix,
    subset_name,
    subset_table,
    switching_signs,
    unrank_subset,
    wedge_adjacency,
    wedge_degrees,
    wedge_laplacian,
    wedge_to_dot,
    wedge_to_json,
)
from .spectra import (
    EigenDecomposition,
    complete_graph_spectra,
    eigh,
    johnson_spectrum,
    lift_eigenvector,
    path_eigenvector,
    path_spectrum,
    spectrum_dict,
    spectrum_gap,
    subset_minors,
    subset_sums,
    xy_path_spectrum,
)
from .spins import (
    ModelSpec,
    basis_states,
    block_hamiltonian,
    full_hamiltonian,
    project_full_to_blocks,
)
from .dynamics import (
    evolve_subset,
    lift_propagate,
    propagate,
)
from .verify import (
    CheckResult,
    VerificationReport,
    default_corpus,
    run_verification,
)

__version__ = "0.1.0"
