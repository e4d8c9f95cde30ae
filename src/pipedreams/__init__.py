"""Exact computations around pipe dreams: Grothendieck polynomials,
pipe dream complexes and their h-polynomials, reduced forms in the
subdivision algebra, root and flow polytope dissections, and the
geometric realization of the complex of 1 n n-1 ... 2 as the canonical
triangulation of a root polytope vertex figure.
"""

from .perms import Permutation, catalan_permutation, demazure_product, is_reduced_word
from .dreams import (
    PipeDream,
    enumerate_pipe_dreams,
    reduced_pipe_dreams,
    staircase_boxes,
    triangular_word,
)
from .complexes import (
    SimplicialComplex,
    build_pdc,
    f_vector,
    h_polynomial,
    interior_faces,
)
from .grothendieck import (
    beta_grothendieck,
    double_grothendieck,
    groth_beta,
    specialize_qt,
)
from .poly import MultiPolynomial
from .subdivision import (
    EdgeMonomial,
    ReducedForm,
    q_polynomial,
    reduce_once,
    reduced_form,
)
from .polytopes import (
    AcyclicGraph,
    Simplex,
    augment,
    canonical_triangulation,
    dissect,
    flow_vertices,
    graph_reduce,
    noncrossing_alternating_trees,
    project_and_map,
    root_polytope_vertices,
    vertex_figure_simplices,
)
from .realization import (
    RealizationMap,
    narayana_check,
    realize,
    tree_of_pipedream,
    verify_bijection,
    verify_face_map,
)
from .suites import verify_groth_h, verify_kirillov

__version__ = "0.1.0"

__all__ = [
    "AcyclicGraph", "EdgeMonomial", "MultiPolynomial",
    "Permutation", "PipeDream", "RealizationMap", "ReducedForm", "Simplex",
    "SimplicialComplex", "augment", "beta_grothendieck", "build_pdc",
    "canonical_triangulation", "catalan_permutation", "demazure_product", "dissect",
    "double_grothendieck",
    "enumerate_pipe_dreams", "f_vector", "flow_vertices", "graph_reduce",
    "groth_beta", "h_polynomial", "interior_faces",
    "is_reduced_word", "narayana_check", "noncrossing_alternating_trees",
    "project_and_map", "q_polynomial", "realize", "reduce_once",
    "reduced_form", "reduced_pipe_dreams", "root_polytope_vertices",
    "specialize_qt", "staircase_boxes", "tree_of_pipedream",
    "triangular_word", "verify_bijection", "verify_face_map",
    "verify_groth_h", "verify_kirillov", "vertex_figure_simplices",
]
