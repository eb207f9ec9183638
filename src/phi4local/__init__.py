"""Symbolic-tree algebra and desk-scale numerics for the cubic heat equation
with rough forcing: tree enumeration, coproducts, local products, centered
paths, renormalized products and the remainder equation."""

from .symtree import (
    ONE, XI, I, Im, Ip, Tree, TreeUniverse, X, canon, check_delta_admissible,
    enumerate_universe, leq, order, parse_delta, prod3, sign_of, tree_name,
)
from .coalgebra import Coalgebra, report_failures
from .coeffs import (
    check_coherence, check_cube_identity, classify_utau, pick_gamma,
    upsilon_monomial,
)
from .field import (
    Grid, StabilityError, grad_x, heat_solve, load_field, Mollifier,
    noise_field, save_field,
)
from .lift import (
    CountertermMap, LocalProduct, build_local_product, phi43_counterterms,
    random_counterterm_map, standard_families,
)
from .path import Path, OrderRow, fit_slope, order_scan, sample_nodes
from .equation import (
    BoundaryTrace, NumericalAbort, RenormConstants,
    SolveConfig, TreeExpansion, apriori_scan, cube_formula_check, dx_map,
    modelled_norms, reconstruction_check, remainder_coeffs, renorm_constants,
    renorm_product, solve_remainder, three_point_residual,
)

__version__ = "0.1.0"
