"""Hybrid high-order discretization of Poisson and linear elasticity
on 1D interval and 2D polygonal meshes."""

from .basis import Basis, basis_size, face_basis, scaled_monomial_basis
from .mesh import (CellGeometry, Mesh, MeshError, build_hanging_node_mesh,
                   build_interval_mesh, build_structured_mesh, load_mesh_json,
                   mesh_from_dict, mesh_to_dict, refine_uniform, save_mesh_json)
from .projection import (DofLayout, HhoDegrees, dof_layout, equal_order,
                         gather_local, l2_project, mixed_order,
                         reduce_global, reduce_local)
from .quadrature import QuadratureRule, cell_quadrature, face_quadrature
from .local_ops import (CellContext, LocalOperators, build_cell_context,
                        gradient_reconstruction, local_bilinear, reconstruction,
                        stabilization_equal_order, stabilization_ls)
from .elasticity import (displacement_reconstruction, divergence_reconstruction,
                         local_bilinear_elastic, stabilization_elastic,
                         strain_reconstruction)
from .assembly import (CondensedGroup, DofMap, GlobalSystem, assemble, build_dof_map,
                       condense, recover_cells, solve_monolithic, solve_reduced)
from .problems import ProblemSpec, get_problem
from .harness import (ConvergenceReport, ErrorRow, Solution, convergence_study,
                      dirichlet_data, discrete_energy, error_norms, fit_rate,
                      flux_residuals, locking_test, mesh_family, neumann_rhs,
                      oracle_1d, solve_problem, traction_residuals, verify_operators)

__version__ = "0.1.0"
