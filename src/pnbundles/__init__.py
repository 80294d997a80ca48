"""Exact verification toolkit for vector bundles on small projective spaces.

Everything is computed over a prime field (default F_32003): forms and
graded matrices, free complexes, a sheaf-cohomology engine with explicit
section models, Chern/Riemann-Roch arithmetic, reflexive-sheaf spectra,
the 2x4 linear-pencil classification, geometric predicates, exterior
contraction calculus, and a verification catalog with a CLI driver.
"""

from .chern import (ChernVector, SurfaceInvariants, double_point,
                    dual_chern, gg_constraints, p_chern, rr_chi,
                    schwarzenberger_ok, surface_bundle_data, twist_chern)
from .complexes import (ExactnessReport, FreeComplex, cone, ferrand_liaison,
                        koszul, tensor, trim, verify_exact)
from .exterior import (ExtElement, MonadShape, beilinson_terms, contract,
                       omega_restriction, skew_rank, wedge, wedge_map_rank)
from .forms import Form, monomial_basis, parse_form, random_points, space_dim
from .geometry import (GGVerdict, LineParam, cayley_bacharach,
                       cayley_bacharach_oracle, edge_avoidance,
                       is_globally_generated, quadric_line_component_test,
                       splitting_type_on_line)
from .graded import GradedMatrix, hn_matrix
from .idealtests import epi_certificate
from .modp import DEFAULT_PRIME, kernel_basis, rank, rref, solve
from .pencil import (PencilClass, classify, is_stable, linear_matrix_2x4,
                     minor_ideal_equals, to_pencil)
from .sheaves import (CohTable, Cohomology, KerNode, LineSum, QuotNode,
                      SumNode, chern_of_node, dual_node, ker_node, quot_node,
                      rank_of, sum_node, twist_node)
from .spectra import (Spectrum, c3_from_spectrum, enumerate_spectra,
                      genus_from_c3, h1_from_spectrum, h2_from_spectrum)

__version__ = "0.1.0"
