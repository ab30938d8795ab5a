"""Exact computer algebra for vector-field Lie algebras on a Laurent torus.

Sparse exact-rational linear algebra, a normal-ordered differential
operator algebra, finite matrix-algebra modules, twisted tensor modules
over divergence-zero vector fields, chain maps between them, and a
window-truncated probe engine that turns module-theoretic claims into
finite, replayable certificates.
"""

from .fields import (VectorField, bracket, euler_field, field_apply, pair_field,
                     spanning_generators)
from .glmod import (FinModule, adjoint, exterior, module_from_name, natural,
                    rank_one, symmetric, trivial)
from .linalg import SparseVec, SpanBasis, kernel_of_map
from .probe import (ClosureResult, PolyFamily, Window, closure, coeff_extract,
                    generation_evidence, iso_evidence, random_element)
from .rational import ONE, ZERO, parse_tuple, rat, rat_str
from .suites import SUITES, RunConfig, SuiteResult, run_suites
from .tensor import (Context, GradedSpan, TensorElement, act, act_direct,
                     act_shifted_field, basis_element, context,
                     derham_image_graded, derham_map, derham_map_shifted,
                     eigen_vector, from_shifted_form, image_probe,
                     to_shifted_form)
from .weyl import LaurentPoly, WeylOp, commutator, operator_apply

__version__ = "0.1.0"
