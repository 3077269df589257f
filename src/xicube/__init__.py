"""Exact-arithmetic lab for simultaneous rational approximation to (1, xi, xi^3)."""

from .errors import (DecompositionFailure, DependenceError, DimensionMismatch,
                     InvalidEll, InvariantViolation, NotInSpan, OutputError,
                     PrecisionError, Undecidable, UsageError, XicubeError, ZeroElement)
from .forms import (conjugate_point, coupling_form, cubic_form,
                    pair_discriminant, pair_values, trilinear_form)
from .intervals import Interval
from .lab import ExperimentConfig, ExperimentReport, run_experiment
from .minimal import (MinimalPoint, PairRecord, build_pair_records,
                      candidate_for, decompose_pair, independence_set,
                      minimal_sequence, pair_checks)
from .realctx import RealContext, approx_error, delta_of, parse_xi_spec
from .ring import (RingElem, basis_of, evaluate, expand, j_subspace,
                   j_valuation, named_element, rho, tau)
from .search import (SearchResult, SupportSet, hp_decompose, maximal_j_element,
                     prop8_inequality, s_subspace_dim, special_family,
                     special_support)
from .vectors import content, cross, det3, sup_norm

__version__ = "0.1.0"
