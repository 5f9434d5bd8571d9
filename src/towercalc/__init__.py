"""Exact tower-form calculus for static Maxwell fields on odd-dimensional space.

Everything is computed over the rationals: differential forms with
homogeneous radial-polynomial coefficients, the ladder construction of
homogeneous static solutions, generalized spherical-harmonic seed spaces,
weighted-membership bookkeeping, expansions of static pairs, and the
whole-space solution operator with its power profiles.
"""

from .ring import QQ, qq, qq_str, RadialRingElement, monomials, reduced_monomials
from .errors import (ConsistencyError, HypothesisError, InvalidRankError,
                     require_odd_dimension)
from .forms import (Form, GradeError, R_op, T_op, monomial_average,
                    sphere_inner_product)
from .harmonic import (SeedSpace, seed_basis, mu, harmonic_dimension,
                       clear_cache)
from .towers import (TowerIndex, TowerFamily, TowerContext,
                     ExceptionalFormDescriptor, a_chain, b_chain,
                     build_tower_pair, exceptional_form, homogeneity_degree,
                     tower_coefficient, verify_family,
                     verify_low_floor_harmonicity)
from .indices import (enumerate_excluded, excluded_empty_weight_bound,
                      exceptional_weights, in_weighted_l2,
                      is_exceptional_weight, multiplicity, negate_index,
                      require_hypotheses, shift_index, validate_hypotheses)
from .expansion import (ExpansionResult, MaxwellPair, expand,
                        expansion_commutes_with_maxwell,
                        iterated_maxwell_check, lemma34_classify, maxwell_map,
                        membership_filter, tower_candidates)
from .static_op import (LinExpr, OperatorRangeDescriptor, TowerProfile,
                        apply_L_power, apply_L_profile, solve_whole_space,
                        verify_recursion)

__version__ = "0.1.0"

__all__ = [
    "QQ", "qq", "qq_str", "RadialRingElement", "monomials", "reduced_monomials",
    "ConsistencyError", "HypothesisError", "InvalidRankError",
    "require_odd_dimension",
    "Form", "GradeError", "R_op", "T_op",
    "monomial_average", "sphere_inner_product",
    "SeedSpace", "seed_basis", "mu", "harmonic_dimension", "clear_cache",
    "TowerIndex", "TowerFamily", "TowerContext", "ExceptionalFormDescriptor",
    "a_chain", "b_chain", "build_tower_pair", "exceptional_form",
    "homogeneity_degree", "tower_coefficient", "verify_family",
    "verify_low_floor_harmonicity",
    "enumerate_excluded", "excluded_empty_weight_bound", "exceptional_weights",
    "in_weighted_l2", "is_exceptional_weight", "multiplicity", "negate_index",
    "require_hypotheses", "shift_index", "validate_hypotheses",
    "ExpansionResult", "MaxwellPair", "expand",
    "expansion_commutes_with_maxwell", "iterated_maxwell_check",
    "lemma34_classify", "maxwell_map", "membership_filter", "tower_candidates",
    "LinExpr", "OperatorRangeDescriptor", "TowerProfile", "apply_L_power",
    "apply_L_profile", "solve_whole_space", "verify_recursion",
    "__version__",
]
