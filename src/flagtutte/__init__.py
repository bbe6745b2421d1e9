"""Exact Tutte-type invariants of matroids, matroid quotients, and flag
matroids, computed through lattice-point generating functions of base
polytopes (tangent cones, vertex-cone summation, cone flips, slice-wise
coefficient extraction).

All arithmetic is exact (integers and fractions); every polynomial is
returned as an :class:`AuxPolynomial` or, for torus-equivariant refinements,
an :class:`EquivariantPolynomial`.
"""

from .caches import cache_stats, clear_caches
from .cones import (Direction, HalfOpenSimplicialCone, cone_membership,
                    default_direction, flip_cone, slice_cone,
                    tangent_cone_generators, triangulate_half_open)
from .corpus import (corpus_summary, flag_corpus, matroid_corpus,
                     quotient_corpus)
from .errors import (DegenerateWeights, FlagTutteError, GeometryError,
                     GroundSetTooLarge, HasLoopOrColoop, InputError,
                     InternalAssertion, InvalidRank, LoopOrColoop,
                     NonCancellingPole, NotAMatroid, NotAQuotient,
                     NotAQuotientChain, NotDivisible, NotInUV, NotPointed,
                     NotUnimodular, ParseError, RankGapZero,
                     RankZeroConstituent, UnknownIdentity, UnknownInvariant)
from .genfun import (EquivariantPolynomial, GenFun, GenFunTerm, brion_series,
                     coefficient_at, evaluate_t1, slice_genfun, support)
from .invariants import (beta_invariant, beta_polynomial, brion_example_report,
                         characteristic, check_beta_higgs,
                         check_coefficient_theorem, check_direct_sum,
                         check_duality, check_kchi_conjecture,
                         check_latticepoints, check_loop_coloop_divisibility,
                         check_lvt_delcont, check_lvt_special,
                         compute_invariant, count_lattice_points,
                         h_candidate_lv, h_polynomial, h_value_uv, k_char,
                         kt, kt_equivariant, lv_tutte, lv_tutte_equivariant,
                         poincare, reduced_beta_via_higgs, tutte,
                         verify_delcont, verify_h_uv, verify_kt22)
from .io import load_input, matroid_from_dict, object_from_dict, object_to_dict
from .matroid import (FlagMatroid, Matroid, face_basis, flag, flag_direct_sum,
                      flag_dual, higgs_factorization, is_quotient,
                      pseudo_bases, pseudo_basis_masks)
from .polynomial import AuxPolynomial

__version__ = "0.1.0"

__all__ = [
    "AuxPolynomial", "DegenerateWeights", "Direction",
    "EquivariantPolynomial", "FlagMatroid", "FlagTutteError", "GenFun",
    "GenFunTerm", "GeometryError", "GroundSetTooLarge",
    "HalfOpenSimplicialCone", "HasLoopOrColoop", "InputError",
    "InternalAssertion", "InvalidRank", "LoopOrColoop", "Matroid",
    "NonCancellingPole", "NotAMatroid", "NotAQuotient", "NotAQuotientChain",
    "NotDivisible", "NotInUV", "NotPointed", "NotUnimodular", "ParseError",
    "RankGapZero", "RankZeroConstituent", "UnknownIdentity",
    "UnknownInvariant", "beta_invariant", "beta_polynomial",
    "brion_example_report", "brion_series", "cache_stats", "characteristic",
    "check_beta_higgs", "check_coefficient_theorem", "check_direct_sum",
    "check_duality", "check_kchi_conjecture", "check_latticepoints",
    "check_loop_coloop_divisibility", "check_lvt_delcont",
    "check_lvt_special", "clear_caches", "coefficient_at",
    "compute_invariant", "cone_membership", "corpus_summary",
    "count_lattice_points",
    "default_direction", "evaluate_t1", "face_basis", "flag", "flag_corpus",
    "flag_direct_sum", "flag_dual", "flip_cone", "h_candidate_lv",
    "h_polynomial", "h_value_uv", "higgs_factorization", "is_quotient",
    "k_char", "kt", "kt_equivariant", "load_input", "lv_tutte",
    "lv_tutte_equivariant", "matroid_corpus", "matroid_from_dict",
    "object_from_dict", "object_to_dict", "poincare", "pseudo_bases",
    "pseudo_basis_masks", "quotient_corpus", "reduced_beta_via_higgs",
    "slice_cone", "slice_genfun", "support", "tangent_cone_generators",
    "triangulate_half_open", "tutte", "verify_delcont", "verify_h_uv",
    "verify_kt22",
]
