"""Finite-dimensional real division algebras: construction, the double
sign classification, isotopes, idempotent splittings, and normal forms
in dimensions 2 and 4, with a seeded verification suite behind the
`divalg` command line tool.
"""

from .core import Algebra, SignPair, block_of, classical, commutant, \
    find_unities, is_division, is_morphism, isotope, isotope_many, \
    left_mult, morphism_residual, morphism_residual_many, opposite, \
    right_mult, sign_pair, sign_pair_many, transport, transport_many
from .decorated import DecoratedAlgebra, decorate, forget, functor_i, kappa
from .dim2 import NormalForm2D, automorphisms_2d, build2d, hom2d, \
    iso_to_c, normal_form_2d, normal_form_2d_many, unitalize
from .equadratic import central_idempotents, functor_g, im_e, \
    is_e_quadratic
from .errors import DivalgError
from .quat import ZObject, functor_h, functor_h_many, k_map, k_map_many, \
    quat_normal_form, so4_factor, z_action
from .verify import Report, run_verify

__all__ = [
    "Algebra",
    "SignPair",
    "DecoratedAlgebra",
    "NormalForm2D",
    "ZObject",
    "DivalgError",
    "Report",
    "automorphisms_2d",
    "block_of",
    "build2d",
    "central_idempotents",
    "classical",
    "commutant",
    "decorate",
    "find_unities",
    "forget",
    "functor_g",
    "functor_h",
    "functor_h_many",
    "functor_i",
    "hom2d",
    "im_e",
    "is_division",
    "is_e_quadratic",
    "is_morphism",
    "iso_to_c",
    "isotope",
    "isotope_many",
    "k_map",
    "k_map_many",
    "kappa",
    "left_mult",
    "morphism_residual",
    "morphism_residual_many",
    "normal_form_2d",
    "normal_form_2d_many",
    "opposite",
    "quat_normal_form",
    "right_mult",
    "run_verify",
    "sign_pair",
    "sign_pair_many",
    "so4_factor",
    "transport",
    "transport_many",
    "unitalize",
    "z_action",
]

__version__ = "0.1.0"
