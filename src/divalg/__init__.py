"""Finite-dimensional real division algebras: construction, the double
sign classification, isotopes, idempotent splittings, and normal forms
in dimensions 2 and 4, with a seeded verification suite behind the
`divalg` command line tool.

``import divalg`` loads no submodule: each name below is looked up in
its defining module on first use, so a one-shot command pays only for
the modules it calls.
"""

import importlib

# every public name, by the module that defines it
_EXPORTS = {
    "core": ("Algebra", "SignPair", "classical", "commutant",
             "find_unities", "is_division", "is_morphism", "isotope",
             "isotope_many", "left_mult", "morphism_residual",
             "morphism_residual_many", "opposite", "right_mult",
             "sign_pair", "sign_pair_many", "transport", "transport_many"),
    "decorated": ("DecoratedAlgebra", "decorate", "forget", "functor_i",
                  "functor_i_many", "kappa"),
    "dim2": ("NormalForm2D", "automorphisms_2d", "build2d", "hom2d",
             "iso_to_c", "normal_form_2d", "normal_form_2d_many",
             "split_scalar_spd", "unitalize"),
    "equadratic": ("central_idempotents", "functor_g", "im_e",
                   "is_e_quadratic"),
    "errors": ("DivalgError",),
    "quat": ("ZObject", "functor_h", "functor_h_many", "k_map",
             "k_map_many", "quat_normal_form", "quat_normal_form_many",
             "so4_factor", "z_action"),
    "verify": ("Report", "run_verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached in the package: a name rebound in its defining module
    # (as a tracer does) is seen here too
    module = _HOME.get(name)
    if module is None:
        # also how `from divalg import cli` reaches the submodule import
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
