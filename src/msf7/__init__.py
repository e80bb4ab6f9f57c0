"""Exact classification machinery for multisymplectic 3-forms on R^7.

Everything computes over arbitrary-precision rationals, and every operation
is a pure function that returns new values.  The contents of a value cannot
be changed in place (``KForm.terms`` is a read-only map and
``LinearMap.rows`` a tuple of tuples), but attributes can still be rebound,
so callers must not assign to them.
"""

from .algebras import (
    AlgebraElement,
    AlgebraTable,
    build_algebra,
    conjugate,
    is_automorphism,
    multiply,
    norm,
    octonion_form_basis,
    split_octonion_form_basis,
    split_octonion_prime_basis,
    triple_form,
)
from .exterior import (
    KForm,
    LinearMap,
    SymmetricMatrix,
    basis_vector,
    interior,
    kernel,
    pullback,
    scal,
    signature,
    vec,
    wedge,
)
from .forms7 import (
    CanonicalForm,
    InvariantVector,
    b_form,
    b_signature,
    canonical,
    classify,
    compact_dim,
    invariant_vector,
    is_multisymplectic,
    sample_orbit,
    stabilizer_algebra,
    stabilizer_dim,
)
from .stabilizers import (
    embed_gl2pair,
    embed_sl2pair,
    embed_so3_33,
    embed_so4,
    identity_checks,
    verify_membership,
    verify_paper,
)
from .topology import (
    CohomologyModel,
    Verdict,
    bundled_model,
    bundled_model_names,
    check_type,
    cup_eval,
    load_model,
)

__all__ = [
    "AlgebraElement", "AlgebraTable", "CanonicalForm", "CohomologyModel",
    "InvariantVector", "KForm", "LinearMap", "SymmetricMatrix", "Verdict",
    "b_form", "b_signature", "basis_vector", "build_algebra", "bundled_model",
    "bundled_model_names", "canonical", "check_type", "classify",
    "compact_dim", "conjugate", "cup_eval", "embed_gl2pair", "embed_sl2pair",
    "embed_so3_33", "embed_so4", "identity_checks", "interior",
    "invariant_vector", "is_automorphism", "is_multisymplectic", "kernel",
    "load_model", "multiply", "norm", "octonion_form_basis", "pullback",
    "sample_orbit", "scal", "signature", "split_octonion_form_basis",
    "split_octonion_prime_basis", "stabilizer_algebra", "stabilizer_dim",
    "triple_form", "vec", "verify_membership", "verify_paper", "wedge",
]

__version__ = "0.1.0"
