"""congwidth: exact conjugacy-width reductions, conjugation-invariant norms,
and brute-force finite censuses for special linear groups over rings.

The package root loads no numpy: the finite engine is imported from its
modules, congwidth.census and congwidth.norms."""

from .errors import CongwidthError
from .rings import Ideal, RingElement, RingSpec, extended_gcd, unit_check
from .matrices import (
    CongruenceDatum,
    SqMatrix,
    commutator,
    congruence_level,
    conjugate,
    determinant,
    elementary,
    identity,
    is_central,
    mat_inv,
)
from .certificate import ElemFactorization, QOperation, ReductionTrace, replay_trace, serialize_trace
from .factorization import decompose_elementary, factor_count_census
from .reduction import (
    expand_trace_word,
    reduce_full,
    reduce_to_affine,
    relocate_elementary,
    sl2_unit_reduction,
    strip_to_translation,
    translation_to_elementary,
    unimodular_square_shift,
)

__all__ = [
    "CongwidthError",
    "CongruenceDatum",
    "ElemFactorization",
    "Ideal",
    "QOperation",
    "ReductionTrace",
    "RingElement",
    "RingSpec",
    "SqMatrix",
    "commutator",
    "congruence_level",
    "conjugate",
    "decompose_elementary",
    "determinant",
    "elementary",
    "expand_trace_word",
    "extended_gcd",
    "factor_count_census",
    "identity",
    "is_central",
    "mat_inv",
    "reduce_full",
    "reduce_to_affine",
    "relocate_elementary",
    "replay_trace",
    "serialize_trace",
    "sl2_unit_reduction",
    "strip_to_translation",
    "translation_to_elementary",
    "unimodular_square_shift",
    "unit_check",
]
