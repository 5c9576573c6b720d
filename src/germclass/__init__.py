"""Recognition of corank-1 surface map-germ singularities up to codimension two."""

from .classify import (Certificate, Classification, Verdict, classify,
                       normal_forms, phi, second_derivatives_phi)
from .errors import GermError, OrderExhaustedError, ParseError, PreconditionError
from .jets import (Jet2, MapJet, PolyMap2, PolyMap3, compose2, compose_map,
                   cross_at0, det3_at0, det3_jet, from_divided_coeffs,
                   inv_series, invsqrt_series, post_compose)
from .vfields import FramePair, VectorFieldJet, apply, apply_word, bracket

__all__ = [
    "Certificate", "Classification", "Verdict", "classify", "normal_forms",
    "phi", "second_derivatives_phi",
    "GermError", "OrderExhaustedError", "ParseError", "PreconditionError",
    "Jet2", "MapJet", "PolyMap2", "PolyMap3", "compose2", "compose_map",
    "cross_at0", "det3_at0", "det3_jet", "from_divided_coeffs",
    "inv_series", "invsqrt_series", "post_compose",
    "FramePair", "VectorFieldJet", "apply", "apply_word", "bracket",
]
