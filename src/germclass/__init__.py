"""Recognition of corank-1 surface map-germ singularities up to codimension two."""

from .classify import Certificate, Classification, Verdict, classify, normal_forms
from .errors import GermError, OrderExhaustedError, ParseError, PreconditionError
from .jets import (Jet2, MapJet, PolyMap2, PolyMap3, compose2, compose_map,
                   from_divided_coeffs, post_compose)
from .vfields import FramePair, VectorFieldJet, apply, apply_word

__all__ = [
    "Certificate", "Classification", "Verdict", "classify", "normal_forms",
    "GermError", "OrderExhaustedError", "ParseError", "PreconditionError",
    "Jet2", "MapJet", "PolyMap2", "PolyMap3", "compose2", "compose_map",
    "from_divided_coeffs", "post_compose",
    "FramePair", "VectorFieldJet", "apply", "apply_word",
]
