"""Exact computation in positive cones of weakly quasi-lattice ordered groups."""

from .order import (
    Ball,
    BallCapExceeded,
    DirectSum,
    ElementOutsideBall,
    IntGroup,
    JoinResult,
    Presentation,
    PresentationError,
    check_weak_ql,
    oracle_join,
    verify_join,
)
from .presets import get_presentation

__all__ = [
    "Ball",
    "BallCapExceeded",
    "DirectSum",
    "ElementOutsideBall",
    "IntGroup",
    "JoinResult",
    "Presentation",
    "PresentationError",
    "check_weak_ql",
    "oracle_join",
    "verify_join",
    "get_presentation",
]
