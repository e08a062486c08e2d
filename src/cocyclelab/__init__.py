"""Numerical laboratory for SO(3) cocycles over geodesic flows on 2-tori.

Builds connection/Higgs pairs whose parallel-transport cocycle is
cohomologically trivial, via vertical Backlund-type steps, and verifies
every defining identity by direct computation: fiber-mode calculus on
discretized fields and ODE transport along geodesics.
"""

from .errors import (
    CocycleLabError,
    GNotHolomorphic,
    InputNotCertified,
    NonOrthogonalDrift,
    NonSmoothLambda,
    NotClosed,
    NotUnit,
    OutputNotCertified,
    RankDeficient,
    ReductionFailed,
    StepTooLarge,
)
from .torus import GeodesicPath, Harmonic, SMPoint, TorusMetric, integrate_geodesic
from .smfield import Connection, FourierField, Higgs, Pair, l2_inner

__all__ = [
    "CocycleLabError",
    "Connection",
    "FourierField",
    "GNotHolomorphic",
    "GeodesicPath",
    "Harmonic",
    "Higgs",
    "InputNotCertified",
    "NonOrthogonalDrift",
    "NonSmoothLambda",
    "NotClosed",
    "NotUnit",
    "OutputNotCertified",
    "Pair",
    "RankDeficient",
    "ReductionFailed",
    "SMPoint",
    "StepTooLarge",
    "TorusMetric",
    "integrate_geodesic",
    "l2_inner",
]
