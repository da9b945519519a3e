"""Exact inertial (orbifold) products for finite group quotients.

Everything is computed over exact cyclotomic scalars; no floats are used
anywhere in the mathematical core.
"""

from .cyclotomic import Cyclotomic, cyc, root_of_unity
from .errors import InertialError, TheoremViolation, UserError
from .groups import FiniteGroup, catalog_group

__all__ = [
    "Cyclotomic",
    "cyc",
    "root_of_unity",
    "FiniteGroup",
    "catalog_group",
    "InertialError",
    "UserError",
    "TheoremViolation",
]
