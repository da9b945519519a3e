"""Exact inertial (orbifold) products for finite group quotients.

Everything is computed over exact cyclotomic scalars; no floats are used
anywhere in the mathematical core.
"""
