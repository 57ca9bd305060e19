"""Dual-engine verifier for Ulrich ideals on rational surface singularities.

Engine A (``polyring``, ``ideals``, ``presentations``, ``ulrich``) does
exact ideal theory over Q(i); engine B (``dualgraph``, ``graphcatalog``)
does resolution-graph combinatorics.  The CLI (``cli``) runs both and
cross-checks them.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
