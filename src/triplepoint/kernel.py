"""Kernel selection: compiled extension if importable, pure Python otherwise.

Set TRIPLEPOINT_PURE=1 to force the pure-Python kernel.
"""

import os

if os.environ.get("TRIPLEPOINT_PURE") == "1":
    from . import _termkernel_py as _impl

    BACKEND = "pure"
else:
    try:
        from . import _termkernel_c as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _termkernel_py as _impl

        BACKEND = "pure"

SZERO = _impl.SZERO
SONE = _impl.SONE
snorm = _impl.snorm
sadd = _impl.sadd
smul = _impl.smul
sdiv = _impl.sdiv
sneg = _impl.sneg
add_terms = _impl.add_terms
neg_terms = _impl.neg_terms
scale_terms = _impl.scale_terms
mono_mul_terms = _impl.mono_mul_terms
mul_terms = _impl.mul_terms
reduce_terms = _impl.reduce_terms
monic_terms = _impl.monic_terms
