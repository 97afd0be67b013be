"""Univariate F_p[t] kernels: a re-export of the pure-Python `_ref` module.

The kernels live in their own package so that traced runs can attribute
their time to a `kernels` layer of its own.
"""

from ._ref import (
    IMPL,
    uni_add,
    uni_divmod,
    uni_gcd,
    uni_mul,
    uni_powmod,
    uni_rem,
    uni_scale,
    uni_sub,
    uni_trim,
)
