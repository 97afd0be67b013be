"""Kernel selection: compiled extension if available, pure Python otherwise.

Set FROBGROW_PURE=1 to force the pure-Python kernels (used by the tests
that compare the two implementations).
"""

import os

from . import _ref

if os.environ.get("FROBGROW_PURE") == "1":
    _impl = _ref
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _ref

IMPL = _impl.IMPL

uni_trim = _impl.uni_trim
uni_add = _impl.uni_add
uni_sub = _impl.uni_sub
uni_scale = _impl.uni_scale
uni_mul = _impl.uni_mul
uni_divmod = _impl.uni_divmod
uni_rem = _impl.uni_rem
uni_gcd = _impl.uni_gcd
uni_powmod = _impl.uni_powmod
