"""Pure-Python reference kernels.

Dense univariate polynomials over F_p are plain lists of ints, index =
degree, coefficients in [0, p), trailing zeros trimmed ([] is the zero
polynomial).  `frobgrow._kernels` re-exports these functions.
"""

IMPL = "pure"


def uni_trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def uni_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, cb in enumerate(b):
        out[i] = (out[i] + cb) % p
    return uni_trim(out)


def uni_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, ca in enumerate(a):
        out[i] = ca
    for i, cb in enumerate(b):
        out[i] = (out[i] - cb) % p
    return uni_trim(out)


def uni_scale(a, c, p):
    c %= p
    if c == 0:
        return []
    return [(ca * c) % p for ca in a]


def uni_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return uni_trim(out)


def uni_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    if len(a) < len(b):
        return [], list(a)
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[db], p - 2, p)
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = (c * inv) % p
        quo[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return uni_trim(quo), uni_trim(rem)


def uni_rem(a, b, p):
    return uni_divmod(a, b, p)[1]


def uni_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, uni_rem(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def uni_powmod(a, e, m, p):
    result = uni_rem([1], m, p)
    base = uni_rem(a, m, p)
    while e > 0:
        if e & 1:
            result = uni_rem(uni_mul(result, base, p), m, p)
        base = uni_rem(uni_mul(base, base, p), m, p)
        e >>= 1
    return result
