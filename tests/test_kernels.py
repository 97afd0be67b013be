"""The univariate F_p[t] kernels against sympy's GF(p)[t] arithmetic."""

import pytest

import frobgrow._kernels
from frobgrow._kernels import _ref

PRIMES = (2, 3, 5, 7, 101, 2147483647)


def rand_poly(rng, p, max_len=14):
    return _ref.uni_trim([rng.randrange(p) for _ in range(rng.randint(0, max_len))])


def test_impl_is_pure():
    assert frobgrow._kernels.IMPL == "pure"


@pytest.fixture
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, a, p):
    return sympy.Poly(list(reversed(a)) or [0], sympy.Symbol("t"), modulus=p)


def from_sympy(poly, p):
    # sympy prints GF(p) coefficients as symmetric residues
    return _ref.uni_trim([int(c) % p for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("p", PRIMES)
def test_mul_divmod_gcd_agree_with_sympy(sympy, p, rng):
    for _ in range(100):
        a, b = rand_poly(rng, p), rand_poly(rng, p)
        A, B = to_sympy(sympy, a, p), to_sympy(sympy, b, p)
        assert _ref.uni_mul(a, b, p) == from_sympy(A * B, p)
        assert _ref.uni_gcd(a, b, p) == from_sympy(A.gcd(B), p)
        if b:
            Q, R = A.div(B)
            assert _ref.uni_divmod(a, b, p) == (from_sympy(Q, p), from_sympy(R, p))


@pytest.mark.parametrize("p", PRIMES)
def test_powmod_agrees_with_sympy(sympy, p, rng):
    for _ in range(40):
        a, m = rand_poly(rng, p, 8), rand_poly(rng, p, 8)
        if not m:
            continue
        e = rng.randrange(40)
        want = (to_sympy(sympy, a, p) ** e).rem(to_sympy(sympy, m, p))
        assert _ref.uni_powmod(a, e, m, p) == from_sympy(want, p)


class TestReference:
    def test_trim(self):
        assert _ref.uni_trim([1, 0, 2, 0, 0]) == [1, 0, 2]
        assert _ref.uni_trim([0, 0]) == []

    def test_gcd_is_monic(self, rng):
        for _ in range(50):
            a = rand_poly(rng, 5)
            b = rand_poly(rng, 5)
            g = _ref.uni_gcd(a, b, 5)
            if g:
                assert g[-1] == 1

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            _ref.uni_divmod([1], [], 3)
