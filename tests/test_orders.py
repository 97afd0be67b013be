"""The packed key is the monomial order.

Each test compares `MonomialOrder.key` with a comparator written here
from the definition of the orders: grevlex compares the total degree,
then the exponent of the least significant variable (the smaller one
wins), then the next one up; a block order compares its front block
by grevlex, then the back block.  The packed divisor test and the
key-sum coprimality test are compared with their componentwise
definitions.
"""

import functools

import pytest

from frobgrow.decomposer import family
from frobgrow.fpoly import MultiPoly, PrimeModulus, PrimePower, RingSpec
from frobgrow.hq import build_Md
from frobgrow.orders import MonomialOrder, block, grevlex

TOP = 2**16 - 1


def grevlex_cmp(a, b, prec):
    """-1, 0 or 1 as a is below, equal to or above b in grevlex on prec."""
    da, db = sum(a[i] for i in prec), sum(b[i] for i in prec)
    if da != db:
        return -1 if da < db else 1
    for i in reversed(prec):
        if a[i] != b[i]:
            return -1 if a[i] > b[i] else 1
    return 0


def order_cmp(a, b, order):
    front = order.precedence[: order.front_size]
    back = order.precedence[order.front_size :]
    return grevlex_cmp(a, b, front) or grevlex_cmp(a, b, back)


def random_order(rng, n):
    prec = list(range(n))
    rng.shuffle(prec)
    return MonomialOrder(tuple(prec), rng.randrange(n))


def random_exps(rng, n):
    """Mostly small exponents, some up to TOP, so that ties in the total
    degree are common and the widest fields are reached."""
    return tuple(
        rng.randint(0, TOP) if rng.random() < 0.2 else rng.randint(0, 3) for _ in range(n)
    )


def neighbour(rng, exps):
    """exps with one unit moved between two variables, when it can be."""
    e = list(exps)
    i, j = rng.randrange(len(e)), rng.randrange(len(e))
    if e[i] and e[j] < TOP:
        e[i] -= 1
        e[j] += 1
    return tuple(e)


@pytest.mark.parametrize("n", range(1, 8))
def test_key_compares_as_the_order(rng, n):
    for _ in range(300):
        order = random_order(rng, n)
        a = random_exps(rng, n)
        b = neighbour(rng, a) if rng.random() < 0.5 else random_exps(rng, n)
        ka, kb = order.key(a), order.key(b)
        assert (ka > kb) - (ka < kb) == order_cmp(a, b, order), (order, a, b)


@pytest.mark.parametrize("n", range(1, 8))
def test_key_decodes_and_adds(rng, n):
    for _ in range(200):
        order = random_order(rng, n)
        a, b = random_exps(rng, n), random_exps(rng, n)
        assert order.exps(order.key(a)) == a
        assert order.key((0,) * n) == order.one
        # multiplication is key addition: the shifts of a reduction rely on it
        product = tuple(x + y for x, y in zip(a, b))
        assert order.key(product) == order.key(a) + order.key(b) - order.one
        assert order.exps(order.key(product)) == product


def test_extreme_exponents_decode():
    for order in (MonomialOrder((2, 0, 1)), MonomialOrder((1, 2, 0), 1)):
        for e in ((0, 0, 0), (TOP, TOP, TOP), (TOP, 0, 1)):
            assert order.exps(order.key(e)) == e


WORD_TOP = 2**23 - 1  # the divisor test is exact up to here


def random_word_exps(rng, n):
    """Exponents at 0, small, up to WORD_TOP or at WORD_TOP, with the
    total degree kept below 2^24 so that every key is exact."""
    while True:
        e = tuple(
            rng.choice((0, WORD_TOP, rng.randint(0, 3), rng.randint(0, WORD_TOP)))
            for _ in range(n)
        )
        if sum(e) < 2**24:
            return e


def order_of(rng, n, kind):
    prec = tuple(rng.sample(range(n), n))
    return MonomialOrder(prec, rng.randrange(1, n) if kind == "block" else 0)


ORDER_KINDS = [(n, "grevlex") for n in range(1, 8)] + [(n, "block") for n in range(2, 8)]


def divides(order, a, b):
    word_a = ~order.key(a) & order.cmask
    word_b = ~order.key(b) & order.cmask
    guard = order.guard
    return ((word_b | guard) - word_a) & guard == guard


@pytest.mark.parametrize("n,kind", ORDER_KINDS)
def test_word_divisibility_is_componentwise(rng, n, kind):
    for _ in range(300):
        order = order_of(rng, n, kind)
        b = random_word_exps(rng, n)
        r = rng.random()
        if r < 0.4:  # a divisor of b
            a = tuple(rng.randint(0, x) for x in b)
        elif r < 0.7:  # a divisor of b with one exponent raised by one
            a = list(rng.randint(0, x) for x in b)
            i = rng.randrange(n)
            a[i] = min(b[i] + 1, WORD_TOP)
            a = tuple(a)
        else:
            a = random_word_exps(rng, n)
        # the word holds one exponent per component field
        word = ~order.key(b) & order.cmask
        assert word == sum(e << s for e, s in zip(b, order.shifts))
        assert divides(order, a, b) == all(x <= y for x, y in zip(a, b)), (order, a, b)
        assert divides(order, b, b)


@pytest.mark.parametrize("n,kind", ORDER_KINDS)
def test_key_sum_coprimality_is_componentwise(rng, n, kind):
    for _ in range(300):
        order = order_of(rng, n, kind)
        a = random_word_exps(rng, n)
        if rng.random() < 0.5:  # b zero wherever a is not
            b = tuple(0 if x else y for x, y in zip(a, random_word_exps(rng, n)))
        else:
            b = random_word_exps(rng, n)
        lcm = tuple(map(max, a, b))
        coprime = order.key(lcm) == order.key(a) + order.key(b) - order.one
        assert coprime == all(x == 0 or y == 0 for x, y in zip(a, b)), (order, a, b)


def test_word_fields_at_the_exactness_bound():
    for order in (MonomialOrder((2, 0, 1)), MonomialOrder((1, 2, 0), 1)):
        top, one_less = (WORD_TOP, 0, WORD_TOP), (WORD_TOP - 1, 0, WORD_TOP)
        assert divides(order, one_less, top) and not divides(order, top, one_less)
        assert divides(order, (0, 0, 0), top) and not divides(order, top, (0, 0, 0))


def test_orders_are_values():
    # equal orders are one cache key
    assert grevlex((1, 1, 0)) == MonomialOrder((0, 1, 2))
    assert hash(block((1, 1, 0), (2,))) == hash(MonomialOrder((2, 0, 1), 1))
    assert MonomialOrder((0, 1, 2)) != MonomialOrder((0, 1, 2), 1)


@pytest.mark.parametrize("precedence", [(0, 0), (1, 2), (0, 2), (1,)])
def test_precedence_must_be_a_permutation(precedence):
    with pytest.raises(ValueError):
        MonomialOrder(precedence)


@pytest.mark.parametrize("front_size", [-1, 3, 4])
def test_front_block_must_be_proper(front_size):
    with pytest.raises(ValueError):
        MonomialOrder((0, 1, 2), front_size)


def test_block_rejects_bad_fronts():
    with pytest.raises(ValueError):
        block((1, 1, 0), (0, 0))
    with pytest.raises(ValueError):
        block((1, 1, 0), (0, 1, 2))


def test_terms_descend_in_the_default_order(rng):
    R = RingSpec(PrimeModulus(5), (("t", 0), ("x", 1), ("y", 1), ("z", 1)))
    for _ in range(20):
        f = MultiPoly(R, {random_exps(rng, 4): rng.randint(1, 4) for _ in range(8)})
        mons = [m for m, _ in f.terms()]
        order = R.default_order
        assert all(order_cmp(a, b, order) == 1 for a, b in zip(mons, mons[1:]))


@pytest.mark.parametrize("name,p,e", [("ss5", 3, 1), ("ss5", 2, 2), ("brenner_monsky", 2, 2)])
def test_build_Md_is_grevlex_descending(name, p, e):
    # rows, and the columns of each relation, sorted by the comparator
    fam = family(name, p)
    q = PrimePower(PrimeModulus(p), e)
    n = len(fam.ring.weight1_indices())
    desc = functools.cmp_to_key(lambda a, b: -grevlex_cmp(a, b, range(n)))
    for d in range(1, n * (q.q - 1) + 1):
        M = build_Md(fam.ring, q, d)
        assert list(M.rows) == sorted(M.rows, key=desc)
        assert list(M.cols) == sorted(M.cols, key=lambda c: (c[0], desc(c[1])))
