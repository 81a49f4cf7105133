"""GF(p^2) arithmetic and quadratic character tests.

The character oracle here is independent of the library: naive modular
pairs (a, b) with theta^2 = n, squares enumerated from scratch.
"""

import pytest

from qhadamard import BudgetError, FieldError, GFElement, cod_recurse, make_field
from conftest import field

PRIMES = (3, 5, 7, 11, 13)


def naive_square_set(p, n):
    """All nonzero squares of GF(p^2) as (a, b) pairs, brute force."""
    squares = set()
    for a in range(p):
        for b in range(p):
            if a == 0 and b == 0:
                continue
            sq = ((a * a + n * b * b) % p, (2 * a * b) % p)
            squares.add(sq)
    return squares


def test_make_field_small_nonresidues():
    assert field(3).nonresidue == 2 and field(3).q == 9
    assert field(5).nonresidue == 2 and field(5).q == 25


@pytest.mark.parametrize("bad", [4, 2, 9, 1, 0])
def test_make_field_rejects_bad_p(bad):
    with pytest.raises(FieldError):
        make_field(bad)


def test_make_field_rejects_over_budget():
    with pytest.raises(FieldError):
        make_field(103, budget_mb=1700)
    make_field(101, budget_mb=1700)


def test_over_budget_is_a_budget_error(monkeypatch):
    with pytest.raises(BudgetError):
        make_field(103, budget_mb=1700)
    with pytest.raises(BudgetError):
        cod_recurse(make_field(3), 6)
    monkeypatch.setenv("MEM_BUDGET_MB", "1")
    with pytest.raises(BudgetError):
        make_field(31)


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", ""])
def test_malformed_budget_is_a_field_error(monkeypatch, raw):
    monkeypatch.setenv("MEM_BUDGET_MB", raw)
    with pytest.raises(FieldError) as err:
        make_field(3)
    assert not isinstance(err.value, BudgetError)


def test_chi_zero():
    assert field(3).chi(GFElement(0, 0)) == 0


def test_chi_p3_against_naive_enumeration():
    ctx = field(3)
    squares = naive_square_set(3, ctx.nonresidue)
    assert (0, 1) in squares  # theta itself is a square
    assert ctx.chi(GFElement(0, 1)) == 1
    assert (1, 1) not in squares
    assert ctx.chi(GFElement(1, 1)) == -1
    for x in ctx.elements():
        expected = 0 if (x.a, x.b) == (0, 0) else (1 if (x.a, x.b) in squares else -1)
        assert ctx.chi(x) == expected


@pytest.mark.parametrize("p", PRIMES)
def test_chi_matches_euler_criterion(p):
    ctx = field(p)
    half = (ctx.q - 1) // 2
    one = ctx.element(1)
    for x in ctx.elements():
        if x == GFElement(0, 0):
            continue
        power = ctx.pow(x, half)
        assert power in (one, ctx.element(-1))
        assert ctx.chi(x) == (1 if power == one else -1)


@pytest.mark.parametrize("p", PRIMES)
def test_char_table_balance(p):
    ctx = field(p)
    assert ctx.char_table[0] == 0
    assert (ctx.char_table == 1).sum() == (ctx.q - 1) // 2
    assert (ctx.char_table == -1).sum() == (ctx.q - 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_chi_multiplicative(p):
    ctx = field(p)
    elems = [x for x in ctx.elements() if x != GFElement(0, 0)]
    for x in elems[:: max(1, len(elems) // 20)]:
        for y in elems:
            assert ctx.chi(ctx.mul(x, y)) == ctx.chi(x) * ctx.chi(y)


@pytest.mark.parametrize("p", PRIMES)
def test_chi_sum_zero(p):
    ctx = field(p)
    assert int(ctx.char_table.sum()) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_coset_sums_translation_invariant(p):
    ctx = field(p)
    sums = [sum(ctx.chi(x) for x in ctx.coset(k)) for k in range(1, p)]
    assert len(set(sums)) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_chi_minus_one_is_square(p):
    ctx = field(p)
    assert ctx.chi(ctx.element(-1)) == 1


def test_coset_index():
    assert field(3).coset_index(GFElement(2, 0)) == 0
    assert field(3).coset_index(GFElement(1, 1)) == 1
    assert field(5).coset_index(GFElement(4, 3)) == 3


def test_coset_char_sum_examples():
    assert field(3).coset_char_sum(GFElement(0, 0)) == 2
    assert field(3).coset_char_sum(GFElement(0, 1)) == -1
    assert field(7).coset_char_sum(GFElement(5, 2)) == -1


@pytest.mark.parametrize("p", PRIMES)
def test_coset_char_sum_closed_form(p):
    ctx = field(p)
    for t in ctx.elements():
        expected = p - 1 if t.b == 0 else -1
        assert ctx.coset_char_sum(t) == expected


def test_element_index_roundtrip():
    ctx = field(5)
    for i in range(ctx.q):
        assert ctx.index(ctx.from_index(i)) == i
