"""Quadratic character table tests.

The character oracle here is independent of the library: naive modular
pairs (a, b) with theta^2 = n, squares enumerated from scratch, and the
pair arithmetic of ``reference``.  Element (a, b) sits at index b*p + a.
"""

from collections import Counter

import numpy as np
import pytest

from qhadamard import (
    BudgetError, FieldCtx, FieldError, builder, cod_recurse, field as fieldmod, make_field,
)
from qhadamard.cli import main
from conftest import field, skew_regular
from reference import gf_mul, gf_pow

PRIMES = (3, 5, 7, 11, 13)
ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


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


def chi(ctx, x):
    """The table's character of the pair x = (a, b)."""
    return int(ctx.char_table[x[1] * ctx.p + x[0]])


def nonzero_pairs(p):
    return [(a, b) for b in range(p) for a in range(p) if (a, b) != (0, 0)]


def coset_char_sum(ctx, t):
    """Sum of chi over the translate t + GF(p), from the table."""
    return sum(chi(ctx, ((t[0] + a) % ctx.p, t[1])) for a in range(ctx.p))


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
    assert field(3).char_table[0] == 0


def test_chi_p3_against_naive_enumeration():
    ctx = field(3)
    squares = naive_square_set(3, ctx.nonresidue)
    assert (0, 1) in squares  # theta itself is a square
    assert chi(ctx, (0, 1)) == 1
    assert (1, 1) not in squares
    assert chi(ctx, (1, 1)) == -1


@pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
def test_char_table_matches_naive_squares(p):
    ctx = field(p)
    n = ctx.nonresidue
    assert all(x * x % p != n for x in range(p))
    squares = naive_square_set(p, n)
    expected = [0] + [1 if x in squares else -1 for x in nonzero_pairs(p)]
    assert ctx.char_table.tolist() == expected


@pytest.mark.parametrize("p", PRIMES)
def test_chi_matches_euler_criterion(p):
    ctx = field(p)
    n, half = ctx.nonresidue, (ctx.q - 1) // 2
    for x in nonzero_pairs(p):
        power = gf_pow(p, n, x, half)
        assert power in ((1, 0), (p - 1, 0))
        assert chi(ctx, x) == (1 if power == (1, 0) else -1)


@pytest.mark.parametrize("p", PRIMES)
def test_char_table_balance(p):
    ctx = field(p)
    assert ctx.char_table[0] == 0
    assert (ctx.char_table == 1).sum() == (ctx.q - 1) // 2
    assert (ctx.char_table == -1).sum() == (ctx.q - 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_chi_multiplicative(p):
    ctx = field(p)
    elems = nonzero_pairs(p)
    for x in elems[:: max(1, len(elems) // 20)]:
        for y in elems:
            assert chi(ctx, gf_mul(p, ctx.nonresidue, x, y)) == chi(ctx, x) * chi(ctx, y)


@pytest.mark.parametrize("p", PRIMES)
def test_chi_sum_zero(p):
    ctx = field(p)
    assert int(ctx.char_table.sum()) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_coset_sums_translation_invariant(p):
    # Coset k is the index block [k*p, (k+1)*p).
    sums = field(p).char_table.reshape(p, p)[1:].sum(axis=1)
    assert len(set(sums.tolist())) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_chi_minus_one_is_square(p):
    assert chi(field(p), (p - 1, 0)) == 1


def test_coset_index():
    # The coset {a + k*theta} is the block [k*p, (k+1)*p) of the table, a in order.
    for p in (3, 5):
        ctx = field(p)
        squares = naive_square_set(p, ctx.nonresidue)
        for k in range(p):
            expected = [0 if (a, k) == (0, 0) else 1 if (a, k) in squares else -1
                        for a in range(p)]
            assert ctx.char_table[k * p:(k + 1) * p].tolist() == expected


def test_coset_char_sum_examples():
    assert coset_char_sum(field(3), (0, 0)) == 2
    assert coset_char_sum(field(3), (0, 1)) == -1
    assert coset_char_sum(field(7), (5, 2)) == -1


@pytest.mark.parametrize("p", PRIMES)
def test_coset_char_sum_closed_form(p):
    ctx = field(p)
    for t in [(0, 0)] + nonzero_pairs(p):
        assert coset_char_sum(ctx, t) == (p - 1 if t[1] == 0 else -1)


def test_element_index_roundtrip():
    # Index i is the element (i % p, i // p), whose square chi marks 1.
    ctx = field(5)
    idx = np.arange(ctx.q)
    a, b = idx % ctx.p, idx // ctx.p
    assert np.array_equal(b * ctx.p + a, idx)
    for x in zip(a[1:].tolist(), b[1:].tolist()):
        assert chi(ctx, gf_mul(ctx.p, ctx.nonresidue, x, x)) == 1


# -- the process's one context per prime -----------------------------------


def test_field_ctx_refuses_assignment():
    ctx = make_field(5)
    for name, value in (("p", 7), ("q", 49), ("char_table", ctx.char_table.copy()),
                        ("core", None), ("certified", False), ("even", False)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(ctx, name, value)
    for arr in (ctx.char_table, ctx.core):
        with pytest.raises(ValueError):
            arr[1] = 0
    # The facts a context keeps are still computed on first use.
    fresh = FieldCtx(5)
    assert "certified" not in vars(fresh)
    assert fresh.certified and fresh.even and np.array_equal(fresh.core, ctx.core)
    assert fresh.p == 5 and np.array_equal(fresh.char_table, ctx.char_table)


def test_each_prime_is_built_once_per_process(monkeypatch, capsys, tmp_path):
    counts = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(FieldCtx, "__init__")
    for name in ("_core", "certify_character", "character_is_even"):
        spy(fieldmod, name)
    fieldmod.context.cache_clear()
    s, d, c = (str(tmp_path / name) for name in ("s.qhm", "d.qhm", "c.qhm"))
    for argv in (["construct", "--p", "13", "--out", s], ["verify", s],
                 ["double", s, "--out", d], ["core", s, "--out", c], ["cod", "--p", "13", "--k", "0"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"__init__": 1, "_core": 1, "certify_character": 1, "character_is_even": 1}


def test_make_field_and_the_recogniser_share_one_context():
    ctx = make_field(13)
    assert make_field(13) is ctx is fieldmod.context(13)
    s = skew_regular(13)
    assert builder.base_form(s.re, s.im)[0] is ctx
    # An np.int64 p gets a context of its own, so that of the int p keeps int fields.
    assert make_field(np.int64(13)) is not ctx and type(make_field(13).q) is int


def test_budget_is_checked_on_every_call(monkeypatch):
    monkeypatch.delenv("MEM_BUDGET_MB", raising=False)
    ctx = make_field(101)
    assert make_field(101) is ctx
    monkeypatch.setenv("MEM_BUDGET_MB", "1")
    with pytest.raises(BudgetError):
        make_field(101)
    monkeypatch.delenv("MEM_BUDGET_MB")
    assert make_field(101) is ctx


def test_the_cache_is_bounded():
    primes = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]
    first = fieldmod.context(primes[0])
    assert fieldmod.context(primes[0]) is first
    for p in primes[1:fieldmod._FIELDS + 1]:
        fieldmod.context(p)
    assert fieldmod.context.cache_info().currsize == fieldmod._FIELDS
    fresh = fieldmod.context(primes[0])
    assert fresh is not first and np.array_equal(fresh.char_table, first.char_table)
