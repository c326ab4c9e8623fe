import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import abelian
from grouptensor.abelian import (
    FinGenAbelian,
    IntegerMatrix,
    abelian_from_relations,
    format_abelian,
    gamma,
    iso_eq,
    parse_abelian,
    smith_normal_form,
    tensor_z,
)
from grouptensor.errors import DEFAULT_MAX_BYTES, BudgetExceeded, ParseError


# ---------------------------------------------------------------- matrices


def test_matrix_basic_ops():
    a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
    assert a[1, 0] == 3
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.mul(IntegerMatrix.identity(2)) == a
    assert a.det() == -2


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntegerMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntegerMatrix(1, 1, (1.5,))


def test_det_singular_and_empty():
    assert IntegerMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert IntegerMatrix.zeros(0, 0).det() == 1
    assert IntegerMatrix.from_rows([[7]]).det() == 7


# ------------------------------------------------------- smith normal form


def test_snf_known_example():
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    d, u, v = smith_normal_form(m)
    assert [d[i, i] for i in range(2)] == [2, 4]
    assert u.mul(m).mul(v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1


def _check_snf(rows):
    m = IntegerMatrix.from_rows(rows) if rows else IntegerMatrix.zeros(0, 0)
    d, u, v = smith_normal_form(m)
    assert u.mul(m).mul(v) == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero)
    # zeros trail the chain
    assert diag[: len(nonzero)] == nonzero
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-30, 30), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_properties(rows):
    _check_snf(rows)


def test_snf_degenerate_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        m = IntegerMatrix.zeros(*shape)
        d, u, v = smith_normal_form(m)
        assert u.mul(m).mul(v) == d


# --------------------------------------------------------- canonical form


def test_from_divisors_canonicalizes():
    assert FinGenAbelian.from_divisors([2, 3]) == FinGenAbelian(0, (6,))
    assert FinGenAbelian.from_divisors([4, 6]) == FinGenAbelian(0, (2, 12))
    assert FinGenAbelian.from_divisors([1, 1]) == FinGenAbelian.trivial()
    assert FinGenAbelian.from_divisors([0, 2], free_rank=1) == FinGenAbelian(2, (2,))


def test_invariant_factor_validation():
    with pytest.raises(ValueError):
        FinGenAbelian(0, (3, 4))
    with pytest.raises(ValueError):
        FinGenAbelian(0, (1,))
    with pytest.raises(ValueError):
        FinGenAbelian(-1, ())


def test_order():
    assert FinGenAbelian.trivial().order() == 1
    assert parse_abelian("Z_2 x Z_4").order() == 8
    assert parse_abelian("Z").order() is None


def test_abelian_from_relations():
    rel = IntegerMatrix.from_rows([[2, 0], [0, 3]])
    assert abelian_from_relations(2, rel) == FinGenAbelian(0, (6,))
    assert abelian_from_relations(3, IntegerMatrix.zeros(0, 3)) == FinGenAbelian(3, ())
    # redundant relations change nothing
    rel2 = IntegerMatrix.from_rows([[2, 0], [0, 3], [2, 3]])
    assert abelian_from_relations(2, rel2) == FinGenAbelian(0, (6,))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=5), st.integers(0, 3))
def test_from_divisors_matches_elementary_divisors(divisors, rank):
    g = FinGenAbelian.from_divisors(divisors, rank)
    # oracle: multiset of prime powers must match
    def prime_powers(ds):
        out = []
        for d in ds:
            d = abs(d)
            p = 2
            while d > 1:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                if q > 1:
                    out.append(q)
                p += 1
        return sorted(out)

    free = rank + sum(1 for d in divisors if d == 0)
    assert g.free_rank == free
    assert prime_powers(divisors) == prime_powers(g.invariant_factors)


def _smith_from_divisors(divisors, free_rank=0):
    """The Smith normal form of the diagonal relation matrix of ``divisors``."""
    n = len(divisors)
    diag = IntegerMatrix(
        n, n, tuple(abs(divisors[i]) if i == j else 0 for i in range(n) for j in range(n))
    )
    g = abelian_from_relations(n, diag)
    return FinGenAbelian(g.free_rank + free_rank, g.invariant_factors)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-60, 60), max_size=8),
        st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 18]), max_size=30),
    ),
    st.integers(0, 3),
)
def test_from_divisors_matches_smith_form(divisors, rank):
    assert FinGenAbelian.from_divisors(divisors, rank) == _smith_from_divisors(divisors, rank)


# ---------------------------------------------------------------- tensor


def _kronecker_tensor_oracle(a: FinGenAbelian, b: FinGenAbelian) -> FinGenAbelian:
    """Present a (x) b by the Kronecker sum of relation matrices.

    Generators x_i (x) y_j; relations d_i * (x_i (x) y_j) and
    (x_i (x) e_j * y_j).  Completely independent of the gcd route.
    """
    da = list(a.invariant_factors) + [0] * a.free_rank
    db = list(b.invariant_factors) + [0] * b.free_rank
    n, m = len(da), len(db)
    gens = n * m
    rel_rows = []
    for i in range(n):
        for j in range(m):
            if da[i]:
                row = [0] * gens
                row[i * m + j] = da[i]
                rel_rows.append(row)
            if db[j]:
                row = [0] * gens
                row[i * m + j] = db[j]
                rel_rows.append(row)
    rels = (
        IntegerMatrix.from_rows(rel_rows) if rel_rows else IntegerMatrix.zeros(0, gens)
    )
    return abelian_from_relations(gens, rels)


def test_tensor_known_values():
    z4, z6 = parse_abelian("Z_4"), parse_abelian("Z_6")
    assert tensor_z(z4, z6) == parse_abelian("Z_2")
    assert tensor_z(parse_abelian("Z^2"), parse_abelian("Z^3")) == parse_abelian("Z^6")
    assert tensor_z(parse_abelian("Z"), z4) == z4
    assert tensor_z(FinGenAbelian.trivial(), z4).is_trivial


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 12), max_size=3),
    st.integers(0, 2),
    st.lists(st.integers(0, 12), max_size=3),
    st.integers(0, 2),
)
def test_tensor_against_kronecker_oracle(da, ra, db, rb):
    a = FinGenAbelian.from_divisors(da, ra)
    b = FinGenAbelian.from_divisors(db, rb)
    got = tensor_z(a, b)
    assert got == _kronecker_tensor_oracle(a, b)
    assert got == tensor_z(b, a)


# ----------------------------------------------------------------- gamma


GAMMA_CYCLIC_TABLE = [
    ("1", "1"),
    ("Z_2", "Z_4"),
    ("Z_3", "Z_3"),
    ("Z_4", "Z_8"),
    ("Z_5", "Z_5"),
    ("Z_6", "Z_12"),
    ("Z_7", "Z_7"),
    ("Z_8", "Z_16"),
    ("Z", "Z"),
]


@pytest.mark.parametrize("src,expect", GAMMA_CYCLIC_TABLE)
def test_gamma_cyclic(src, expect):
    assert gamma(parse_abelian(src)) == parse_abelian(expect)


def test_gamma_free_rank():
    for n in range(9):
        g = gamma(FinGenAbelian(n, ()))
        assert g == FinGenAbelian(n * (n + 1) // 2, ())


def test_gamma_mixed():
    assert gamma(parse_abelian("Z_2 x Z")) == parse_abelian("Z_4 x Z x Z_2")
    # product rule spot check: Gamma(Z_2 x Z_3) = Z_4 x Z_3 x Z_gcd(2,3) = Z_12
    assert gamma(parse_abelian("Z_2 x Z_3")) == parse_abelian("Z_12")
    assert gamma(parse_abelian("Z_6")) == parse_abelian("Z_12")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(2, 10), max_size=3),
    st.integers(0, 2),
)
def test_gamma_invariant_under_presentation(divisors, rank):
    # feeding the same group as scattered divisors or canonical factors
    # must give the same Gamma
    g = FinGenAbelian.from_divisors(divisors, rank)
    scattered = [FinGenAbelian.from_divisors([d]) for d in divisors]
    acc = FinGenAbelian(rank, ())
    for s in scattered:
        acc = acc.direct_sum(s)
    assert acc == g
    assert gamma(acc) == gamma(g)


def test_gamma_order_quadratic_bound():
    # |Gamma(A)| for finite A of odd order equals |A| x |A (x) A| ... spot
    # check the two-factor expansion directly instead
    a = parse_abelian("Z_3 x Z_9")
    expect = parse_abelian("Z_3").direct_sum(
        parse_abelian("Z_9"), tensor_z(parse_abelian("Z_3"), parse_abelian("Z_9"))
    )
    assert gamma(a) == expect


def _gamma_fold(a):
    """Gamma by folding Gamma(X x Y) = Gamma(X) x Gamma(Y) x (X (x) Y)
    over the summands of ``a``, one Z per unit of free rank."""
    acc = out = FinGenAbelian.trivial()
    summands = [FinGenAbelian(1, ())] * a.free_rank + [
        FinGenAbelian(0, (d,)) for d in a.invariant_factors
    ]
    for s in summands:
        if s.free_rank:
            gs = FinGenAbelian(1, ())
        else:
            d = s.invariant_factors[0]
            gs = FinGenAbelian.from_divisors([d if d % 2 else 2 * d])
        out = out.direct_sum(gs, tensor_z(acc, s))
        acc = acc.direct_sum(s)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 48), max_size=5), st.integers(0, 5))
def test_gamma_closed_form_matches_fold(divisors, rank):
    a = FinGenAbelian.from_divisors(divisors, rank)
    assert gamma(a) == _gamma_fold(a)


def test_gamma_over_factor_cap_raises_before_listing():
    a = parse_abelian("Z^1000000000 x Z_2")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="cyclic factors"):
            gamma(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_gamma_over_digit_cap_raises_before_listing():
    # 100,001 factors of 4,000 digits: 4.0 MB at 40 B per factor, but the
    # report would hold three copies of 400 MB of digits.
    a = parse_abelian(f"Z^100000 x Z_{10**3999 + 1}")
    assert 100_001 * abelian._FACTOR_BYTES < DEFAULT_MAX_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="100001 cyclic factors"):
            gamma(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tensor_over_factor_cap_raises():
    with pytest.raises(BudgetExceeded, match="1000000000 cyclic factors"):
        tensor_z(parse_abelian("Z^1000000000"), parse_abelian("Z_2"))


def test_gamma_of_huge_free_rank():
    assert gamma(parse_abelian("Z^1000000000")) == FinGenAbelian(500000000500000000, ())


# ----------------------------------------------------------- parse/format


def test_parse_basic():
    assert parse_abelian("Z") == FinGenAbelian(1, ())
    assert parse_abelian("Z^3") == FinGenAbelian(3, ())
    assert parse_abelian("Z_{12}") == FinGenAbelian(0, (12,))
    assert parse_abelian(" Z_2xZ_3 ") == FinGenAbelian(0, (6,))
    assert parse_abelian("1").is_trivial


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_abelian("Z_2 x Q_8")
    assert ei.value.position == 6
    with pytest.raises(ParseError):
        parse_abelian("Z_2 x x Z_3")


def test_parse_refuses_what_the_report_could_not_print():
    # Python's int-to-string limit of L digits: Gamma(Z_d) = Z_2d and
    # Gamma(Z^r) = Z^(r(r+1)/2) must print, so d has at most L - 1
    # digits (so does the least common multiple of several d) and r at
    # most L // 2; each refusal names the offset of its factor.
    limit = sys.get_int_max_str_digits()
    d = 10 ** (limit - 1) - 2
    assert format_abelian(gamma(parse_abelian(f"Z_{d}"))) == f"Z_{2 * d}"
    r = 10 ** (limit // 2) - 1
    assert format_abelian(gamma(parse_abelian(f"Z^{r}"))).startswith("Z^")
    p, q = 10 ** (limit // 2 + 5) + 1, 10 ** (limit // 2 + 5) + 3  # odd and coprime: Z_p x Z_q = Z_pq
    refused = [
        (f"Z_{6 * 10 ** (limit - 1)}", 0),
        ("Z_2 x Z_1" + "0" * limit, 6),  # a number that int() itself refuses
        (f"Z_{p} x Z_{q}", len(f"Z_{p} x ")),
        (f"Z^{r + 1}", 0),
        (f"Z^{r // 2 + 1} x Z^{r // 2 + 1}", len(f"Z^{r // 2 + 1} x ")),
    ]
    for text, offset in refused:
        with pytest.raises(ParseError) as ei:
            parse_abelian(text)
        assert ei.value.position == offset


def test_parse_without_a_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        big = 10 ** (limit + 10) + 1
        assert parse_abelian(f"Z_{big}").invariant_factors == (big,)
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_examples():
    assert format_abelian(FinGenAbelian.trivial()) == "1"
    assert format_abelian(FinGenAbelian(1, ())) == "Z"
    assert format_abelian(FinGenAbelian(2, (2, 4))) == "Z^2 x Z_2 x Z_4"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=4), st.integers(0, 3))
def test_format_parse_roundtrip(divisors, rank):
    g = FinGenAbelian.from_divisors(divisors, rank)
    # reference: one string per factor
    by_factor = ["Z" if g.free_rank == 1 else f"Z^{g.free_rank}"] if g.free_rank else []
    by_factor += [f"Z_{d}" for d in g.invariant_factors]
    assert format_abelian(g) == (" x ".join(by_factor) or "1")
    assert parse_abelian(format_abelian(g)) == g
    assert iso_eq(parse_abelian(format_abelian(g)), g)


def test_iso_eq():
    assert iso_eq(parse_abelian("Z_2 x Z_3"), parse_abelian("Z_6"))
    assert not iso_eq(parse_abelian("Z_2 x Z_2"), parse_abelian("Z_4"))


def test_gcd_sanity():
    # tether the gcd rule used by tensor_z to the stdlib
    assert math.gcd(4, 6) == 2
