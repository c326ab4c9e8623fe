"""Independent oracles for the benchmark's correctness checks.

Nothing here imports grouptensor.  Every expected value is computed
from first principles (matrices mod 5, gcds, plain integer matrices)
or taken from a classical table, and every program output is read as
plain data: multiplication tables as nested sequences, invariant
factors as tuples of ints, polynomial entries as ``{exponents: coeff}``
dicts.  Each ``check_*`` function returns a list of failure messages;
an empty list means the answer passed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

# |G'| and |M(G)| (Schur multiplier) of the named catalog groups, from
# the classical tables; cyclic groups have trivial G' and M(G).
DERIVED_ORDER = {"Z2xZ2": 1, "S3": 3, "D4": 2, "Q8": 2, "A4": 4, "A5": 60}
SCHUR_ORDER = {"Z2xZ2": 2, "S3": 1, "D4": 2, "Q8": 1, "A4": 2, "A5": 2}
# |G (x) G| for the nonabelian groups of order at most 16 in the catalog,
# Brown, Johnson and Robertson (1987), J. Algebra 111.
BJR_TENSOR_ORDER = {"S3": 6, "D4": 32, "Q8": 64, "A4": 24}
GROUP_ORDER = {"Z2xZ2": 4, "S3": 6, "D4": 8, "Q8": 8, "A4": 12, "A5": 60}


def _cyclic_order(name: str) -> int | None:
    if name.startswith("Z") and name[1:].isdigit():
        return int(name[1:])
    return None


def group_order(name: str) -> int:
    n = _cyclic_order(name)
    return n if n is not None else GROUP_ORDER[name]


def derived_order(name: str) -> int:
    return 1 if _cyclic_order(name) is not None else DERIVED_ORDER[name]


def schur_order(name: str) -> int:
    return 1 if _cyclic_order(name) is not None else SCHUR_ORDER[name]


def abelian_factors(name: str) -> tuple:
    """Cyclic orders of an abelian catalog group, e.g. Z2xZ2 -> (2, 2)."""
    if name == "Z2xZ2":
        return (2, 2)
    n = _cyclic_order(name)
    if n is None:
        raise ValueError(f"{name} is not an abelian catalog group")
    return (n,) if n > 1 else ()


# ------------------------------------------------------------ abelian groups


def _prime_powers(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def invariant_factors(cyclic_orders) -> tuple:
    """Invariant factors (d1 | d2 | ...) of a direct sum of finite cyclic groups.

    >>> invariant_factors([2, 4, 6])
    (2, 2, 12)
    """
    by_prime = {}
    for n in cyclic_orders:
        for p, q in _prime_powers(n).items():
            by_prime.setdefault(p, []).append(q)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for k in range(length):
        d = 1
        for powers in by_prime.values():
            if k < len(powers):
                d *= powers[k]
        factors.append(d)
    return tuple(reversed(factors))


def gcd_tensor_factors(a_orders, b_orders) -> tuple:
    """Invariant factors of (+) Z_a (x) (+) Z_b = (+) Z_gcd(a, b)."""
    return invariant_factors(gcd(a, b) for a in a_orders for b in b_orders)


def gcd_tensor_order(a_orders, b_orders) -> int:
    order = 1
    for d in gcd_tensor_factors(a_orders, b_orders):
        order *= d
    return order


def check_abelian_tensor(a_orders, b_orders, free_rank, factors) -> list:
    """The program's invariants of A (x) B against (+) Z_gcd(a_i, b_j)."""
    want = gcd_tensor_factors(a_orders, b_orders)
    got = tuple(factors)
    if free_rank != 0 or got != want:
        return [f"invariants Z^{free_rank} x {got}, expected {want}"]
    return []


# ------------------------------------------------------------ finite groups


def element_orders(mul) -> list:
    """Order of every element of a multiplication table (identity 0)."""
    orders = []
    for x in range(len(mul)):
        k, acc = 1, x
        while acc != 0:
            acc = int(mul[acc][x])
            k += 1
            if k > len(mul):
                raise ValueError("multiplication table has no identity at 0")
        orders.append(k)
    return orders


def order_profile(mul) -> dict:
    return dict(sorted(Counter(element_orders(mul)).items()))


def sl25_profile() -> dict:
    """Element-order profile of SL(2, 5), from all 2x2 matrices mod 5."""
    one = (1, 0, 0, 1)

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 5, (a * f + b * h) % 5,
                (c * e + d * g) % 5, (c * f + d * h) % 5)

    counts = Counter()
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    if (a * d - b * c) % 5 != 1:
                        continue
                    x = (a, b, c, d)
                    k, acc = 1, x
                    while acc != one:
                        acc = mul(acc, x)
                        k += 1
                    counts[k] += 1
    return dict(sorted(counts.items()))


def check_sl25_profile(mul) -> list:
    got, want = order_profile(mul), sl25_profile()
    if got != want:
        return [f"element-order profile {got}, SL(2,5) has {want}"]
    return []


def center(mul) -> set:
    n = len(mul)
    return {
        z for z in range(n) if all(mul[z][x] == mul[x][z] for x in range(n))
    }


def check_central_subgroup(mul, elements, expected_order) -> list:
    """J2 as returned: the given order, containing 1, inside the center."""
    elements = set(int(x) for x in elements)
    out = []
    if len(elements) != expected_order:
        out.append(f"|J2| = {len(elements)}, expected {expected_order}")
    if 0 not in elements:
        out.append("J2 misses the identity")
    if not elements <= center(mul):
        out.append("J2 is not central")
    return out


def inverses(mul) -> list:
    n = len(mul)
    return [next(y for y in range(n) if mul[x][y] == 0) for x in range(n)]


def check_crossed_module(mul, kappa, acted) -> list:
    """act(kappa(s), t) == s^-1 t s for all s, t.

    ``kappa[s]`` is the image of s in G and ``acted[s][t]`` the
    program's value of t under the action of kappa(s).
    """
    inv = inverses(mul)
    n = len(mul)
    for s in range(n):
        for t in range(n):
            conj = mul[mul[inv[s]][t]][s]
            if acted[s][t] != conj:
                return [
                    f"act(kappa({s}) = {kappa[s]}, {t}) = {acted[s][t]},"
                    f" but {t}^{s} = {conj}"
                ]
    return []


def coset_table(mul, generator_map) -> list:
    """Standardized coset table of the regular action, rebuilt from a
    realization: column 2g is right multiplication by generator g and
    column 2g + 1 by its inverse."""
    inv = inverses(mul)
    cols = []
    for e in generator_map:
        cols.append(e)
        cols.append(inv[e])
    return [[int(mul[i][e]) for e in cols] for i in range(len(mul))]


def check_same_table(table_a, table_b) -> list:
    if [list(r) for r in table_a] != [list(r) for r in table_b]:
        return ["HLT and Felsch standardized tables differ"]
    return []


# ------------------------------------------------------------ matrices


def mat_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def inverse_sl2(m) -> tuple:
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix is not in SL(2, Z)")
    return ((d, -b), (-c, a))


SANOV_A = ((1, 2), (0, 1))
SANOV_B = ((1, 0), (2, 1))


def free_embedding_matrices(rank: int) -> list:
    """a^-i b a^i for i < rank, over the Sanov pair."""
    a_inv = inverse_sl2(SANOV_A)
    out = []
    left, right = identity(2), identity(2)
    for _ in range(rank):
        out.append(mat_mul(mat_mul(left, SANOV_B), right))
        left, right = mat_mul(left, a_inv), mat_mul(right, SANOV_A)
    return out


def evaluate_word(generators, word) -> tuple:
    """Fold a word of (index, sign) letters over 2x2 integer matrices."""
    acc = identity(len(generators[0]))
    for idx, sign in word:
        m = generators[idx]
        acc = mat_mul(acc, m if sign > 0 else inverse_sl2(m))
    return acc


def unitriangular_inverse(m) -> tuple:
    """Inverse of a unit upper-triangular integer matrix (Neumann series)."""
    n = len(m)
    one = identity(n)
    nil = tuple(tuple(m[i][j] - one[i][j] for j in range(n)) for i in range(n))
    acc, power = one, one
    for k in range(1, n):
        power = mat_mul(power, nil)
        sign = -1 if k % 2 else 1
        acc = tuple(
            tuple(acc[i][j] + sign * power[i][j] for j in range(n))
            for i in range(n)
        )
    return acc


def left_normed_commutator(mats) -> tuple:
    """[[m1, m2], m3, ...] with [a, b] = a^-1 b^-1 a b."""
    out = mats[0]
    for m in mats[1:]:
        out = mat_mul(
            mat_mul(unitriangular_inverse(out), unitriangular_inverse(m)),
            mat_mul(out, m),
        )
    return out


def unitriangular_generators(n: int, c: int, values: dict) -> list:
    """Integer points of the generators x_i = 1 + sum_j t{i}_{j} E_{j-1,j}."""
    size = c + 2
    gens = []
    for i in range(1, n + 1):
        rows = [list(r) for r in identity(size)]
        for j in range(1, size):
            rows[j - 1][j] = values[f"t{i}_{j}"]
        gens.append(tuple(tuple(r) for r in rows))
    return gens


def poly_at(terms: dict, point) -> Fraction:
    """Value of a polynomial given as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for exps, coeff in terms.items():
        term = Fraction(coeff)
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def check_matrix_at(entry_terms, point, expected) -> list:
    """Entries (as term dicts) evaluated at ``point`` against ``expected``."""
    got = tuple(tuple(poly_at(t, point) for t in row) for row in entry_terms)
    if got != tuple(tuple(Fraction(x) for x in row) for row in expected):
        return [f"matrix evaluates to {_plain(got)}, expected {expected}"]
    return []


def is_identity_terms(entry_terms) -> bool:
    """Identity test read from term dicts alone: 1 on the diagonal, 0 off."""
    n = len(entry_terms)
    for i in range(n):
        for j in range(n):
            terms = {e: c for e, c in entry_terms[i][j].items() if c != 0}
            if i != j and terms:
                return False
            if i == j and (len(terms) != 1 or set(terms.values()) != {1}
                           or any(any(e) for e in terms)):
                return False
    return True


def _plain(m) -> tuple:
    return tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in m)
