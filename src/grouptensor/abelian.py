"""Finitely generated abelian groups with exact integer linear algebra.

Everything here is exact.  Matrices carry arbitrary-precision Python
integers, Smith normal form returns unimodular transforms, and groups are
kept in a canonical invariant-factor form so that isomorphism testing is
literal equality:

>>> parse_abelian("Z_2 x Z_3") == parse_abelian("Z_6")
True

The module also implements the tensor product of abelian groups and
Whitehead's quadratic functor Gamma, both on canonical forms.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from .errors import DEFAULT_MAX_BYTES, ParseError, _check_bytes

__all__ = [
    "IntegerMatrix",
    "FinGenAbelian",
    "smith_normal_form",
    "abelian_from_relations",
    "tensor_z",
    "gamma",
    "iso_eq",
    "parse_abelian",
    "format_abelian",
]


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix, row-major, arbitrary precision.

    >>> m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    >>> m[0, 1], m.rows, m.cols
    (4, 2, 2)
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError(f"matrix entries must be int, got {type(e).__name__}")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
        return cls(nr, nc, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Exact matrix product.

        >>> a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        >>> a.mul(IntegerMatrix.identity(2)) == a
        True
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} vs {other.rows}")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            mine = self.row(i)
            acc = [0] * other.cols
            for k, a in enumerate(mine):
                if a:
                    orow = orows[k]
                    for j in range(other.cols):
                        acc[j] += a * orow[j]
            out.extend(acc)
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination.

        >>> IntegerMatrix.from_rows([[2, 4], [6, 8]]).det()
        -8
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a, dst, src, q):
    """row[dst] += q * row[src]"""
    rd, rs = a[dst], a[src]
    for j in range(len(rd)):
        rd[j] += q * rs[j]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] += q * row[src]


def _negate_row(a, i):
    a[i] = [-x for x in a[i]]


def _min_pivot(a, t, rows, cols):
    """Smallest-absolute-value nonzero entry of the trailing submatrix.

    Scan order is row-major, so the returned position is deterministic.
    """
    best = None
    pos = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x != 0 and (best is None or abs(x) < best):
                best = abs(x)
                pos = (i, j)
    return pos


def _diagonalize(a, rows, cols):
    """Clear the leading rows x cols block of a to diagonal form; blocks
    right of and below it record the row and column operations."""
    for t in range(min(rows, cols)):
        pos = _min_pivot(a, t, rows, cols)
        if pos is None:
            return
        while True:
            i, j = pos
            if i != t:
                _swap_rows(a, t, i)
            if j != t:
                _swap_cols(a, t, j)
            if a[t][t] < 0:
                _negate_row(a, t)
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    q = x // piv
                    if q:
                        _add_row(a, i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                x = a[t][j]
                if x:
                    q = x // piv
                    if q:
                        _add_col(a, j, t, -q)
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
            pos = _min_pivot(a, t, rows, cols)


def _smith_diagonal(a, rows, cols):
    """Bring the leading rows x cols block of a to Smith form in place."""
    while True:
        _diagonalize(a, rows, cols)
        # enforce the divisor chain; a violation sends the pair back
        # through the elimination, which strictly shrinks the pivot
        violation = None
        for t in range(min(rows, cols) - 1):
            x, y = a[t][t], a[t + 1][t + 1]
            if x != 0 and y != 0 and y % x != 0:
                violation = t
                break
        if violation is None:
            return
        _add_row(a, violation, violation + 1, 1)


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Smith normal form ``d = u * m * v`` with unimodular ``u`` and ``v``.

    The diagonal of ``d`` is non-negative and forms a divisor chain
    (each entry divides the next); zero entries come last.  Pivots are
    chosen as the smallest-absolute-value nonzero entry of the trailing
    submatrix, first match in row-major order, so the computation is
    deterministic.

    >>> d, u, v = smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    >>> [d[i, i] for i in range(2)]
    [2, 4]
    >>> u.mul(IntegerMatrix.from_rows([[2, 4], [6, 8]])).mul(v) == d
    True
    """
    rows, cols = m.rows, m.cols
    # Eliminate in [[m, 1], [1, 0]]: the top right block records the row
    # operations (u) and the bottom left one the column operations (v).
    a = [row + [int(i == k) for k in range(rows)] for i, row in enumerate(m.to_rows())]
    a += [[int(i == k) for k in range(cols)] + [0] * rows for i in range(cols)]
    _smith_diagonal(a, rows, cols)
    dm = IntegerMatrix(rows, cols, tuple(x for row in a[:rows] for x in row[:cols]))
    um = IntegerMatrix(rows, rows, tuple(x for row in a[:rows] for x in row[cols:]))
    vm = IntegerMatrix(cols, cols, tuple(x for row in a[rows:] for x in row[:cols]))
    return dm, um, vm


@dataclass(frozen=True)
class FinGenAbelian:
    """A finitely generated abelian group in canonical form.

    ``free_rank`` copies of Z plus one cyclic factor per invariant
    factor; the factors satisfy ``d_i >= 2`` and ``d_i | d_{i+1}``.
    Because the form is canonical, equality of values is isomorphism of
    groups.

    >>> FinGenAbelian.from_divisors([2, 3])
    FinGenAbelian(free_rank=0, invariant_factors=(6,))
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for d in self.invariant_factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an int >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError(
                    f"invariant factors must form a divisor chain; {prev} does not divide {d}"
                )
            prev = d

    @classmethod
    def from_divisors(cls, divisors, free_rank: int = 0) -> "FinGenAbelian":
        """Canonicalize an arbitrary direct sum of cyclic groups.

        ``0`` entries denote infinite cyclic summands, ``1`` entries are
        dropped.  The finite factors become a divisor chain through
        Z_a x Z_b = Z_gcd(a, b) x Z_lcm(a, b) (``_divisor_chain``), so no
        factorization is needed.

        >>> FinGenAbelian.from_divisors([4, 6])
        FinGenAbelian(free_rank=0, invariant_factors=(2, 12))
        >>> FinGenAbelian.from_divisors([0, 2], free_rank=1)
        FinGenAbelian(free_rank=2, invariant_factors=(2,))
        """
        divisors = [abs(int(d)) for d in divisors]
        return cls(free_rank + divisors.count(0), _divisor_chain(divisors))

    @classmethod
    def trivial(cls) -> "FinGenAbelian":
        return cls(0, ())

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite.

        >>> parse_abelian("Z_2 x Z_4").order()
        8
        """
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def direct_sum(self, *others: "FinGenAbelian") -> "FinGenAbelian":
        rank = self.free_rank
        divisors = list(self.invariant_factors)
        for o in others:
            rank += o.free_rank
            divisors.extend(o.invariant_factors)
        return FinGenAbelian.from_divisors(divisors, rank)

    def __str__(self) -> str:
        return format_abelian(self)


def _divisor_chain(divisors) -> tuple:
    """The invariant factors of the direct sum of Z_d over ``divisors``.

    Entries 0 and 1 are skipped.  Each factor x, in ascending order,
    joins a chain held as runs of equal factors.  It walks down from
    the top until it reaches a run that divides it: on the way, a
    factor f that x does not divide becomes lcm(f, x) and x becomes
    gcd(f, x).  What is left of x settles there.  A chain at least
    doubles from run to run, so it has few runs, and a factor that the
    top run divides settles at once.
    """
    runs = []  # [factor, count], ascending, each factor dividing the next
    for x in sorted(d for d in divisors if d > 1):
        i = len(runs)  # x settles below runs[i:]
        while i and x % runs[i - 1][0]:
            i -= 1
            f = runs[i][0]
            if f % x:
                g = gcd(f, x)
                top = f // g * x
                if i + 1 < len(runs) and runs[i + 1][0] == top:
                    runs[i + 1][1] += 1
                else:
                    runs.insert(i + 1, [top, 1])
                runs[i][1] -= 1
                if not runs[i][1]:
                    del runs[i]
                x = g
        if i and runs[i - 1][0] == x:
            runs[i - 1][1] += 1
        elif x > 1:
            runs.insert(i, [x, 1])
    return tuple(f for f, count in runs for _ in range(count))


def abelian_from_relations(num_gens: int, relations: IntegerMatrix) -> FinGenAbelian:
    """Quotient of Z^num_gens by the row space of ``relations``.

    >>> abelian_from_relations(2, IntegerMatrix.from_rows([[2, 0], [0, 3]]))
    FinGenAbelian(free_rank=0, invariant_factors=(6,))
    >>> abelian_from_relations(3, IntegerMatrix.zeros(0, 3))
    FinGenAbelian(free_rank=3, invariant_factors=())
    """
    if num_gens < 0:
        raise ValueError("generator count must be non-negative")
    if relations.cols != num_gens:
        raise ValueError(
            f"relation matrix has {relations.cols} columns for {num_gens} generators"
        )
    a = relations.to_rows()
    _smith_diagonal(a, relations.rows, relations.cols)
    diag = [a[i][i] for i in range(min(relations.rows, relations.cols))]
    rank = sum(1 for x in diag if x != 0)
    factors = tuple(x for x in diag if x > 1)
    return FinGenAbelian(num_gens - rank, factors)


def tensor_z(a: FinGenAbelian, b: FinGenAbelian) -> FinGenAbelian:
    """Tensor product over Z of two abelian groups in canonical form.

    Computed from the bilinearity rules Z (x) A = A and
    Z_m (x) Z_n = Z_gcd(m, n); no factorization is required.

    >>> tensor_z(parse_abelian("Z_4"), parse_abelian("Z_6"))
    FinGenAbelian(free_rank=0, invariant_factors=(2,))
    >>> tensor_z(parse_abelian("Z^2"), parse_abelian("Z^3")).free_rank
    6
    """
    da, db = a.invariant_factors, b.invariant_factors
    _check_factors(len(da) * (len(db) + b.free_rank) + len(db) * a.free_rank)
    divisors = []
    for d in da:
        for e in db:
            divisors.append(gcd(d, e))
        divisors.extend([d] * b.free_rank)
    for e in db:
        divisors.extend([e] * a.free_rank)
    return FinGenAbelian.from_divisors(divisors, a.free_rank * b.free_rank)


# Peak bytes per cyclic factor of a result of `gamma`, printing included:
# under tracemalloc, `grouptensor gamma` peaks at 25-26 B per factor on
# Z^r x Z_2 and Z^r x Z_6 x Z_12 (200,000-400,000 factors), as much as
# `gamma` alone, and at 36 B when every factor has 13 digits.
# `format_abelian` builds one string per run of equal factors.
_FACTOR_BYTES = 40


def _check_factors(count: int):
    """Raise BudgetExceeded when ``count`` cyclic factors would need more
    than DEFAULT_MAX_BYTES."""
    _check_bytes(count * _FACTOR_BYTES, DEFAULT_MAX_BYTES, f"{count} cyclic factors")


def gamma(a: FinGenAbelian) -> FinGenAbelian:
    """Whitehead's quadratic functor on a canonical form.

    Evaluated in closed form: the product rule
    Gamma(X x Y) = Gamma(X) x Gamma(Y) x (X (x) Y), with Gamma(Z) = Z
    and Gamma(Z_d) = Z_d for odd d, Z_2d for even d, gives for
    A = Z^r x Z_d1 x ... x Z_dk

        Gamma(A) = Z^(r(r+1)/2) x (+)_i Gamma(Z_di)
                   x (+)_{i<j} Z_gcd(di, dj) x (+)_i Z_di^r,

    and gcd(di, dj) = di for i < j on the canonical divisor chain.  A
    result with more cyclic factors than DEFAULT_MAX_BYTES allows raises
    BudgetExceeded before any is listed.

    >>> gamma(parse_abelian("Z_2"))
    FinGenAbelian(free_rank=0, invariant_factors=(4,))
    >>> gamma(parse_abelian("Z^3")).free_rank
    6
    >>> format_abelian(gamma(parse_abelian("Z_2 x Z")))
    'Z x Z_2 x Z_4'
    """
    r, d = a.free_rank, a.invariant_factors
    _check_factors(len(d) * (len(d) + 1) // 2 + r * len(d))
    divisors = [x if x % 2 else 2 * x for x in d]
    for i, x in enumerate(d):
        divisors.extend([x] * (len(d) - 1 - i + r))
    return FinGenAbelian.from_divisors(divisors, r * (r + 1) // 2)


def iso_eq(a: FinGenAbelian, b: FinGenAbelian) -> bool:
    """Isomorphism test; on canonical forms this is plain equality."""
    return a == b


_FACTOR_RE = re.compile(r"^Z(?:\^(\d+)|_\{?(\d+)\}?)?$")


def parse_abelian(text: str) -> FinGenAbelian:
    """Parse the group grammar ``Z^r x Z_d1 x Z_d2 ...``.

    Whitespace-insensitive; the input need not be canonical.  ``1``
    denotes the trivial group.

    >>> parse_abelian("Z^2 x Z_4")
    FinGenAbelian(free_rank=2, invariant_factors=(4,))
    >>> parse_abelian("Z_2xZ_3") == parse_abelian("Z_6")
    True
    """
    stripped = text.strip()
    if stripped in ("1", "0"):
        return FinGenAbelian.trivial()
    rank = 0
    divisors = []
    pos = 0
    # split on 'x' by hand to keep character positions for error messages
    for chunk in text.split("x"):
        factor = chunk.strip()
        offset = pos + (len(chunk) - len(chunk.lstrip()))
        pos += len(chunk) + 1
        if not factor:
            raise ParseError("empty factor", offset)
        m = _FACTOR_RE.match(factor)
        if m is None:
            raise ParseError(f"unrecognized factor {factor!r}", offset)
        if m.group(1) is not None:
            rank += int(m.group(1))
        elif m.group(2) is not None:
            divisors.append(int(m.group(2)))
        else:
            rank += 1
    return FinGenAbelian.from_divisors(divisors, rank)


def format_abelian(g: FinGenAbelian) -> str:
    """Canonical rendering; round-trips through :func:`parse_abelian`.

    >>> format_abelian(FinGenAbelian.from_divisors([2, 4], free_rank=2))
    'Z^2 x Z_2 x Z_4'
    >>> format_abelian(FinGenAbelian.trivial())
    '1'
    """
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    # one string per run of equal factors: a divisor chain has few runs
    d, i = g.invariant_factors, 0
    while i < len(d):
        j = bisect_right(d, d[i], i)
        parts.append(f"Z_{d[i]} x " * (j - i - 1) + f"Z_{d[i]}")
        i = j
    return " x ".join(parts) if parts else "1"
