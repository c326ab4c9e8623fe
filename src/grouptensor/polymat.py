"""Exact multivariate polynomial and Laurent-polynomial matrices.

Representation images in this package live in matrix rings over
polynomial rings with rational coefficients; indeterminates stand in
for algebraically independent transcendentals, which makes equality of
matrix identities decidable and exact.  Only the inversions the
constructions actually need are implemented: unitriangular matrices,
scalar monomial matrices over Laurent variables, and integer matrices
of determinant +-1.  Everything else raises NotInvertibleInRing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import InternalInvariantError, NotInvertibleInRing

__all__ = [
    "PolyRing",
    "MultiPoly",
    "PolyMatrix",
    "poly_matrix_inv_special",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _coefficient(value):
    """An exact coefficient: int when integral, Fraction otherwise."""
    if type(value) is not int:
        value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
    return value


@dataclass(frozen=True)
class PolyRing:
    """A named tuple of indeterminates with per-variable Laurent flags."""

    variables: tuple
    laurent: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "laurent", tuple(bool(b) for b in self.laurent))
        if len(self.variables) != len(self.laurent):
            raise ValueError("one laurent flag per variable is required")
        seen = set()
        for name in self.variables:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.constant(1)

    def constant(self, value) -> "MultiPoly":
        return self.monomial(value, (0,) * self.num_variables)

    def variable(self, name: str) -> "MultiPoly":
        if name not in self.variables:
            raise ValueError(f"{name!r} is not a variable of this ring")
        exps = tuple(1 if v == name else 0 for v in self.variables)
        return MultiPoly(self, {exps: 1})

    def monomial(self, coefficient, exponents) -> "MultiPoly":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.num_variables:
            raise ValueError("one exponent per variable is required")
        return MultiPoly(self, {exps: coefficient})


def _term_sort_key(exps) -> tuple:
    return (-sum(exps), tuple(-e for e in exps))


def _add_product(acc: dict, left: dict, right: dict) -> None:
    """Add the product of two term dicts into ``acc`` (zeros not dropped)."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(add, e1, e2))
            acc[exps] = acc.get(exps, 0) + c1 * c2


def _canonical(terms: dict) -> dict:
    """Drop zero coefficients and store integral ones as int."""
    return {e: _coefficient(c) for e, c in terms.items() if c}


class MultiPoly:
    """Immutable polynomial; terms map exponent vectors to coefficients.

    A coefficient is an int, or a Fraction where it is not integral.
    Every instance holds the canonical form that ``_trusted`` relies on:
    no zero coefficients, exponent tuples of the ring's length (negative
    entries only on Laurent variables), integral coefficients as int.

    >>> r = PolyRing(("x", "y"), (False, False))
    >>> p = r.variable("x") * r.variable("y") + r.constant(2)
    >>> str(p * p)
    'x^2*y^2 + 4*x*y + 4'
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        clean = {}
        for exps, coeff in terms.items():
            c = _coefficient(coeff)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != ring.num_variables:
                raise ValueError("exponent vector has the wrong length")
            for e, flag in zip(exps, ring.laurent):
                if e < 0 and not flag:
                    raise ValueError(
                        "negative exponent on a non-Laurent variable"
                    )
            clean[exps] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: dict) -> "MultiPoly":
        """Wrap ``terms`` as they are, without validation or copying.

        The caller guarantees that ``terms`` has no zero coefficients,
        that every exponent tuple has the ring's length with negative
        entries only on Laurent variables, and that every integral
        coefficient is stored as an int.  Only arithmetic in this module
        calls it.
        """
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    def _require_same_ring(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise ValueError("polynomials belong to different rings")

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        zero_exps = (0,) * self.ring.num_variables
        return len(self._terms) == 1 and self._terms.get(zero_exps) == 1

    def is_constant(self) -> bool:
        zero_exps = (0,) * self.ring.num_variables
        return all(e == zero_exps for e in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        zero_exps = (0,) * self.ring.num_variables
        return Fraction(self._terms.get(zero_exps, 0))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ring(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return MultiPoly._trusted(self.ring, _canonical(terms))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return MultiPoly._trusted(
            self.ring, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_ring(other)
        terms = {}
        _add_product(terms, self._terms, other._terms)
        return MultiPoly._trusted(self.ring, _canonical(terms))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._terms.items()))))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps in sorted(self._terms, key=_term_sort_key):
            coeff = self._terms[exps]
            factors = []
            for name, e in zip(self.ring.variables, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


class PolyMatrix:
    """A square matrix of MultiPoly entries over one shared ring.

    >>> r = PolyRing(("t",), (True,))
    >>> t = r.variable("t")
    >>> m = PolyMatrix.scalar(r, 2, t)
    >>> inv = poly_matrix_inv_special(m)
    >>> (m * inv).is_identity()
    True
    """

    __slots__ = ("ring", "dimension", "rows")

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        rows = tuple(tuple(self._entry(e) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and non-empty")
        self.dimension = n
        self.rows = rows

    def _entry(self, e) -> MultiPoly:
        if isinstance(e, MultiPoly):
            if e.ring != self.ring:
                raise ValueError("entry belongs to a different ring")
            return e
        return self.ring.constant(e)

    @classmethod
    def _trusted(cls, ring: PolyRing, rows: tuple) -> "PolyMatrix":
        """Wrap ``rows`` as they are, without validation.

        The caller guarantees a non-empty square tuple of tuples of
        MultiPoly entries over ``ring``, each in canonical form: no zero
        coefficients, exponent tuples of the ring's length, integral
        coefficients stored as int.  Only arithmetic in this module
        calls it.
        """
        m = object.__new__(cls)
        m.ring = ring
        m.dimension = len(rows)
        m.rows = rows
        return m

    @classmethod
    def identity(cls, ring: PolyRing, n: int) -> "PolyMatrix":
        return cls.scalar(ring, n, ring.one())

    @classmethod
    def scalar(cls, ring: PolyRing, n: int, value) -> "PolyMatrix":
        if not isinstance(value, MultiPoly):
            value = ring.constant(value)
        zero = ring.zero()
        return cls(
            ring,
            [[value if i == j else zero for j in range(n)] for i in range(n)],
        )

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ring != other.ring or self.dimension != other.dimension:
            raise ValueError("matrix shapes or rings do not match")
        ring = self.ring
        columns = tuple(zip(*other.rows))
        rows = []
        for row in self.rows:
            out = []
            for column in columns:
                terms = {}
                for a, b in zip(row, column):
                    if a._terms and b._terms:
                        _add_product(terms, a._terms, b._terms)
                out.append(MultiPoly._trusted(ring, _canonical(terms)))
            rows.append(tuple(out))
        return PolyMatrix._trusted(ring, tuple(rows))

    def __pow__(self, k: int) -> "PolyMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("matrix powers must be non-negative integers")
        out = PolyMatrix.identity(self.ring, self.dimension)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.dimension == other.dimension
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.rows[i][j]

    def is_identity(self) -> bool:
        return all(
            e.is_one() if i == j else e.is_zero()
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def is_unitriangular(self) -> bool:
        """True for unit upper or unit lower triangular matrices."""
        for i in range(self.dimension):
            if not self.rows[i][i].is_one():
                return False
        upper = all(
            self.rows[i][j].is_zero()
            for i in range(self.dimension)
            for j in range(i)
        )
        lower = all(
            self.rows[j][i].is_zero()
            for i in range(self.dimension)
            for j in range(i)
        )
        return upper or lower

    def det(self) -> MultiPoly:
        """Exact determinant by cofactor expansion (small matrices)."""
        n = self.dimension
        if n == 1:
            return self.rows[0][0]
        acc = self.ring.zero()
        for j in range(n):
            minor = [
                [self.rows[i][jj] for jj in range(n) if jj != j]
                for i in range(1, n)
            ]
            term = self.rows[0][j] * PolyMatrix(self.ring, minor).det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows
        )

    def __repr__(self):
        return f"PolyMatrix(dim={self.dimension})"


def _monomial_inverse(p: MultiPoly) -> MultiPoly:
    terms = p.terms
    if len(terms) != 1:
        raise NotInvertibleInRing("entry is not a single monomial")
    (exps, coeff), = terms.items()
    for e, flag in zip(exps, p.ring.laurent):
        if e != 0 and not flag:
            raise NotInvertibleInRing(
                "monomial uses a non-Laurent variable and cannot be inverted"
            )
    return p.ring.monomial(Fraction(1) / coeff, (-e for e in exps))


def poly_matrix_inv_special(m: PolyMatrix) -> PolyMatrix:
    """Invert a matrix from one of the three supported classes.

    Unitriangular matrices invert through the finite Neumann series of
    their nilpotent part; scalar matrices with a single-monomial entry
    invert monomial-wise (Laurent variables only); constant integer
    matrices of determinant +-1 invert by the adjugate.  The product
    with the result is checked against the identity.
    """
    ring, n = m.ring, m.dimension
    inv = None
    if m.is_unitriangular():
        nilpotent_rows = [
            [
                m.rows[i][j] - (1 if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        nil = PolyMatrix(ring, nilpotent_rows)
        acc = PolyMatrix.identity(ring, n)
        power = PolyMatrix.identity(ring, n)
        sign = 1
        for _ in range(1, n):
            power = power * nil
            sign = -sign
            acc = PolyMatrix(
                ring,
                [
                    [
                        acc.rows[i][j]
                        + (power.rows[i][j] if sign > 0 else -power.rows[i][j])
                        for j in range(n)
                    ]
                    for i in range(n)
                ],
            )
        inv = acc
    elif _is_scalar(m):
        inv = PolyMatrix.scalar(ring, n, _monomial_inverse(m.rows[0][0]))
    elif _is_integer_matrix(m):
        d = m.det().constant_value()
        if d not in (1, -1):
            raise NotInvertibleInRing(
                f"integer matrix has determinant {d}, not +-1"
            )
        inv = _integer_adjugate_inverse(m, int(d))
    else:
        raise NotInvertibleInRing(
            "matrix is not unitriangular, scalar-monomial, or integer of"
            " determinant +-1"
        )
    if not (m * inv).is_identity() or not (inv * m).is_identity():
        raise InternalInvariantError("computed inverse failed to verify")
    return inv


def _is_scalar(m: PolyMatrix) -> bool:
    first = m.rows[0][0]
    if first.is_zero():
        return False
    for i in range(m.dimension):
        for j in range(m.dimension):
            e = m.rows[i][j]
            if i == j and e != first:
                return False
            if i != j and not e.is_zero():
                return False
    return True


def _is_integer_matrix(m: PolyMatrix) -> bool:
    for row in m.rows:
        for e in row:
            if not e.is_constant():
                return False
            if e.constant_value().denominator != 1:
                return False
    return True


def _integer_adjugate_inverse(m: PolyMatrix, det_sign: int) -> PolyMatrix:
    n = m.dimension
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [m.rows[ii][jj] for jj in range(n) if jj != i]
                for ii in range(n)
                if ii != j
            ]
            if minor:
                cof = PolyMatrix(m.ring, minor).det()
            else:
                cof = m.ring.one()
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(cof * det_sign)
        rows.append(row)
    return PolyMatrix(m.ring, rows)
