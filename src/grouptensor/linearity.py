"""Linearity decisions for abelian groups and explicit witness families.

Malcev's criterion reduces "does this abelian group embed in GL_n over a
field of a given characteristic" to arithmetic about its torsion: the
rank of each primary component and the exponent bound at the relevant
prime.  A TorsionDescriptor records exactly that data, with infinite
rank and unbounded exponent as explicit states, and the two decision
functions evaluate the criterion.

The module also builds the concrete two-parameter matrix families
(upper unitriangular polynomial matrices conjugated into proper powers
by a rational diagonal) whose finitely generated subgroups separate
linearity from characteristic, verifying every defining identity by
exact polynomial arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, ParseError
from .polymat import PolyMatrix, PolyRing, _store_inverse
from .reps import left_normed_commutator

__all__ = [
    "INFINITE",
    "UNBOUNDED",
    "PrimeTorsion",
    "TorsionDescriptor",
    "malcev_char0",
    "malcev_charp",
    "parse_torsion_descriptor",
    "format_torsion_descriptor",
    "k2_rationals_descriptor",
    "button_two_abelianization_descriptor",
    "button_three_abelianization_descriptor",
    "bryukhanov_sum_descriptor",
    "ButtonVariant",
    "ButtonFamily",
    "button_family",
]


class _Sentinel:
    """One instance per subclass; a subclass gives only its repr name."""

    def __new__(cls):
        instance = cls.__dict__.get("_instance")
        if instance is None:
            instance = super().__new__(cls)
            cls._instance = instance
        return instance

    def __repr__(self):
        return self._name


class _Infinite(_Sentinel):
    """Singleton marking an infinite rank."""

    _name = "INFINITE"


class _Unbounded(_Sentinel):
    """Singleton marking an unbounded prime-power exponent."""

    _name = "UNBOUNDED"


INFINITE = _Infinite()
UNBOUNDED = _Unbounded()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_degree(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("degree must be a positive integer")


def _check_prime(p) -> None:
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"{p!r} is not a prime")


@dataclass(frozen=True)
class PrimeTorsion:
    """Rank and exponent bound of one primary component.

    ``rank`` is a positive count or INFINITE; ``exponent`` is the e of
    the bound p^e (a positive integer) or UNBOUNDED.
    """

    prime: int
    rank: object
    exponent: object

    def __post_init__(self):
        _check_prime(self.prime)
        if self.rank is not INFINITE:
            if not isinstance(self.rank, int) or self.rank < 1:
                raise ValueError("rank must be a positive integer or INFINITE")
        if self.exponent is not UNBOUNDED:
            if not isinstance(self.exponent, int) or self.exponent < 1:
                raise ValueError(
                    "exponent must be a positive integer or UNBOUNDED"
                )


@dataclass(frozen=True)
class TorsionDescriptor:
    """Torsion data of an abelian group, keyed by prime.

    Primes without a record carry no torsion.  Records are stored
    sorted by prime; duplicates are rejected.

    >>> d = TorsionDescriptor(1, (PrimeTorsion(2, 1, 1),))
    >>> d.rank_at(2), d.rank_at(3)
    (1, 0)
    """

    torsion_free_rank: object
    primes: tuple = ()

    def __post_init__(self):
        tfr = self.torsion_free_rank
        if tfr is not INFINITE and (not isinstance(tfr, int) or tfr < 0):
            raise ValueError(
                "torsion_free_rank must be a non-negative integer or INFINITE"
            )
        records = tuple(self.primes)
        for rec in records:
            if not isinstance(rec, PrimeTorsion):
                raise ValueError("prime records must be PrimeTorsion values")
        seen = [rec.prime for rec in records]
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate prime records")
        object.__setattr__(
            self, "primes", tuple(sorted(records, key=lambda r: r.prime))
        )

    def record_at(self, p: int):
        for rec in self.primes:
            if rec.prime == p:
                return rec
        return None

    def rank_at(self, p: int):
        rec = self.record_at(p)
        return 0 if rec is None else rec.rank

    def exponent_at(self, p: int):
        rec = self.record_at(p)
        return 0 if rec is None else rec.exponent

    def torsion_rank_excluding(self, p: int):
        """Max of the primary ranks at primes other than p.

        A finitely generated subgroup of a torsion abelian group splits
        into its primary parts, and coprime cyclic factors merge, so
        the minimal generator count is governed by the largest primary
        rank rather than their sum.  No record has prime 0, so p = 0
        gives the rank of the whole torsion subgroup.
        """
        best = 0
        for rec in self.primes:
            if rec.prime == p:
                continue
            if rec.rank is INFINITE:
                return INFINITE
            best = max(best, rec.rank)
        return best


def _malcev(d: TorsionDescriptor, p: int, n: int):
    """Malcev's verdict for GL_n in characteristic p (0 or a prime).

    Returns (verdict, trace); the trace line states the quantities and
    the comparison that decide the verdict.
    """
    _check_degree(n)
    if p != 0:
        _check_prime(p)
    r = d.torsion_rank_excluding(p)
    if p == 0:
        if r is INFINITE:
            return False, "torsion rank is infinite; no degree suffices"
        return r <= n, f"torsion rank {r} {'<=' if r <= n else '>'} degree {n}"
    if r is INFINITE:
        return False, f"prime-to-{p} torsion rank is infinite; no degree suffices"
    e = d.exponent_at(p)
    if e is UNBOUNDED:
        return False, f"{p}-part exponent is unbounded; no degree suffices"
    total = Fraction(p) ** (e - 1) + max(1, r)
    cmp = "<" if total < n + 1 else ">="
    trace = f"{p}^({e}-1) + max(1, {r}) = {total} {cmp} {n + 1} = degree + 1"
    return total < n + 1, trace


def malcev_char0(d: TorsionDescriptor, n: int) -> bool:
    """True iff the group embeds in GL_n over a field of characteristic 0.

    The criterion (Malcev) depends only on the torsion subgroup having
    rank at most n; the torsion-free part is unconstrained.

    >>> malcev_char0(TorsionDescriptor(INFINITE), 1)
    True
    >>> malcev_char0(k2_rationals_descriptor(), 10)
    False
    """
    return _malcev(d, 0, n)[0]


def malcev_charp(d: TorsionDescriptor, p: int, n: int) -> bool:
    """True iff the group embeds in GL_n over a field of characteristic p.

    Requires the prime-to-p torsion to have finite rank r and the
    p-torsion to have finite exponent p^e, and then the inequality
    p^(e-1) + max(1, r) < n + 1 to hold.  With no p-torsion, e = 0 and
    p^(e-1) is the genuine fraction 1/p.

    >>> d = TorsionDescriptor(0, (PrimeTorsion(3, 1, 1),))
    >>> malcev_charp(d, 3, 1), malcev_charp(d, 3, 2)
    (False, True)
    """
    if p == 0:  # _malcev reads 0 as characteristic 0
        _check_degree(n)
        _check_prime(p)
    return _malcev(d, p, n)[0]


def parse_torsion_descriptor(text: str) -> TorsionDescriptor:
    """Parse the structured text form of a descriptor.

    One ``torsion_free_rank: <count or inf>`` line plus any number of
    ``prime: <p> rank: <count or inf> exponent: <count or unbounded>``
    lines; ``#`` starts a comment and blank lines are skipped.

    >>> parse_torsion_descriptor(
    ...     "torsion_free_rank: 1\\nprime: 2 rank: inf exponent: 1\\n"
    ... ) == button_two_abelianization_descriptor()
    True
    """
    tfr = None
    records = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.split("#", 1)[0].strip()
        if not line:
            offset += len(raw)
            continue
        fields = line.replace(":", " : ").split()
        if fields[:2] == ["torsion_free_rank", ":"]:
            if tfr is not None:
                raise ParseError("torsion_free_rank given twice", offset)
            if len(fields) != 3:
                raise ParseError("malformed torsion_free_rank line", offset)
            tfr = _parse_count(fields[2], INFINITE, "inf", offset)
        elif fields[:2] == ["prime", ":"]:
            if len(fields) != 9 or fields[3:5] != ["rank", ":"] or fields[
                6:8
            ] != ["exponent", ":"]:
                raise ParseError("malformed prime record", offset)
            try:
                prime = int(fields[2])
            except ValueError:
                raise ParseError(f"bad prime {fields[2]!r}", offset) from None
            rank = _parse_count(fields[5], INFINITE, "inf", offset)
            exponent = _parse_count(fields[8], UNBOUNDED, "unbounded", offset)
            try:
                records.append(PrimeTorsion(prime, rank, exponent))
            except ValueError as exc:
                raise ParseError(str(exc), offset) from None
        else:
            raise ParseError(f"unrecognized line {line!r}", offset)
        offset += len(raw)
    if tfr is None:
        raise ParseError("missing torsion_free_rank line", len(text))
    try:
        return TorsionDescriptor(tfr, tuple(records))
    except ValueError as exc:
        raise ParseError(str(exc), len(text)) from None


def _parse_count(token: str, sentinel, word: str, offset: int):
    if token == word:
        return sentinel
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected a count or {word!r}, got {token!r}",
                         offset) from None


def format_torsion_descriptor(d: TorsionDescriptor) -> str:
    """Inverse of parse_torsion_descriptor (stable, round-trips)."""
    tfr = "inf" if d.torsion_free_rank is INFINITE else str(d.torsion_free_rank)
    lines = [f"torsion_free_rank: {tfr}"]
    for rec in d.primes:
        rank = "inf" if rec.rank is INFINITE else str(rec.rank)
        exp = "unbounded" if rec.exponent is UNBOUNDED else str(rec.exponent)
        lines.append(f"prime: {rec.prime} rank: {rank} exponent: {exp}")
    return "\n".join(lines) + "\n"


def k2_rationals_descriptor() -> TorsionDescriptor:
    """Torsion data of K2 of the rationals (trusted input, after Milnor).

    The group is {+-1} times a sum of one cyclic factor of order p - 1
    per odd prime p, so its 2-primary part alone already has infinite
    rank and unbounded exponent; that single record forces a negative
    verdict in every characteristic and degree, which is all the
    decision procedure consumes.
    """
    return TorsionDescriptor(0, (PrimeTorsion(2, INFINITE, UNBOUNDED),))


def button_two_abelianization_descriptor() -> TorsionDescriptor:
    """Abelianization of the variant-TWO family group: (sum of Z_2) + Z."""
    return TorsionDescriptor(1, (PrimeTorsion(2, INFINITE, 1),))


def button_three_abelianization_descriptor() -> TorsionDescriptor:
    """Abelianization of the variant-THREE family group: (sum of Z_3) + Z."""
    return TorsionDescriptor(1, (PrimeTorsion(3, INFINITE, 1),))


def bryukhanov_sum_descriptor() -> TorsionDescriptor:
    """Abelianization of the free product of all finite cyclic groups.

    The full torsion table has a record at every prime (infinite rank,
    unbounded exponent).  Either of the two listed records already
    forces the negative verdict at every characteristic and degree, so
    the finite table decides exactly as the full one would.
    """
    return TorsionDescriptor(
        0,
        (
            PrimeTorsion(2, INFINITE, UNBOUNDED),
            PrimeTorsion(3, INFINITE, UNBOUNDED),
        ),
    )


class ButtonVariant(enum.Enum):
    TWO = "two"
    THREE = "three"


@dataclass(frozen=True)
class ButtonFamily:
    """Explicit matrices of one conjugation-by-diagonal family.

    ``generators[i]`` is the unitriangular matrix with x^(i+1) in the
    corner; ``conjugator`` scales it to its ``power``-th power.  The
    ``report`` lists every identity that was verified exactly.
    """

    variant: ButtonVariant
    size: int
    ring: PolyRing
    generators: tuple
    conjugator: PolyMatrix
    conjugator_inverse: PolyMatrix
    power: int
    report: tuple


def button_family(variant, m: int) -> ButtonFamily:
    """Build and exactly verify one of the two matrix families.

    Variant TWO uses A_i = [[1, x^i], [0, 1]] and B = diag(3, 1) with
    B A_i B^-1 = A_i^3; variant THREE uses C_i = [[1, y^i], [0, 1]]
    and D = diag(4, 1) with D C_i D^-1 = C_i^4.  All commutators
    [A_i, A_j] are checked to vanish as well.  Any failed identity
    raises InternalInvariantError; valid inputs never fail.

    >>> fam = button_family(ButtonVariant.TWO, 2)
    >>> fam.report[1]
    '[A_1, A_1] = identity'
    >>> str(fam.generators[0].entry(0, 1))
    'x'
    """
    if isinstance(variant, str):
        variant = ButtonVariant(variant.lower())
    if not isinstance(m, int) or m < 1:
        raise ValueError("family size must be a positive integer")
    if variant is ButtonVariant.TWO:
        var_name, gen_name, conj_name, scale, power = "x", "A", "B", 3, 3
    else:
        var_name, gen_name, conj_name, scale, power = "y", "C", "D", 4, 4
    ring = PolyRing((var_name,), (False,))
    x = ring.variable(var_name)
    one, zero = ring.one(), ring.zero()
    gens = tuple(
        PolyMatrix(ring, [[one, x ** i], [zero, one]]) for i in range(1, m + 1)
    )
    conj = PolyMatrix(ring, [[scale, 0], [0, 1]])
    conj_inv = PolyMatrix(ring, [[Fraction(1, scale), 0], [0, 1]])
    report = []
    _store_inverse(conj, conj_inv)
    report.append(f"{conj_name}*{conj_name}^-1 = identity")
    for i, a in enumerate(gens, start=1):
        for j, b in enumerate(gens, start=1):
            if not left_normed_commutator((a, b)).is_identity():
                raise InternalInvariantError(
                    f"[{gen_name}_{i}, {gen_name}_{j}] is not the identity"
                )
            report.append(f"[{gen_name}_{i}, {gen_name}_{j}] = identity")
    for i, a in enumerate(gens, start=1):
        if conj * a * conj_inv != a ** power:
            raise InternalInvariantError(
                f"{conj_name}*{gen_name}_{i}*{conj_name}^-1 !="
                f" {gen_name}_{i}^{power}"
            )
        report.append(
            f"{conj_name}*{gen_name}_{i}*{conj_name}^-1 = {gen_name}_{i}^{power}"
        )
    return ButtonFamily(
        variant=variant,
        size=m,
        ring=ring,
        generators=gens,
        conjugator=conj,
        conjugator_inverse=conj_inv,
        power=power,
        report=tuple(report),
    )
