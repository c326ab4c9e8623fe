"""Explicit matrix representation packages.

Each construction returns a RepPackage: named generator matrices over
an exact polynomial or Laurent-polynomial ring, with every generator's
inverse computed and verified at build time.  Transcendental scalars
from the classical constructions are modeled as formal indeterminates,
which makes algebraic independence structural and identity-checking
exact.  A combined package (Z^m x F_k, and the tensor square of a free
nilpotent group) is a block of m central scalar generators over new
Laurent variables placed before a base package, whose generators are
lifted unchanged into the larger ring.

Faithfulness of the free constructions rests on the cited classical
results (Sanov's theorem for the integer pair, Romanovskii's theorem
for the unitriangular images); the package verifies consequences of
faithfulness (non-vanishing of sampled words, nilpotency class) rather
than re-proving it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InternalInvariantError, _check_letter
from .polymat import (
    MultiPoly,
    PolyMatrix,
    PolyRing,
    _store_inverse,
    poly_matrix_inv_special,
)

__all__ = [
    "RepPackage",
    "left_normed_commutator",
    "random_reduced_words",
    "sanov_f2",
    "free_embedding",
    "rep_z_m_times_f_k",
    "tensor_square_rep_free",
    "unitriangular_nilpotent_rep",
    "tensor_square_rep_nilpotent",
]


@dataclass(frozen=True)
class RepPackage:
    """Named generator matrices plus their verified inverses.

    Construction checks that every generator lies in one of the
    invertible classes (unitriangular, scalar monomial, integer of
    determinant +-1) and that the computed inverse multiplies back to
    the identity; a package that fails either check cannot be built.
    """

    dimension: int
    ring: PolyRing
    names: tuple
    generators: tuple
    metadata: dict = field(default_factory=dict)
    inverses: tuple = field(init=False)

    def __post_init__(self):
        if len(self.names) != len(self.generators):
            raise ValueError("one name per generator matrix is required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        for m in self.generators:
            if m.ring != self.ring or m.dimension != self.dimension:
                raise ValueError("generator has the wrong ring or size")
        object.__setattr__(
            self,
            "inverses",
            tuple(poly_matrix_inv_special(m) for m in self.generators),
        )

    def generator(self, name: str) -> PolyMatrix:
        if name not in self.names:
            raise ValueError(f"unknown generator {name!r} (choices: {', '.join(self.names)})")
        return self.generators[self.names.index(name)]

    def evaluate(self, word) -> PolyMatrix:
        """Fold a word of (generator index, sign) pairs into a matrix, from
        its first letter; ValueError for a letter that is not a pair in range."""
        letters = []
        for idx, sign in word:
            _check_letter(idx, sign, len(self.generators))
            letters.append(self.generators[idx] if sign > 0 else self.inverses[idx])
        if not letters:
            return PolyMatrix.identity(self.ring, self.dimension)
        out = letters[0]
        for m in letters[1:]:
            out = out * m
        return out

    def with_metadata(self, **extra) -> "RepPackage":
        merged = dict(self.metadata)
        merged.update(extra)
        return RepPackage(
            self.dimension, self.ring, self.names, self.generators, merged
        )

    def export_text(self) -> str:
        """Stable text form: variables, flags, and the matrices."""
        lines = [f"dimension: {self.dimension}"]
        if not self.ring.variables:
            lines.append("variables: none")
        for name, flag in zip(self.ring.variables, self.ring.laurent):
            kind = "laurent" if flag else "polynomial"
            lines.append(f"variable: {name} {kind}")
        for name, m in zip(self.names, self.generators):
            lines.append(f"generator: {name}")
            for row in m.rows:
                lines.append("  [" + ", ".join(str(e) for e in row) + "]")
        return "\n".join(lines) + "\n"


def left_normed_commutator(matrices) -> PolyMatrix:
    """[[m1, m2], m3, ...] folded left to right; needs length ≥ 2.

    Input inverses come from poly_matrix_inv_special, which computes
    and verifies each matrix's inverse once and keeps it on the matrix,
    so package generators reuse the inverses checked at build time.
    The running commutator c carries its inverse along,
    [c, m]^-1 = m^-1 c^-1 m c, and c * c^-1 is checked against the
    identity once at the end.
    """
    matrices = list(matrices)
    if len(matrices) < 2:
        raise ValueError("a commutator needs at least two entries")
    c, c_inv = matrices[0], poly_matrix_inv_special(matrices[0])
    for m in matrices[1:]:
        m_inv = poly_matrix_inv_special(m)
        c, c_inv = c_inv * m_inv * c * m, m_inv * c_inv * m * c
    if not (c * c_inv).is_identity():
        raise InternalInvariantError("commutator inverse failed to verify")
    return c


def random_reduced_words(num_gens: int, count: int, max_len: int, seed: int):
    """Seeded freely reduced nonempty words over num_gens generators.

    Each word is a tuple of (generator index, sign) pairs with no
    adjacent cancelling pair.  The same seed always yields the same
    list.
    """
    if num_gens < 1 or count < 0 or max_len < 1:
        raise ValueError("need num_gens ≥ 1, count ≥ 0, max_len ≥ 1")
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        length = rng.randint(1, max_len)
        word = []
        for _ in range(length):
            while True:
                letter = (rng.randrange(num_gens), rng.choice((1, -1)))
                if not word or word[-1] != (letter[0], -letter[1]):
                    break
            word.append(letter)
        words.append(tuple(word))
    return words


def sanov_f2() -> RepPackage:
    """The classical free pair in SL2(Z): [[1,2],[0,1]] and [[1,0],[2,1]].

    Freeness is Sanov's theorem.

    >>> pkg = sanov_f2()
    >>> pkg.evaluate(((0, 1),) * 3).entry(0, 1)
    MultiPoly(6)
    """
    ring = PolyRing((), ())
    a = PolyMatrix(ring, [[1, 2], [0, 1]])
    b = PolyMatrix(ring, [[1, 0], [2, 1]])
    return RepPackage(
        2, ring, ("a", "b"), (a, b), {"construction": "sanov_f2"}
    )


def free_embedding(n: int) -> RepPackage:
    """Rank-n free subgroup of SL2(Z): conjugates a^-(i-1) b a^(i-1).

    The images are the first n conjugates of b by powers of a.  Those
    conjugates freely generate the normal closure of b (the kernel of
    the map to Z killing b, by Reidemeister-Schreier rewriting), so any
    n of them span a rank-n free group.  The package checks they are
    pairwise distinct; faithfulness beyond that is sampled, not proven
    here.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("rank must be a positive integer")
    base = sanov_f2()
    a, b = base.generators
    a_inv = base.inverses[0]
    gens = []
    for i in range(n):
        gens.append((a_inv ** i) * b * (a ** i))
    if len(set(gens)) != n:
        raise InternalInvariantError("conjugate images are not distinct")
    names = tuple(f"f{i + 1}" for i in range(n))
    return RepPackage(
        2,
        base.ring,
        names,
        tuple(gens),
        {"construction": "free_embedding", "rank": n},
    )


def _with_scalars(
    count: int, var: str, name: str, base: RepPackage, metadata: dict
) -> RepPackage:
    """``count`` scalar generators placed before a base package's.

    Scalar generator {name}j is {var}j times the identity, over a new
    Laurent variable {var}j.  The new variables come first in the ring;
    each base generator and its verified inverse are lifted into it by
    prefixing ``count`` zero exponents to every term, which keeps the
    terms canonical, so the lifted entries are wrapped unvalidated; the
    lifted inverse is checked against the lifted generator before it is
    kept.
    """
    variables = tuple(f"{var}{j}" for j in range(1, count + 1))
    ring = PolyRing(
        variables + base.ring.variables, (True,) * count + base.ring.laurent
    )
    pad = (0,) * count

    def lift(m):
        return PolyMatrix._trusted(
            ring,
            tuple(
                tuple(
                    MultiPoly._trusted(
                        ring, {pad + e: c for e, c in p._terms.items()}
                    )
                    for p in row
                )
                for row in m.rows
            ),
        )

    gens = [
        PolyMatrix.scalar(ring, base.dimension, ring.variable(v))
        for v in variables
    ]
    for m, m_inv in zip(base.generators, base.inverses):
        lifted = lift(m)
        _store_inverse(lifted, lift(m_inv))
        gens.append(lifted)
    names = tuple(f"{name}{j}" for j in range(1, count + 1)) + base.names
    return RepPackage(base.dimension, ring, names, tuple(gens), metadata)


def rep_z_m_times_f_k(m: int, k: int) -> RepPackage:
    """Representation package for Z^m x F_k in dimension 2.

    The m central generators are the scalar matrices diag(t_j, t_j)
    over Laurent variables; the k free generators come from
    free_embedding(k), lifted into the same ring.  Scalars commute
    with everything by construction, mirroring the central factor.

    >>> pkg = rep_z_m_times_f_k(1, 2)
    >>> pkg.names
    ('z1', 'f1', 'f2')
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("scalar count must be a non-negative integer")
    if not isinstance(k, int) or k < 0:
        raise ValueError("free rank must be a non-negative integer")
    free = free_embedding(k) if k else RepPackage(2, PolyRing((), ()), (), ())
    metadata = {
        "construction": "rep_z_m_times_f_k",
        "m": m,
        "k": k,
        "target": f"Z^{m} x F_{k}",
    }
    return _with_scalars(m, "t", "z", free, metadata)


def tensor_square_rep_free(n: int, k: int = 2) -> RepPackage:
    """Combined package for the tensor square of the free group F_n.

    The tensor square of F_n is Z^m x (derived subgroup of F_n) with
    m = n(n+1)/2.  The derived subgroup is free of infinite rank, so
    the package is rep_z_m_times_f_k(m, k): m central scalars beside a
    free part truncated to rank k.

    >>> tensor_square_rep_free(2).names
    ('z1', 'z2', 'z3', 'f1', 'f2')
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("rank must be a positive integer")
    m = n * (n + 1) // 2
    return rep_z_m_times_f_k(m, k).with_metadata(
        construction="tensor_square_rep_free",
        n=n,
        target=f"Z^{m} x derived(F_{n}) (infinite-rank free part truncated to rank {k})",
    )


def unitriangular_nilpotent_rep(n: int, c: int) -> RepPackage:
    """Unitriangular generators with indeterminate superdiagonals.

    Generator i is the (c+2)x(c+2) identity plus the indeterminates
    t{i}_{j} along the superdiagonal, one per position j = 1..c+1.
    Romanovskii's theorem makes this a faithful image of the free
    class-(c+1) nilpotent group of rank n; the package's own checks
    are structural (class bounds and polynomial non-vanishing).

    >>> pkg = unitriangular_nilpotent_rep(1, 1)
    >>> str(pkg.generators[0].entry(0, 1)), str(pkg.generators[0].entry(1, 2))
    ('t1_1', 't1_2')
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(c, int) or c < 1:
        raise ValueError("class parameter must be a positive integer")
    size = c + 2
    variables = tuple(
        f"t{i}_{j}" for i in range(1, n + 1) for j in range(1, size)
    )
    ring = PolyRing(variables, (False,) * len(variables))
    one, zero = ring.one(), ring.zero()
    gens = []
    for i in range(1, n + 1):
        rows = [
            [one if r == s else zero for s in range(size)] for r in range(size)
        ]
        for j in range(1, size):
            rows[j - 1][j] = ring.variable(f"t{i}_{j}")
        gens.append(PolyMatrix(ring, rows))
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return RepPackage(
        size,
        ring,
        names,
        tuple(gens),
        {
            "construction": "unitriangular_nilpotent_rep",
            "n": n,
            "c": c,
            "nilpotency_class": c + 1,
        },
    )


def tensor_square_rep_nilpotent(n: int, c: int) -> RepPackage:
    """Combined package for the tensor square of a free nilpotent group.

    The tensor square of the free class-c nilpotent group of rank n
    decomposes as Z^m x (derived subgroup of the class-(c+1) group)
    with m = n(n+1)/2.  The package carries m scalar generators
    tau_k * identity of size c+2 plus the ambient unitriangular
    generators; the represented target is the central Z^m times the
    derived subgroup of what those unitriangular matrices generate.

    >>> pkg = tensor_square_rep_nilpotent(2, 1)
    >>> pkg.names
    ('s1', 's2', 's3', 'x1', 'x2')
    """
    base = unitriangular_nilpotent_rep(n, c)
    m = n * (n + 1) // 2
    metadata = {
        "construction": "tensor_square_rep_nilpotent",
        "n": n,
        "c": c,
        "scalar_rank": m,
        "target": (
            f"Z^{m} x derived(N_{{{n},{c + 1}}})"
            f" inside Z^{m} x N_{{{n},{c + 1}}}"
        ),
    }
    if c == 1:
        metadata["derived_free_rank"] = n * (n - 1) // 2
    return _with_scalars(m, "tau", "s", base, metadata)
