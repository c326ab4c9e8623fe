"""Batch command line front end.

Every computation in the package is reachable as a subcommand that
prints a deterministic report: repeated runs with the same flags are
byte-identical (timing is opt-in via --timing precisely because it
would break that).  The structured rendering carries the same data
fields as the text rendering, as one JSON document.

Exit codes: 0 success, 1 input or usage error, 2 enumeration budget
or memory cap exceeded (the cap also bounds the letters that powers in
an input presentation expand to, and the cyclic factors of a Gamma
result), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .abelian import format_abelian, gamma, parse_abelian
from .actions import conjugation_pair, derived_subgroup_dh, trivial_pair
from .catalog import catalog_group
from .errors import BudgetExceeded, InternalInvariantError, ParseError
from .fp import DEFAULT_BUDGET, parse_presentation, realize
from .linearity import (
    _malcev,
    bryukhanov_sum_descriptor,
    button_family,
    button_three_abelianization_descriptor,
    button_two_abelianization_descriptor,
    format_torsion_descriptor,
    k2_rationals_descriptor,
    parse_torsion_descriptor,
)
from .reps import (
    free_embedding,
    random_reduced_words,
    rep_z_m_times_f_k,
    sanov_f2,
    tensor_square_rep_free,
    tensor_square_rep_nilpotent,
    unitriangular_nilpotent_rep,
)
from .tensor import exterior_square, peiffer_product, tensor_square

__all__ = ["CommandReport", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclass
class CommandReport:
    """One command's echo, input digest, and result fields."""

    command: str
    input_digest: str
    results: dict
    timing_seconds: float | None = None

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            doc = {
                "command": self.command,
                "input_digest": self.input_digest,
                "results": self.results,
            }
            if self.timing_seconds is not None:
                doc["timing_seconds"] = round(self.timing_seconds, 3)
            return json.dumps(doc, sort_keys=True, indent=2)
        lines = [
            f"command: {self.command}",
            f"input: sha256:{self.input_digest}",
        ]
        for key, value in self.results.items():
            if isinstance(value, str) and "\n" in value:
                lines.append(f"{key}:")
                lines.extend(f"  {ln}" for ln in value.splitlines())
            elif isinstance(value, (list, tuple)):
                lines.append(f"{key}:")
                lines.extend(f"  {item}" for item in value)
            elif isinstance(value, bool):
                lines.append(f"{key}: {'yes' if value else 'no'}")
            else:
                lines.append(f"{key}: {value}")
        if self.timing_seconds is not None:
            lines.append(f"timing_seconds: {self.timing_seconds:.3f}")
        return "\n".join(lines)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _echo(args) -> str:
    return " ".join(args._argv)


def _lookup_group(name: str):
    try:
        return catalog_group(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _cmd_gamma(args) -> CommandReport:
    group = parse_abelian(args.group)
    results = {
        "group": format_abelian(group),
        "gamma": format_abelian(gamma(group)),
    }
    return CommandReport(_echo(args), _digest(args.group.strip()), results)


def _kappa_digest(t) -> str:
    lines = [f"t[{a},{b}] -> {img}" for (a, b), img in np.ndenumerate(t.kappa_images)]
    return _digest("\n".join(lines))


def _cmd_tensor(args) -> CommandReport:
    if bool(args.group) == bool(args.presentation):
        raise _UsageError(
            "grouptensor tensor: give exactly one of --group / --presentation"
        )
    if args.group:
        label, source = args.group, args.group
        realization = _lookup_group(args.group)
    else:
        label, source = "presentation", args.presentation
        realization = realize(parse_presentation(args.presentation))
    strategies = (
        ("hlt", "felsch") if args.strategy == "both" else (args.strategy,)
    )
    build = exterior_square if args.exterior else tensor_square
    builds = [build(realization, budget=args.budget, strategy=s) for s in strategies]
    t = builds[0]
    results = {
        "group": label,
        "construction": "exterior square" if args.exterior else "tensor square",
        "strategy": args.strategy,
        "order": t.order,
        "abelianization": format_abelian(t.realization.abelian_invariants()),
        "j2_order": len(t.j2()),
        "derived_order": len(derived_subgroup_dh(t.pair)),
    }
    results["bookkeeping"] = (
        f"{results['order']} = {results['j2_order']}"
        f" * {results['derived_order']}"
    )
    results["kappa_digest"] = _kappa_digest(t)
    if len(builds) == 2:
        if not np.array_equal(builds[0].realization.mul, builds[1].realization.mul):
            raise InternalInvariantError(
                "hlt and felsch runs disagree on the tensor square"
            )
        results["agreement"] = True
    return CommandReport(_echo(args), _digest(source), results)


def _cmd_peiffer(args) -> CommandReport:
    g = _lookup_group(args.group)
    if args.trivial_with:
        h = _lookup_group(args.trivial_with)
        pair = trivial_pair(g, h)
        label = f"{args.group} with {args.trivial_with}, trivial actions"
        source = f"{args.group}|{args.trivial_with}|trivial"
    else:
        pair = conjugation_pair(g)
        label = f"{args.group} with itself, conjugation actions"
        source = args.group
    p = peiffer_product(pair, budget=args.budget, strategy=args.strategy)
    ab = p.realization.abelian_invariants()
    results = {
        "pair": label,
        "order": p.order,
        "abelianization": format_abelian(ab),
        "abelian": bool(p.order == ab.order()),
    }
    return CommandReport(_echo(args), _digest(source), results)


_CANNED = {
    "k2-rationals": k2_rationals_descriptor,
    "button-two": button_two_abelianization_descriptor,
    "button-three": button_three_abelianization_descriptor,
    "bryukhanov": bryukhanov_sum_descriptor,
}


def _cmd_malcev(args) -> CommandReport:
    if bool(args.file) == bool(args.canned):
        raise _UsageError(
            "grouptensor malcev: give exactly one of FILE / --canned"
        )
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        descriptor = parse_torsion_descriptor(text)
    else:
        descriptor = _CANNED[args.canned]()
        text = format_torsion_descriptor(descriptor)
    p = args.characteristic
    n = args.degree
    verdict, trace = _malcev(descriptor, p, n)
    results = {
        "characteristic": p,
        "degree": n,
        "linear": bool(verdict),
        "trace": trace,
    }
    return CommandReport(_echo(args), _digest(text), results)


def _rep_package(args):
    kind = args.kind
    if kind == "sanov":
        return sanov_f2()
    if kind == "free":
        _require(args.n is not None, "rep free needs --n")
        return free_embedding(args.n)
    if kind == "zmfk":
        _require(args.m is not None and args.k is not None,
                 "rep zmfk needs --m and --k")
        return rep_z_m_times_f_k(args.m, args.k)
    if kind == "nilpotent":
        _require(args.n is not None and args.c is not None,
                 "rep nilpotent needs --n and --c")
        return unitriangular_nilpotent_rep(args.n, args.c)
    if kind == "tensor-free":
        _require(args.n is not None, "rep tensor-free needs --n")
        return tensor_square_rep_free(args.n, 2 if args.k is None else args.k)
    _require(args.n is not None and args.c is not None,
             "rep tensor-nilpotent needs --n and --c")
    return tensor_square_rep_nilpotent(args.n, args.c)


def _require(cond: bool, message: str):
    if not cond:
        raise _UsageError(f"grouptensor: {message}")


def _cmd_rep(args) -> CommandReport:
    source = args.kind + "".join(
        f" {name}={getattr(args, name)}"
        for name in ("n", "c", "m", "k", "variant", "count")
        if getattr(args, name, None) is not None
    )
    if args.kind == "button":
        _require(args.variant is not None and args.count is not None,
                 "rep button needs --variant and --count")
        variant = {"2": "two", "3": "three"}.get(args.variant, args.variant)
        fam = button_family(variant, args.count)
        results = {
            "variant": fam.variant.value,
            "family_size": fam.size,
            "conjugation_power": fam.power,
            "identities_verified": len(fam.report),
            "report": list(fam.report),
        }
        return CommandReport(_echo(args), _digest(source), results)
    pkg = _rep_package(args)
    results = {
        "construction": pkg.metadata.get("construction", args.kind),
        "dimension": pkg.dimension,
        "generators": list(pkg.names),
        "inverses_verified": len(pkg.generators),
    }
    for key in ("target", "scalar_rank", "derived_free_rank"):
        if key in pkg.metadata:
            results[key] = pkg.metadata[key]
    if args.samples:
        _require(
            args.kind in ("sanov", "free"),
            "word sampling applies to the free kinds (sanov, free) only",
        )
        words = random_reduced_words(
            len(pkg.generators), args.samples, 20, args.seed
        )
        hits = sum(1 for w in words if not pkg.evaluate(w).is_identity())
        results["sampled_words"] = args.samples
        results["non_identity"] = hits
        if hits != args.samples:
            raise InternalInvariantError(
                "a sampled reduced word evaluated to the identity"
            )
    results["export"] = pkg.export_text().rstrip("\n")
    return CommandReport(_echo(args), _digest(source), results)


def _build_parser() -> _Parser:
    parser = _Parser(prog="grouptensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="output rendering (default text)",
        )
        p.add_argument(
            "--timing", action="store_true",
            help="append wall-clock seconds (breaks byte-identical output)",
        )

    p = sub.add_parser("gamma", help="Whitehead quadratic functor of an"
                       " abelian group")
    p.add_argument("group", help="group text, e.g. 'Z_2' or 'Z^3 x Z_4'")
    common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("tensor", help="tensor or exterior square of a finite"
                       " group")
    p.add_argument("--group", help="catalog name, e.g. D4")
    p.add_argument("--presentation", help="inline presentation, e.g."
                   " '< a | a^5 >'")
    p.add_argument("--exterior", action="store_true",
                   help="collapse the diagonal (exterior square)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="coset definition budget")
    p.add_argument("--strategy", choices=("hlt", "felsch", "both"),
                   default="hlt")
    common(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("peiffer", help="Peiffer square (or trivial-action"
                       " Peiffer product) of catalog groups")
    p.add_argument("--group", required=True, help="catalog name")
    p.add_argument("--trivial-with", dest="trivial_with",
                   help="second catalog group; both actions trivial")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    common(p)
    p.set_defaults(func=_cmd_peiffer)

    p = sub.add_parser("malcev", help="linearity verdict for an abelian group"
                       " given by a torsion descriptor")
    p.add_argument("file", nargs="?", help="descriptor file path")
    p.add_argument("--canned", choices=sorted(_CANNED),
                   help="use a built-in descriptor instead of a file")
    p.add_argument("--char", dest="characteristic", type=int, default=0,
                   help="field characteristic (0 or a prime, default 0)")
    p.add_argument("--degree", type=int, required=True, help="matrix degree n")
    common(p)
    p.set_defaults(func=_cmd_malcev)

    p = sub.add_parser("rep", help="explicit matrix representation packages")
    p.add_argument("kind", choices=("sanov", "free", "zmfk", "nilpotent",
                                    "tensor-free", "tensor-nilpotent",
                                    "button"))
    p.add_argument("--n", type=int, help="rank parameter")
    p.add_argument("--c", type=int, help="nilpotency class parameter")
    p.add_argument("--m", type=int, help="scalar block size")
    p.add_argument("--k", type=int, help="free part rank / truncation")
    p.add_argument("--variant", choices=("two", "three", "2", "3"),
                   help="button family variant")
    p.add_argument("--count", type=int, help="button family size m")
    p.add_argument("--samples", type=int, default=0,
                   help="sample this many reduced words (free kinds)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for word sampling (default 0)")
    common(p)
    p.set_defaults(func=_cmd_rep)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = list(argv)
        start = time.monotonic()
        report = args.func(args)
        if args.timing:
            report.timing_seconds = time.monotonic() - start
        print(report.render(args.format))
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
