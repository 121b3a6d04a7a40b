"""Command-line interface.

Subcommands::

    k1alex compute --knot 4_1 --cover 2            full invariant report
    k1alex fibered --knot 5_2 --covers 2,3         obstruction verdict table
    k1alex cover --knot 4_1 -N 3                   cover homology and action
    k1alex list                                    built-in presentations

Exit codes: 0 success, 2 parse/usage error, 3 validation error.  The
environment variable K1ALEX_PRECISION overrides the default truncation window.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cover import MetabelianRepError, metabelian_rep
from .grouprings import GroupError, MetaRep
from .k1core import K1Report, fibered_obstruction, k1_invariant
from .novikov import DEFAULT_PRECISION
from .presentation import (
    MeridianPresentation,
    ParseError,
    builtin,
    builtin_names,
    parse_presentation,
)
from .upsilon import metafinite_polynomial
from .words import WordError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_presentation(args) -> MeridianPresentation:
    if getattr(args, "knot", None):
        try:
            return builtin(args.knot)
        except KeyError as exc:
            raise CliError(exc.args[0], EXIT_PARSE) from exc
    path = getattr(args, "presentation", None)
    if not path:
        raise CliError("one of --knot or --presentation is required", EXIT_PARSE)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    try:
        return parse_presentation(text, name=os.path.basename(path))
    except (ParseError, WordError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _precision(args) -> int:
    k = args.precision
    if k is None:
        env = os.environ.get("K1ALEX_PRECISION", str(DEFAULT_PRECISION))
        try:
            k = int(env)
        except ValueError as exc:
            raise CliError(f"K1ALEX_PRECISION must be an integer, got {env!r}",
                           EXIT_PARSE) from exc
    if k < 8:
        raise CliError("precision must be at least 8", EXIT_PARSE)
    return k


def _rep_for(p: MeridianPresentation, cover_n: int) -> MetaRep:
    if cover_n < 2:
        raise CliError("cover degree must be >= 2", EXIT_PARSE)
    try:
        return metabelian_rep(p, cover_n)
    except (MetabelianRepError, GroupError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc


def _rep_payload(rep: MetaRep) -> dict:
    return {
        "group": rep.group.describe(),
        "kappa": [list(row) for row in rep.kappa.matrix],
        "kappa_order": rep.kappa.order,
        "images": [rep.group.element_str(e) for e in rep.images],
        "free_rank": rep.free_rank,
    }


def cmd_compute(args) -> int:
    p = _load_presentation(args)
    precision = _precision(args)
    rep = _rep_for(p, args.cover)
    report: K1Report = k1_invariant(p, rep, precision)
    poly = metafinite_polynomial(p, rep)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "knot": p.name or None,
        "cover": args.cover,
        "precision": precision,
        **_rep_payload(rep),
        "invertible": report.invertible,
        "delta": None,
        "delta_unit": None,
        "logs": {},
        "metafinite_poly": str(poly),
    }
    if report.delta is not None:
        payload["delta"] = str(report.delta)
        payload["delta_unit"] = f"({report.unit_part})*tau^{report.degree}"
        payload["logs"] = {str(k): str(report.logs[k])
                           for k in report.logs.degrees()}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"knot:        {payload['knot'] or '(file)'}   cover N = {args.cover}")
        print(f"group H:     {payload['group']}   kappa order {payload['kappa_order']}")
        print(f"kappa:       {payload['kappa']}")
        print(f"images:      {payload['images']}")
        print(f"invertible:  {payload['invertible']}")
        if payload["delta"]:
            print(f"delta:       {payload['delta']}")
            print(f"  unit part: {payload['delta_unit']} (ambiguous up to unit monomial)")
        for k, v in payload["logs"].items():
            print(f"log_{k}:      {v}")
        print(f"metafinite:  {payload['metafinite_poly']}")
    return EXIT_OK


def cmd_fibered(args) -> int:
    p = _load_presentation(args)
    precision = _precision(args)
    try:
        covers = [int(x) for x in args.covers.split(",") if x.strip()]
    except ValueError as exc:
        raise CliError(f"bad --covers list: {args.covers!r}", EXIT_PARSE) from exc
    if not covers:
        raise CliError("--covers needs at least one degree", EXIT_PARSE)
    for n in covers:
        if covers.count(n) > 1:
            raise CliError(f"cover degree {n} is listed twice", EXIT_PARSE)
    reps = [_rep_for(p, n) for n in covers]
    result = fibered_obstruction(p, reps, precision)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "knot": p.name or None,
        "covers": covers,
        "precision": precision,
        "verdicts": dict(zip(map(str, covers), result.verdicts)),
        "summary": result.summary,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for n, v in zip(covers, result.verdicts):
            print(f"N = {n}: {v}")
        print(result.summary)
    return EXIT_OK


def cmd_cover(args) -> int:
    p = _load_presentation(args)
    rep = _rep_for(p, args.cover)
    payload = {"schema_version": SCHEMA_VERSION, "knot": p.name or None,
               "cover": args.cover, **_rep_payload(rep)}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"H = {payload['group']}")
        print(f"kappa = {payload['kappa']} (order {payload['kappa_order']})")
        print(f"images = {payload['images']}")
        if payload["free_rank"]:
            print(f"free rank {payload['free_rank']} (discarded)")
    return EXIT_OK


def cmd_list(args) -> int:
    for name in builtin_names():
        print(name)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="k1alex",
                                  description="K1-valued twisted Alexander "
                                              "invariants of knot groups")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--knot", help="built-in knot name (see 'k1alex list')")
        sp.add_argument("--presentation", help="presentation file path")
        sp.add_argument("--precision", type=int, default=None,
                        help="truncation window (default 24, env K1ALEX_PRECISION)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("compute", help="full invariant report")
    common(sp)
    sp.add_argument("--cover", "-N", type=int, required=True,
                    help="cyclic cover degree (>= 2)")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("fibered", help="fiberedness obstruction table")
    common(sp)
    sp.add_argument("--covers", required=True,
                    help="comma-separated cover degrees, e.g. 2,3,6")
    sp.set_defaults(func=cmd_fibered)

    sp = sub.add_parser("cover", help="cover homology and deck action")
    common(sp)
    sp.add_argument("--cover", "-N", type=int, required=True,
                    help="cyclic cover degree (>= 2)")
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("list", help="list built-in knots")
    sp.set_defaults(func=cmd_list)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"k1alex: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, WordError) as exc:
        print(f"k1alex: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GroupError, MetabelianRepError) as exc:
        print(f"k1alex: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
