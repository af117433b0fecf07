"""Command-line front end.

Addresses and itineraries are read in the grammar of
:mod:`exptree.notation`.

Exit codes: 0 success (or ``true``), 1 ``false`` (same-map), 2 usage or
parse error, 3 domain error, 4 realization bound exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import _entropy_digits, same_map
from .errors import (
    ExptreeError,
    InternalInvariantError,
    ParseError,
    RealizationBoundExceededError,
    error_name,
)
from .notation import parse_address, parse_itinerary
from .partition import itinerary, validate_base
from .realization import addresses_of, separating_addresses
from .treebuild import build_tree, check_tree_invariants, to_dot, to_json, tree_from_json
from .triods import AddressTriod, Triod, _shape, middle_point

__all__ = ["main", "parse_address", "parse_itinerary"]


def _positive_float(text: str) -> float:
    x = float(text)
    if not x > 0:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return x


def _positive_int(text: str) -> int:
    x = int(text)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text}")
    return x


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exptree",
        description="Hubbard-tree combinatorics of post-singularly finite exponential maps",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("kneading", help="kneading sequence of a base address")
    sp.add_argument("base")

    sp = sub.add_parser("itinerary", help="itinerary of an address w.r.t. a base")
    sp.add_argument("--base", required=True)
    sp.add_argument("address")

    sp = sub.add_parser("tree", help="abstract Hubbard tree of a base address")
    sp.add_argument("base")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    sp.add_argument("--indent", type=int, default=None)
    sp.add_argument(
        "--check",
        action="store_true",
        help="re-parse the emitted JSON and re-verify all tree invariants",
    )

    sp = sub.add_parser("entropy", help="core entropy of the tree of a base address")
    sp.add_argument("base")
    sp.add_argument("--tol", type=_positive_float, default=1e-9)

    sp = sub.add_parser("same-map", help="do two base addresses give the same map?")
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("addresses-of", help="external addresses realizing an itinerary")
    sp.add_argument("--base", required=True)
    sp.add_argument("itinerary")
    sp.add_argument(
        "--m-max",
        type=_positive_int,
        help="cap on the realization multiplier (default: none)",
    )
    sp.add_argument(
        "--m-range",
        nargs=2,
        type=int,
        metavar=("LO", "HI"),
        help="inclusive boundary-sheet range for pre-singular itineraries",
    )

    sp = sub.add_parser("separate", help="separating addresses of an address triod")
    sp.add_argument("--base", required=True)
    sp.add_argument("a1")
    sp.add_argument("a2")
    sp.add_argument("a3")

    sp = sub.add_parser("triod", help="middle point and shape of an itinerary triod")
    sp.add_argument("--base", required=True)
    sp.add_argument("i1")
    sp.add_argument("i2")
    sp.add_argument("i3")

    sp = sub.add_parser("verify", help="run the property suites on a random corpus")
    sp.add_argument("--count", type=_positive_int, default=25)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--max-preperiod", type=_positive_int, default=3)
    sp.add_argument("--max-period", type=_positive_int, default=4)
    sp.add_argument("--entry-range", type=_positive_int, default=3)
    return p


def _run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "same-map":
        result = same_map(parse_address(args.first), parse_address(args.second))
        print("true" if result else "false")
        return 0 if result else 1
    if cmd == "verify":
        from . import verify as verify_mod  # only this command loads the suites
        options = (args.max_preperiod, args.max_period, args.entry_range)
        # Checked on its own: a ValueError from inside the suites is a defect.
        try:
            verify_mod._check_support(args.count, *options)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        report = verify_mod.run_all(args.count, args.seed, *options)
        for res in report:
            print(f"{res.name}: {'ok' if res.ok() else 'FAILED'} ({res.cases} checks)")
            for msg in res.failures:
                print(f"  - {msg}", file=sys.stderr)
        return 0 if all(res.ok() for res in report) else 1
    P = validate_base(parse_address(args.base))
    if cmd == "kneading":
        print(P.kneading)
    elif cmd == "itinerary":
        print(itinerary(P, parse_address(args.address)))
    elif cmd == "tree":
        tree = build_tree(P)
        if args.format == "dot":
            sys.stdout.write(to_dot(tree))
        else:
            text = to_json(tree, indent=args.indent)
            if args.check:
                check_tree_invariants(tree_from_json(text))
                print("check: ok", file=sys.stderr)
            print(text)
    elif cmd == "entropy":
        print(_entropy_digits(build_tree(P), tol=args.tol)[2])
    elif cmd == "addresses-of":
        m_range = range(args.m_range[0], args.m_range[1] + 1) if args.m_range else None
        for a in addresses_of(P, parse_itinerary(args.itinerary), args.m_max, m_range):
            print(a)
    elif cmd == "separate":
        A = AddressTriod(tuple(map(parse_address, (args.a1, args.a2, args.a3))), P)
        A.validate()
        shape, assignments = separating_addresses(P, A)
        print(f"shape: {shape}")
        for sa in assignments:
            where = f"gap {sa.gap}" if sa.gap is not None else f"member {sa.member}"
            print(f"{where}: {sa.address}")
    elif cmd == "triod":
        T = Triod(tuple(map(parse_itinerary, (args.i1, args.i2, args.i3))), P)
        T.validate()
        b = middle_point(T)
        print(f"middle: {b}")
        print(f"shape: {_shape(T, b)}")
    else:
        raise InternalInvariantError(f"unhandled command {cmd}")
    return 0


_EXIT_CODES = {ParseError: 2, RealizationBoundExceededError: 4}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except ExptreeError as exc:
        print(error_name(exc))
        print(exc, file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 3)


if __name__ == "__main__":
    sys.exit(main())
