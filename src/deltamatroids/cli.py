"""Command-line front door.

One binary, subcommand style, no randomness anywhere.  Exit codes: 0 the
property holds or the construction succeeded, 1 the property fails (witness
printed in the payload), 2 input or usage error.  Payload goes to stdout as
JSON by default when piped, as text on a terminal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Optional

from .core import AxiomError, InputError, _submasks, default_ground
from .delta import DeltaMatroid, construct_sandwich, is_pairable
from .rigidity import CORPUS, verify_cone_quotient
from .search import (
    delta_codes,
    find_unpairable_pair,
    matroid_codes,
    verify_property,
)
from .serialize import (
    delta_from_json,
    delta_to_json,
    graph_from_json,
    load_json,
    matroid_from_json,
    matroid_to_json,
)


@cache  # built by the first main() call, not at import, and reused by every later call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="deltamatroids",
        description="Checks, constructions, and exhaustive searches for matroids and delta-matroids.",
    )
    p.add_argument(
        "--format",
        choices=("json", "text"),
        default=None,
        help="output format (default: json when piped, text on a terminal)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="certify a basis or feasible family")
    c.set_defaults(run=_cmd_check)
    c.add_argument("kind", choices=("matroid", "delta"))
    c.add_argument("file")

    ul = sub.add_parser("upper-lower", help="extract the upper and lower matroids")
    ul.set_defaults(run=_cmd_upper_lower)
    ul.add_argument("file")

    pr = sub.add_parser("pair", help="test whether two matroids are pairable")
    pr.set_defaults(run=_cmd_pair)
    pr.add_argument("upper_file")
    pr.add_argument("lower_file")
    pr.add_argument("--construct", action="store_true", help="also emit the sandwich delta-matroid")

    cc = sub.add_parser("cone-check", help="verify the cone identities for a graph")
    cc.set_defaults(run=_cmd_cone_check)
    cc.add_argument("graph_file", nargs="?")
    cc.add_argument("--corpus", action="store_true", help="run the whole built-in graph corpus")

    v = sub.add_parser("verify", help="run a registered exhaustive property check")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("property_id")
    v.add_argument("--n", type=int, default=4)

    s = sub.add_parser("search", help="search for witnesses")
    s.set_defaults(run=_cmd_search)
    s.add_argument("target", choices=("unpairable",))
    s.add_argument("--n", type=int, default=5)

    e = sub.add_parser("enumerate", help="enumerate all matroids or delta-matroids at size n")
    e.set_defaults(run=_cmd_enumerate)
    e.add_argument("kind", choices=("matroid", "delta"))
    e.add_argument("--n", type=int, default=3)

    return p


def _emit(payload: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _count(k: int, one: str, many: str) -> str:
    """The count with the noun it takes: "1 basis", "2 bases"."""
    return f"{k} {one if k == 1 else many}"


def _cmd_check(args, fmt: str) -> int:
    if args.kind == "matroid":
        m = matroid_from_json(load_json(args.file))
        payload = {"ok": True, "kind": "matroid", "rank": m.rank, "bases": len(m.bases)}
        _emit(payload, fmt, f"matroid: rank {m.rank}, {_count(len(m.bases), 'basis', 'bases')}")
    else:
        d = delta_from_json(load_json(args.file))
        payload = {"ok": True, "kind": "delta", "feasibles": len(d.feasibles)}
        _emit(payload, fmt, f"delta-matroid: {_count(len(d.feasibles), 'feasible set', 'feasible sets')}")
    return 0


def _cmd_upper_lower(args, fmt: str) -> int:
    d = delta_from_json(load_json(args.file))
    payload = {"upper": matroid_to_json(d.upper), "lower": matroid_to_json(d.lower)}
    _emit(
        payload,
        fmt,
        f"upper: rank {d.upper.rank}, {_count(len(d.upper.bases), 'basis', 'bases')}\n"
        f"lower: rank {d.lower.rank}, {_count(len(d.lower.bases), 'basis', 'bases')}",
    )
    return 0


def _cmd_pair(args, fmt: str) -> int:
    mu = matroid_from_json(load_json(args.upper_file))
    ml = matroid_from_json(load_json(args.lower_file))
    rep = is_pairable(mu, ml)
    payload = rep.to_json()
    if rep.pairable and args.construct:
        fam = construct_sandwich(mu, ml)
        d = DeltaMatroid.certify(fam)  # checked: the paper's claim that it is a delta-matroid, on the input pair
        payload["sandwich"] = delta_to_json(d)
    text = "pairable" if rep.pairable else f"not pairable; offending circuit {payload['offending_circuit']}"
    _emit(payload, fmt, text)
    return 0 if rep.pairable else 1


def _cmd_cone_check(args, fmt: str) -> int:
    if args.corpus and args.graph_file is not None:
        raise InputError("cone-check takes a graph file or --corpus, not both")
    if args.corpus:
        reports = {name: verify_cone_quotient(g) for name, g in CORPUS.items()}
        results = {name: rep.to_json() for name, rep in reports.items()}
        all_ok = all(rep.both_hold for rep in reports.values())
        _emit(
            {"ok": all_ok, "graphs": results},
            fmt,
            "\n".join(f"{name}: {'pass' if rep.both_hold else 'FAIL'}" for name, rep in reports.items()),
        )
        return 0 if all_ok else 1
    if args.graph_file is None:
        raise InputError("cone-check needs a graph file or --corpus")
    g = graph_from_json(load_json(args.graph_file))
    if not g.is_connected():
        raise InputError("cone-check requires a connected graph")
    rep = verify_cone_quotient(g)
    _emit(
        {"ok": rep.both_hold, **rep.to_json()},
        fmt,
        f"deletion identity: {'pass' if rep.deletion_identity else 'FAIL'}\n"
        f"contraction identity: {'pass' if rep.contraction_identity else 'FAIL'}",
    )
    return 0 if rep.both_hold else 1


def _cmd_verify(args, fmt: str) -> int:
    report = verify_property(args.property_id, args.n)
    _emit(
        report.to_json(),
        fmt,
        f"{report.property_id} at n={args.n}: "
        f"{'holds' if report.holds else 'FAILS'} over {_count(report.universe_size, 'case', 'cases')}",
    )
    return 0 if report.holds else 1


def _cmd_search(args, fmt: str) -> int:
    report = find_unpairable_pair(args.n)
    _emit(
        report.to_json(),
        fmt,
        f"unpairable pair at n={args.n}: {'found' if report.holds else 'none'}",
    )
    return 0 if report.holds else 1


def _nested(value: list, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested depth levels down."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _cmd_enumerate(args, fmt: str) -> int:
    key, build = ("bases", matroid_codes) if args.kind == "matroid" else ("feasibles", delta_codes)
    codes = build(args.n)
    if fmt != "json":
        print(f"{_count(len(codes), 'structure', 'structures')} at n={args.n}")
        return 0
    # the bytes json.dumps({"count": ..., "items": [...]}, indent=2) gives, written item by item, labels
    # once per mask and members by table: a code has at most 16 bits (n <= 4), and per byte a table
    # maps each value to the JSON strings of the members it holds, joined once per call
    g = default_ground(args.n)
    members = tuple(_nested(list(g.labels_of(m)), 4) for m in g.all_masks())
    sep = ",\n        "
    low, high = ([sep.join(t) for t in _submasks(half)] for half in (members[:8], members[8:]))
    head = f'    {{\n      "ground": {_nested(list(g.labels), 3)},\n      {json.dumps(key)}: [\n        '
    sys.stdout.write(f'{{\n  "count": {len(codes)},\n  "items": [')
    for i, c in enumerate(codes):
        sys.stdout.write(f"{',' if i else ''}\n{head}{low[c & 255]}{sep if c & 255 and c >> 8 else ''}{high[c >> 8]}\n      ]\n    }}")
    sys.stdout.write("\n  ]\n}\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    fmt = args.format or ("text" if sys.stdout.isatty() else "json")
    try:
        return args.run(args, fmt)
    except AxiomError as e:
        _emit({"ok": False, "witness": e.violation.to_json()}, fmt, e.violation.describe())
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say `| head`): stop quietly, and point
        # stdout at /dev/null so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as a shell reports a reader gone away
    sys.exit(code)


if __name__ == "__main__":
    entry()
