"""Command-line front end.

Every quantity the library computes is reachable from here: facet listings,
extreme rays with provenance tags, membership checks with certificates,
flag vectors, witness posets, chain partitions, and the polar cone.  Rank
arguments count poset ranks, so --rank R works on forms of degree R over
rank sets inside [1, R-1].

Exit status: 0 for success (and for "form is in the cone"), 1 for a form
that is not in the cone, 2 for usage or data errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Sequence

from . import ranksets
from .algebra import Form, parse_form, to_h_coeffs
from .cone import (
    contains,
    contains_by_projection,
    extreme_rays,
    facet_system,
    flag_cone,
    form_to_ray,
    generate_extremes,
)
from .intervals import IntervalSystem
from .poset import (
    WitnessSpec,
    chain_interval_system,
    flag_vector,
    format_poset,
    parse_poset,
    partition_classes,
    witness_poset,
)

FACET_RANK_CAP = 6
EXTREME_RANK_CAP = 6
CHECK_RANK_CAP = 7
SLOW_RANK = 6
WITNESS_N_CAP = 64
WITNESS_K_CAP = 4
WITNESS_RANK_CAP = 10


def _h_text(F: Form) -> str:
    """Render a form in the h-basis, mirroring the f-basis text syntax."""
    coeffs = to_h_coeffs(F)
    parts: list[str] = []
    for mask in ranksets.subsets(F.degree - 1):
        c = coeffs[mask]
        if not c:
            continue
        mag = abs(c)
        body = f"h{ranksets.to_string(mask)}"
        if mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_facets(args: argparse.Namespace) -> int:
    n = args.rank - 1
    fs = facet_system(n)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["antichain"] + ranksets.labels(n))
        for sys_, normal in fs.facets:
            w.writerow([str(sys_)] + [str(x) for x in normal.coords])
        sys.stdout.write(buf.getvalue())
        print(f"# count={len(fs)}")
    else:
        width = max(len(str(sys_)) for sys_, _ in fs.facets)
        for sys_, normal in fs.facets:
            bits = " ".join(str(x) for x in normal.coords)
            print(f"{str(sys_):<{width}}  {bits}")
        print(f"count {len(fs)}")
    return 0


def cmd_extremes(args: argparse.Namespace) -> int:
    n = args.rank - 1

    def render(F: Form) -> str:
        return _h_text(F) if args.basis == "h" else str(F)

    if args.method in ("dd", "both"):
        report = extreme_rays(n)
        tag_counts: dict[str, int] = {"lift": 0, "convolution": 0, "new": 0}
        for entry in report.rays:
            tag_counts[entry.tag] += 1
            print(f"{render(entry.form)}  [{entry.tag}] active={len(entry.active)}")
        print(
            f"count={len(report.rays)} lift={tag_counts['lift']} "
            f"convolution={tag_counts['convolution']} new={tag_counts['new']}"
        )
    if args.method in ("generate", "both"):
        derived = generate_extremes(n)
        if args.method == "generate":
            for F in derived:
                print(render(F))
            print(f"count={len(derived)}")
        else:
            dd_set = extreme_rays(n).ray_set
            inside = all(form_to_ray(F).coords in dd_set for F in derived)
            verdict = "ok" if inside else "FAILED"
            print(
                f"generated {len(derived)} derived rays; "
                f"subset of dd output: {verdict} ({len(derived)}/{len(dd_set)})"
            )
            if not inside:
                return 2
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    F = parse_form(_read_text(args.form))
    if F.degree != args.rank:
        print(
            f"error: form has rank {F.degree}, --rank says {args.rank}",
            file=sys.stderr,
        )
        return 2
    result = contains(F)
    agree = contains_by_projection(F) == bool(result)
    if not agree:
        print("error: membership algorithms disagree", file=sys.stderr)
        return 2
    if result:
        print("in cone: yes")
        return 0
    print("in cone: no")
    if args.certificate:
        print(f"violated antichain: {result.violated}")
        print(f"blocker sum: {result.value}")
        if result.witness is not None:
            w = result.witness
            print(
                f"witness poset: rank={w.n + 1} intervals={w.intervals} N={w.N}"
            )
            print(f"witness evaluation: {result.witness_value}")
        else:
            print("witness poset: none below the N cap (antichain is conclusive)")
    return 1


def cmd_fvector(args: argparse.Namespace) -> int:
    P = parse_poset(_read_text(args.poset))
    vec = flag_vector(P)
    print(f"fvector rank={P.rank}")
    for mask in ranksets.subsets(P.n):
        print(f'"{ranksets.to_string(mask)}" {vec[mask]}')
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    n = args.rank - 1
    system = IntervalSystem.parse(args.intervals, n)
    if args.N > WITNESS_N_CAP:
        print(f"error: N = {args.N} exceeds the cap {WITNESS_N_CAP}", file=sys.stderr)
        return 2
    if len(system) > WITNESS_K_CAP:
        print(
            f"error: {len(system)} intervals exceed the cap {WITNESS_K_CAP}",
            file=sys.stderr,
        )
        return 2
    spec = WitnessSpec(n, system, args.N)
    P = witness_poset(spec)
    print(f"witness rank={args.rank} intervals={system} N={args.N}")
    print(f"elements={len(P)} covers={len(P.covers)}")
    vec = flag_vector(P)
    ok = True
    for mask in ranksets.subsets(n):
        predicted = spec.predicted_flag_number(mask)
        if vec[mask] != predicted:
            ok = False
        print(f'"{ranksets.to_string(mask)}" {vec[mask]}')
    print(f"closed form matches: {'yes' if ok else 'NO'}")
    if args.emit_poset:
        _write_text(args.emit_poset, format_poset(P))
    return 0 if ok else 2


def cmd_partition(args: argparse.Namespace) -> int:
    P = parse_poset(_read_text(args.poset))
    vec = flag_vector(P)
    classes = partition_classes(P)
    ok = True
    for mask in ranksets.subsets(P.n):
        size = len(classes[mask])
        match = size == vec[mask]
        ok = ok and match
        print(
            f'class "{ranksets.to_string(mask)}" size={size} '
            f"f={vec[mask]} {'ok' if match else 'MISMATCH'}"
        )
    print(f"partition valid: {'yes' if ok else 'NO'}")
    for chain in P.maximal_chains():
        system = chain_interval_system(P, chain)
        print(f"chain {' < '.join(chain)} : {system}")
    return 0 if ok else 2


def cmd_polar(args: argparse.Namespace) -> int:
    desc = flag_cone(args.rank - 1)
    print(f"generators ({len(desc.generators)}):")
    for sys_, ray in desc.generators:
        print(f"  {sys_} : {' '.join(str(x) for x in ray.coords)}")
    print(f"facets ({desc.facets.nrows}):")
    for row in desc.facets.entries:
        print("  " + " ".join(str(int(x)) for x in row))
    # The facets are the extreme rays, so the counts agree by construction.
    print(f"facet count equals extreme-ray count ({desc.facets.nrows}): yes")
    return 0


def _add_rank(p: argparse.ArgumentParser, cap: int, minimum: int = 1) -> None:
    p.add_argument(
        "--rank",
        type=int,
        required=True,
        metavar="R",
        help=f"poset rank, {minimum} to {cap}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcone",
        description="Exact flag f-vector inequalities for graded posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", help="antichains and facet normals")
    _add_rank(p, FACET_RANK_CAP)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_facets, cap=FACET_RANK_CAP, min_rank=1)

    p = sub.add_parser("extremes", help="extreme rays with provenance tags")
    _add_rank(p, EXTREME_RANK_CAP)
    p.add_argument("--method", choices=("dd", "generate", "both"), default="dd")
    p.add_argument("--basis", choices=("f", "h"), default="f")
    p.add_argument("--allow-slow", action="store_true",
                   help=f"permit rank {SLOW_RANK} (about 1.3 s, mostly double description)")
    p.set_defaults(func=cmd_extremes, cap=EXTREME_RANK_CAP, min_rank=1)

    p = sub.add_parser("check", help="cone membership of a form file")
    _add_rank(p, CHECK_RANK_CAP)
    p.add_argument("--form", required=True, metavar="PATH")
    p.add_argument("--certificate", action="store_true",
                   help="print the violated antichain and witness recipe")
    p.set_defaults(func=cmd_check, cap=CHECK_RANK_CAP, min_rank=1)

    p = sub.add_parser("fvector", help="flag vector of a poset file")
    p.add_argument("--poset", required=True, metavar="PATH")
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("witness", help="build a witness poset")
    _add_rank(p, WITNESS_RANK_CAP, minimum=2)
    p.add_argument("--intervals", required=True, metavar="EXPR",
                   help='e.g. "[1,2]+[2,3]" or "empty"')
    p.add_argument("--N", type=int, required=True, metavar="N",
                   help=f"multiplicity, 1 to {WITNESS_N_CAP}")
    p.add_argument("--emit-poset", metavar="PATH")
    p.set_defaults(func=cmd_witness, cap=WITNESS_RANK_CAP, min_rank=2)

    p = sub.add_parser("partition", help="chain partition classes of a poset file")
    p.add_argument("--poset", required=True, metavar="PATH")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("polar", help="flag-cone generators and facets")
    _add_rank(p, EXTREME_RANK_CAP)
    p.add_argument("--allow-slow", action="store_true",
                   help=f"permit rank {SLOW_RANK} (about 1.2 s: one double description run)")
    p.set_defaults(func=cmd_polar, cap=EXTREME_RANK_CAP, min_rank=1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    cap = getattr(args, "cap", None)
    if cap is not None:
        if not (args.min_rank <= args.rank <= cap):
            parser.error(f"--rank must be between {args.min_rank} and {cap}")
        runs_dd = args.command == "polar" or (
            args.command == "extremes" and args.method in ("dd", "both")
        )
        if args.rank >= SLOW_RANK and runs_dd and not args.allow_slow:
            parser.error(
                f"rank {args.rank} needs --allow-slow (long double description run)"
            )

    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
