"""Command line front end.

Verbs: ``expand`` (print one symmetric polynomial), ``verify`` (sweep
identity checks, JSONL reports), ``paths`` / ``tilings`` (enumerate the
combinatorial models), ``bisnomial`` (triangle values and tables) and
``schur`` (the two determinantal forms side by side).

stdout carries only the payload and is byte-stable for fixed inputs;
timing goes to stderr and is silenced by ``--deterministic``.  Exit code
0 on success, 1 when a verification found a failing identity, 2 on bad
arguments, a sweep with no valid point, or an ``--out`` that cannot be
written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .bisnomial import bisnomial, pq_bisnomial, q_bisnomial
from .combinatorics import describe_line, enum_objects, paths_svg, tilings_svg
from .identities import default_grid, list_identities, verify_grid
from .multipoly import MPoly
from .partitions import is_partition
from .symfun import E, H, P, classical, m_lambda, schur_det


def parse_partition(text: str) -> tuple[int, ...]:
    """Accepts '3,1,1' or multiplicity form '1^2 3^1'; '' is the empty one."""
    text = text.strip()
    if not text:
        return ()
    parts: list[int] = []
    if "^" in text:
        for token in text.split():
            base, _, mult = token.partition("^")
            parts.extend([int(base)] * int(mult or "1"))
    else:
        parts = [int(tok) for tok in text.split(",") if tok.strip()]
    lam = tuple(sorted(parts, reverse=True))
    if not is_partition(lam):
        raise ValueError(f"not a partition: {text!r}")
    return lam


def parse_range(text: str) -> list[int]:
    """'3' -> [3]; '0..8' -> [0, 1, ..., 8] (inclusive)."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range: {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def _json_line(payload: dict) -> str:
    return json.dumps(payload, separators=(", ", ": "))


# -- verb handlers ---------------------------------------------------------


def _cmd_expand(args: argparse.Namespace) -> tuple[str, int]:
    kind = args.kind
    meta: dict = {"kind": kind}
    if kind == "m":
        if args.lam is None or args.n is None:
            raise ValueError("kind m needs --lambda and --n")
        lam = parse_partition(args.lam)
        poly = m_lambda(lam, args.n)
        meta.update(lam=list(lam), n=args.n)
    elif kind in ("e", "h", "p"):
        if args.k is None or args.n is None:
            raise ValueError(f"kind {kind} needs --k and --n")
        poly = classical(kind, args.k, args.n)
        meta.update(k=args.k, n=args.n)
    else:  # E, H or P: the parser allows no other kind
        if args.k is None or args.s is None or args.n is None:
            raise ValueError(f"kind {kind} needs --k, --s and --n")
        poly = {"E": E, "H": H, "P": P}[kind](args.k, args.s, args.n)
        meta.update(k=args.k, s=args.s, n=args.n)
    if args.format == "text":
        return f"{poly}\n", 0
    meta["poly"] = poly.to_json()  # the parser allows text or json only
    return _json_line(meta) + "\n", 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.id == "all":
        targets = list_identities()
    elif args.id == "conversions":
        targets = [name for name in list_identities() if name.startswith("conversion:")]
    else:
        targets = [args.id]
    reports, empty = [], None
    for name in targets:
        grid = default_grid(name)
        for axis in ("n", "k", "s"):
            value = getattr(args, axis)
            if value is not None and axis in grid:
                grid[axis] = parse_range(value)
        try:
            reports.extend(verify_grid(name, grid))
        except ValueError as exc:  # the grid has every axis, so this id has no valid point
            empty = empty or exc  # an error only if no id has one
    if not reports:
        raise empty
    failed = sum(1 for r in reports if not r.holds)
    if args.format == "text":
        lines = []
        for r in reports:
            status = "PASS" if r.holds else "FAIL"
            params = " ".join(f"{key}={r.params[key]}" for key in sorted(r.params))
            lines.append(f"{status} {r.identity_id} {params}")
        lines.append(f"total={len(reports)} failed={failed}")
        payload = "\n".join(lines) + "\n"
    else:
        payload = "".join(
            r.to_json(include_elapsed=not args.deterministic) + "\n" for r in reports
        )
    print(f"{len(reports)} checks, {failed} failed", file=sys.stderr)
    return payload, (1 if failed else 0)


def _cmd_objects(args: argparse.Namespace) -> tuple[str, int]:
    n, k, s, model, objects = args.n, args.k, args.s, args.model, args.command
    if args.format == "svg":
        svg = paths_svg if objects == "paths" else tilings_svg
        return svg(n, k, s, model) + "\n", 0
    rows = enum_objects(n, k, s, model, objects)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["steps", "weight", "sign"])
        for obj, weight, sign in rows:
            writer.writerow([obj, ",".join(map(str, weight)), sign])
        return buf.getvalue(), 0
    total = MPoly(n, {weight: sign for _, weight, sign in rows})  # the weight_sum
    if args.format == "text":
        lines = [describe_line(obj, weight, sign, model) for obj, weight, sign in rows]
        lines.append(f"count={len(rows)}")
        lines.append(f"weight_sum={total}")
        return "\n".join(lines) + "\n", 0
    items = []
    for obj, weight, sign in rows:
        row: dict = {"steps": obj, "weight": list(weight)}
        if model == "H":
            row["sign"] = sign
        items.append(row)
    payload = {
        "objects": objects,
        "n": n,
        "k": k,
        "s": s,
        "model": model,
        "count": len(rows),
        "items": items,
        "weight_sum": total.to_json(),
    }
    return _json_line(payload) + "\n", 0


def _bisnomial_json_value(value) -> object:
    if isinstance(value, int):
        return str(value)
    return value.to_json()


def _cmd_bisnomial(args: argparse.Namespace) -> tuple[str, int]:
    n, k, s, flavor = args.n, args.k, args.s, args.flavor
    triangle = {"plain": bisnomial, "q": q_bisnomial, "pq": pq_bisnomial}[flavor]
    if args.table:
        cells = [(m, kk, triangle(m, kk, s)) for m in range(n + 1) for kk in range(s * m + 1)]
        if args.format == "text":
            if flavor == "plain":
                rows = groupby(cells, itemgetter(0))  # the cells run row by row
                lines = [" ".join(str(value) for _, _, value in row) for _, row in rows]
            else:
                lines = [f"[{m},{kk}] {value}" for m, kk, value in cells]
            return "\n".join(lines) + "\n", 0
        if args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["n", "k", "value"])
            for m, kk, value in cells:
                writer.writerow([m, kk, value])
            return buf.getvalue(), 0
        payload = {  # json, the one format left
            "flavor": flavor,
            "s": s,
            "rows": [
                {"n": m, "k": kk, "value": _bisnomial_json_value(value)}
                for m, kk, value in cells
            ],
        }
        return _json_line(payload) + "\n", 0
    if k is None:
        raise ValueError("bisnomial needs --k (or --table)")
    value = triangle(n, k, s)
    if args.format == "text":
        return f"{value}\n", 0
    if args.format == "json":
        payload = {
            "flavor": flavor,
            "n": n,
            "k": k,
            "s": s,
            "value": _bisnomial_json_value(value),
        }
        return _json_line(payload) + "\n", 0
    raise ValueError("bisnomial values support --format text or json")


def _cmd_schur(args: argparse.Namespace) -> tuple[str, int]:
    lam = parse_partition(args.lam)
    s, n = args.s, args.n
    h_poly = schur_det(lam, s, n, "h") if len(lam) <= n else None
    e_poly = schur_det(lam, s, n, "e") if (lam[0] if lam else 0) <= n else None
    equal = (h_poly == e_poly) if h_poly is not None and e_poly is not None else None
    if args.format == "text":
        lines = [
            f"H-basis: {h_poly if h_poly is not None else 'undefined (more parts than n)'}",
            f"E-basis: {e_poly if e_poly is not None else 'undefined (largest part exceeds n)'}",
            f"equal: {'undefined' if equal is None else str(equal).lower()}",
        ]
        return "\n".join(lines) + "\n", 0
    payload = {  # the parser allows text or json only
        "lam": list(lam),
        "s": s,
        "n": n,
        "h_basis": h_poly.to_json() if h_poly is not None else None,
        "e_basis": e_poly.to_json() if e_poly is not None else None,
        "equal": equal,
    }
    return _json_line(payload) + "\n", 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncsym",
        description="Exact truncated symmetric functions: expansion, verification, models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: list[str], default: str = "text") -> None:
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", help="write the payload to this file instead of stdout")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress timing output so runs are byte-identical",
        )

    p = sub.add_parser("expand", help="print one polynomial")
    p.add_argument("--kind", required=True, choices=["m", "e", "h", "p", "E", "H", "P"])
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", help="partition, e.g. '2,1,1' or '1^2 2^1'")
    common(p, ["text", "json"])
    p.set_defaults(handler="_cmd_expand")

    p = sub.add_parser("verify", help="run identity checks over parameter grids")
    p.add_argument("--id", required=True, help="identity name such as ortho or conversion:pq, 'all' or 'conversions'")
    p.add_argument("--n", help="range like 1..4")
    p.add_argument("--k", help="range like 0..8")
    p.add_argument("--s", help="range like 1..4")
    common(p, ["json", "text"], default="json")
    p.set_defaults(handler="_cmd_verify")

    for name in ("paths", "tilings"):
        p = sub.add_parser(name, help=f"enumerate admissible {name}")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--model", required=True, choices=["E", "H"])
        common(p, ["text", "json", "svg", "csv"])
        p.set_defaults(handler="_cmd_objects")

    p = sub.add_parser("bisnomial", help="triangle values and tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--flavor", choices=["plain", "q", "pq"], default="plain")
    p.add_argument("--table", action="store_true", help="emit rows 0..n instead of one value")
    common(p, ["text", "json", "csv"])
    p.set_defaults(handler="_cmd_bisnomial")

    p = sub.add_parser("schur", help="both determinantal forms of the truncated Schur function")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, ["text", "json"])
    p.set_defaults(handler="_cmd_schur")

    return parser


_PARSER = _build_parser()  # configuration, built once; it names each handler, looked up per run


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        payload, code = globals()[args.handler](args)
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    if not args.deterministic:
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
