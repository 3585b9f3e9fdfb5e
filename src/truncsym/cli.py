"""Command line front end.

Verbs: ``expand`` (print one symmetric polynomial), ``verify`` (sweep
identity checks, JSONL reports), ``paths`` / ``tilings`` (enumerate the
combinatorial models), ``bisnomial`` (triangle values and tables) and
``schur`` (the two determinantal forms side by side).

stdout carries only the payload and is byte-stable for fixed inputs;
timing goes to stderr and is silenced by ``--deterministic``.  Each
handler yields its payload in chunks (a table row, a block of listed
objects, a report line) and returns the exit code; ``run`` writes each
chunk to stdout or to ``--out``, opened at the first chunk.  Exit code
0 on success, 1 when a verification found a failing identity, 2 on bad
arguments, a sweep with no valid point, an ``--out`` that cannot be
written or a stdout closed by its reader.  An error before the first
chunk writes nothing and creates no file; one after it (out of memory,
a closed pipe) leaves the chunks already written in place.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from contextlib import ExitStack
from itertools import chain
from typing import Iterable, Iterator, Optional

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


def _json_line(payload) -> str:
    return json.dumps(payload, separators=(", ", ": "))


def _joined(pieces: Iterable[str], sep: str) -> Iterator[str]:
    """sep.join(pieces), one piece at a time."""
    for i, piece in enumerate(pieces):
        yield sep + piece if i else piece


def _text_stream(blocks: Iterable[list[str]]) -> Iterator[str]:
    """'\\n'.join(every line) + '\\n', a block of lines at a time."""
    yield from _joined(("\n".join(block) for block in blocks), "\n")
    yield "\n"


def _csv_stream(header: list[str], blocks: Iterable[list]) -> Iterator[str]:
    """The header and each block of rows as csv (CRLF line ends), one writer drained per block."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for block in chain([[header]], blocks):
        writer.writerows(block)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _json_stream(head: dict, key: str, blocks: Iterable[list], tail: Optional[dict] = None) -> Iterator[str]:
    """The JSON line of head, then key: every item, then tail: one json.dumps per block of items."""
    yield f'{_json_line(head)[:-1]}, "{key}": ['
    yield from _joined((_json_line(block)[1:-1] for block in blocks), ", ")
    yield "]" + (", " + _json_line(tail)[1:] if tail else "}") + "\n"


# -- verb handlers: each yields its payload in chunks and returns the exit code --


def _cmd_expand(args: argparse.Namespace) -> Iterator[str]:
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
    # the parser allows text or json only
    yield f"{poly}\n" if args.format == "text" else _json_line({**meta, "poly": poly.to_json()}) + "\n"
    return 0


def _cmd_verify(args: argparse.Namespace) -> Iterator[str]:
    names = list_identities()
    conversions = [name for name in names if name.startswith("conversion:")]
    targets = {"all": names, "conversions": conversions}.get(args.id, [args.id])
    checks, failed, empty = 0, 0, None
    for name in targets:
        grid = default_grid(name)
        for axis in ("n", "k", "s"):
            value = getattr(args, axis)
            if value is not None and axis in grid:
                grid[axis] = parse_range(value)
        try:
            reports = verify_grid(name, grid)
        except ValueError as exc:  # the grid has every axis, so this id has no valid point
            empty = empty or exc  # an error only if no id has one
            continue
        for r in reports:
            checks, failed = checks + 1, failed + (not r.holds)
            if args.format == "text":
                params = " ".join(f"{key}={r.params[key]}" for key in sorted(r.params))
                yield f"{'PASS' if r.holds else 'FAIL'} {r.identity_id} {params}\n"
            else:
                yield r.to_json(include_elapsed=not args.deterministic) + "\n"
    if not checks:
        raise empty
    if args.format == "text":
        yield f"total={checks} failed={failed}\n"
    print(f"{checks} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_objects(args: argparse.Namespace) -> Iterator[str]:
    n, k, s, model, objects = args.n, args.k, args.s, args.model, args.command
    if args.format == "svg":
        yield (paths_svg if objects == "paths" else tilings_svg)(n, k, s, model) + "\n"
        return 0
    rows = enum_objects(n, k, s, model, objects)
    blocks = [rows[i:i + 256] for i in range(0, len(rows), 256)]  # 256 paths or tilings a chunk
    if args.format == "csv":
        yield from _csv_stream(["steps", "weight", "sign"], (
            [[obj, ",".join(map(str, weight)), sign] for obj, weight, sign in block] for block in blocks
        ))
        return 0
    total = MPoly(n, {weight: sign for _, weight, sign in rows})  # the weight_sum
    if args.format == "text":
        lines = ([describe_line(obj, weight, sign, model) for obj, weight, sign in block] for block in blocks)
        yield from _text_stream(chain(lines, [[f"count={len(rows)}", f"weight_sum={total}"]]))
        return 0
    keys = ("steps", "weight", "sign") if model == "H" else ("steps", "weight")  # an E sign is always +1
    items = ([dict(zip(keys, (obj, list(weight), sign))) for obj, weight, sign in block] for block in blocks)
    head = {"objects": objects, "n": n, "k": k, "s": s, "model": model, "count": len(rows)}
    yield from _json_stream(head, "items", items, {"weight_sum": total.to_json()})
    return 0


def _bisnomial_json_value(value) -> object:
    return str(value) if isinstance(value, int) else value.to_json()


def _cmd_bisnomial(args: argparse.Namespace) -> Iterator[str]:
    n, k, s, flavor = args.n, args.k, args.s, args.flavor
    triangle = {"plain": bisnomial, "q": q_bisnomial, "pq": pq_bisnomial}[flavor]
    if args.table:
        if n >= 0:  # the first cell refuses a bad s before the first chunk goes out
            triangle(0, 0, s)
        rows = ([(m, kk, triangle(m, kk, s)) for kk in range(s * m + 1)] for m in range(n + 1))
        if args.format == "text":
            if flavor == "plain":
                yield from _text_stream([" ".join(str(value) for _, _, value in row)] for row in rows)
            else:
                yield from _text_stream([f"[{m},{kk}] {value}" for m, kk, value in row] for row in rows)
        elif args.format == "csv":
            yield from _csv_stream(["n", "k", "value"], rows)
        else:  # json, the one format left
            yield from _json_stream({"flavor": flavor, "s": s}, "rows", (
                [{"n": m, "k": kk, "value": _bisnomial_json_value(value)} for m, kk, value in row]
                for row in rows
            ))
        return 0
    if k is None:
        raise ValueError("bisnomial needs --k (or --table)")
    value = triangle(n, k, s)
    if args.format == "text":
        yield f"{value}\n"
    elif args.format == "json":
        payload = {"flavor": flavor, "n": n, "k": k, "s": s, "value": _bisnomial_json_value(value)}
        yield _json_line(payload) + "\n"
    else:
        raise ValueError("bisnomial values support --format text or json")
    return 0


def _cmd_schur(args: argparse.Namespace) -> Iterator[str]:
    lam = parse_partition(args.lam)
    s, n = args.s, args.n
    h_poly = schur_det(lam, s, n, "h") if len(lam) <= n else None
    e_poly = schur_det(lam, s, n, "e") if (lam[0] if lam else 0) <= n else None
    equal = (h_poly == e_poly) if h_poly is not None and e_poly is not None else None
    if args.format == "text":
        yield (
            f"H-basis: {h_poly if h_poly is not None else 'undefined (more parts than n)'}\n"
            f"E-basis: {e_poly if e_poly is not None else 'undefined (largest part exceeds n)'}\n"
            f"equal: {'undefined' if equal is None else str(equal).lower()}\n"
        )
    else:  # the parser allows text or json only
        h_json, e_json = (None if poly is None else poly.to_json() for poly in (h_poly, e_poly))
        payload = {"lam": list(lam), "s": s, "n": n, "h_basis": h_json, "e_basis": e_json, "equal": equal}
        yield _json_line(payload) + "\n"
    return 0


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
        for axis in ("--n", "--k", "--s"):
            p.add_argument(axis, type=int, required=True)
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


def _write(chunks: Iterator[str], out: Optional[str]) -> int:
    """Send each chunk to stdout, or to the file out opened at the first chunk; the handler's exit code."""
    with ExitStack() as stack:
        sink = None
        while True:
            try:
                chunk = next(chunks)
            except StopIteration as stop:
                sys.stdout.flush()  # a reader gone before the end shows here, not at exit
                return stop.value
            if sink is None:
                sink = stack.enter_context(open(out, "w", encoding="utf-8", newline="")) if out else sys.stdout
            sink.write(chunk)


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        code = _write(globals()[args.handler](args), args.out)
    except (ValueError, KeyError, ArithmeticError, OSError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:  # the reader left: flush the rest nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    if not args.deterministic:
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
