"""Command line front end.

Verbs: ``expand`` (print one symmetric polynomial), ``verify`` (sweep
identity checks, JSONL reports), ``paths`` / ``tilings`` (enumerate the
combinatorial models), ``bisnomial`` (triangle values and tables) and
``schur`` (the two determinantal forms side by side).

stdout carries only the payload and is byte-stable for fixed inputs;
timing goes to stderr and is silenced by ``--deterministic``.  Each
handler yields its payload in chunks (a table row, a block of listed
objects, of a value's terms or of report lines) and returns the exit code;
a value is sorted before its first chunk.  ``run`` writes each
chunk to stdout or to ``--out``, opened at the first chunk.  Exit code
0 on success, 1 when a verification found a failing identity, 2 on bad
arguments, a sweep with no valid point, a point whose values the package
cannot build, an ``--out`` that cannot be written or a stdout closed by
its reader.  An error before the first chunk writes nothing and creates
no file; one after it (out of memory, a closed pipe) leaves the chunks
already written in place.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from itertools import chain
from typing import Iterable, Iterator, Optional

from .bisnomial import _table_rows, bisnomial, pq_bisnomial, q_bisnomial
from .combinatorics import _svg_chunks, describe_line, enum_objects
from .exactalg import UniPoly
from .identities import NoValidPoint, default_grid, list_identities, verify_grid
from .multipoly import _BLOCK, MPoly, _json_chunks
from .partitions import is_partition
from .symfun import E, H, P, classical, m_lambda, schur_det


def parse_partition(text: str) -> tuple[int, ...]:
    """Accepts '3,1,1' or multiplicity form '1^2 3^1'; '' is the empty one."""
    text = text.strip()
    parts: list[int] = []
    if "^" in text:
        for token in text.split():
            base, _, mult = token.partition("^")
            if (count := int(mult or "1")) < 0:
                raise ValueError(f"negative multiplicity in {token!r}")
            parts.extend([int(base)] * count)
    else:
        parts = [int(tok) for tok in text.split(",") if tok.strip()]
    lam = tuple(sorted(parts, reverse=True))
    if not is_partition(lam):
        raise ValueError(f"not a partition: {text!r}")
    return lam


def parse_range(text: str) -> list[int]:
    """'3' -> [3]; '0..8' -> [0, 1, ..., 8] (inclusive)."""
    lo, dots, hi = text.partition("..")
    lo_i, hi_i = int(lo), int(hi if dots else lo)
    if hi_i < lo_i:
        raise ValueError(f"empty range: {text!r}")
    return list(range(lo_i, hi_i + 1))


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


def _csv_field(field) -> str:
    """A field as csv.writer's default dialect writes it: quoted, inner quotes doubled, if it holds , " CR or LF."""
    text = str(field)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_stream(header: list[str], blocks: Iterable[list]) -> Iterator[str]:
    """The header and each block of rows (two or more fields each) as csv with CRLF line ends, a block at a time."""
    for block in chain([[header]], blocks):
        yield "".join(",".join(map(_csv_field, row)) + "\r\n" for row in block)


def _json_stream(head: dict, key: str, blocks: Iterable[str], tail: Iterable[str] = ("]}\n",)) -> Iterator[str]:
    """The JSON line of head, then key: every item (a block is its items' JSON, joined), then the closing chunks."""
    yield f'{_json_line(head)[:-1]}, "{key}": ['
    yield from _joined(blocks, ", ")
    yield from tail


def _value_json(value) -> str:
    """The JSON text of a triangle value: an int as a string, q coefficients as strings, pq terms as [i, j, "c"]."""
    if isinstance(value, int):
        return f'"{value}"'
    if isinstance(value, UniPoly):
        return '["' + '", "'.join(map(str, value.coeffs)) + '"]' if value else "[]"
    return "[" + ", ".join(f'[{i}, {j}, "{c}"]' for i, j, c in value.to_json()) + "]"


# -- verb handlers: each yields its payload in chunks and returns the exit code --


def _cmd_expand(args: argparse.Namespace) -> Iterator[str]:
    kind = args.kind
    axes = ("lam", "n") if kind == "m" else ("k", "n") if kind in ("e", "h", "p") else ("k", "s", "n")
    if any(getattr(args, axis) is None for axis in axes):
        flags = ["--lambda" if axis == "lam" else f"--{axis}" for axis in axes]
        raise ValueError(f"kind {kind} needs {', '.join(flags[:-1])} and {flags[-1]}")
    meta: dict = {"kind": kind, **{axis: getattr(args, axis) for axis in axes}}
    if kind == "m":
        meta["lam"] = list(lam := parse_partition(args.lam))
        poly = m_lambda(lam, args.n)
    elif kind in ("e", "h", "p"):
        poly = classical(kind, args.k, args.n)
    else:  # E, H or P: the parser allows no other kind
        poly = {"E": E, "H": H, "P": P}[kind](args.k, args.s, args.n)
    if args.format == "text":  # the parser allows text or json only
        yield f"{poly}\n"
    else:  # a block of terms at a time, all sorted before the first
        yield from _json_chunks(poly, _json_line(meta)[:-1] + ', "poly": ', "}\n")
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
        except NoValidPoint as exc:
            empty = empty or exc  # an error only if no id has a valid point
            continue
        checks, failed = checks + len(reports), failed + sum(not r.holds for r in reports)
        if args.format == "text":
            lines = [f"{'PASS' if r.holds else 'FAIL'} {r.identity_id} "
                     + " ".join(f"{key}={r.params[key]}" for key in sorted(r.params)) for r in reports]
        else:
            lines = [r.to_json(include_elapsed=not args.deterministic) for r in reports]
        yield from ("\n".join(lines[i:i + _BLOCK]) + "\n" for i in range(0, len(lines), _BLOCK))
    if not checks:
        raise empty
    if args.format == "text":
        yield f"total={checks} failed={failed}\n"
    print(f"{checks} checks, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


def _cmd_objects(args: argparse.Namespace) -> Iterator[str]:
    n, k, s, model, objects = args.n, args.k, args.s, args.model, args.command
    rows = enum_objects(n, k, s, model, objects)
    if args.format == "svg":
        yield from _svg_chunks([obj for obj, _, _ in rows], n, k, objects)
        return 0
    blocks = [rows[i:i + _BLOCK] for i in range(0, len(rows), _BLOCK)]
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
    signed = ', "sign": {}' if model == "H" else ""  # an E sign is always +1 and is left out
    items = (", ".join(  # the steps hold only E N g r, so nothing needs escaping
        f'{{"steps": "{obj}", "weight": [{", ".join(map(str, weight))}]{signed.format(sign)}}}'
        for obj, weight, sign in block
    ) for block in blocks)
    head = {"objects": objects, "n": n, "k": k, "s": s, "model": model, "count": len(rows)}
    yield from _json_stream(head, "items", items, _json_chunks(total, '], "weight_sum": ', "}\n"))
    return 0


def _cmd_bisnomial(args: argparse.Namespace) -> Iterator[str]:
    n, k, s, flavor = args.n, args.k, args.s, args.flavor
    if args.table:  # a bad n or s is refused before the first chunk goes out
        rows = ([(m, kk, value) for kk, value in enumerate(row)] for m, row in enumerate(_table_rows(flavor, n, s)))
        if args.format == "text":
            if flavor == "plain":
                yield from _text_stream([" ".join(str(value) for _, _, value in row)] for row in rows)
            else:
                yield from _text_stream([f"[{m},{kk}] {value}" for m, kk, value in row] for row in rows)
        elif args.format == "csv":
            yield from _csv_stream(["n", "k", "value"], rows)
        else:  # json, the one format left
            yield from _json_stream({"flavor": flavor, "s": s}, "rows", (
                ", ".join(f'{{"n": {m}, "k": {kk}, "value": {_value_json(value)}}}' for m, kk, value in row)
                for row in rows
            ))
        return 0
    if k is None:
        raise ValueError("bisnomial needs --k (or --table)")
    value = {"plain": bisnomial, "q": q_bisnomial, "pq": pq_bisnomial}[flavor](n, k, s)
    if args.format == "text":
        yield f"{value}\n"
    elif args.format == "json":
        yield f'{_json_line({"flavor": flavor, "n": n, "k": k, "s": s})[:-1]}, "value": {_value_json(value)}}}\n'
    else:
        raise ValueError("bisnomial values support --format text or json")
    return 0


def _cmd_schur(args: argparse.Namespace) -> Iterator[str]:
    lam, s, n = parse_partition(args.lam), args.s, args.n
    schur_det((), s, n)  # the library's checks of s and n, before a basis is called undefined
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
        h_json, e_json = (["null"] if poly is None else _json_chunks(poly) for poly in (h_poly, e_poly))  # both sorted now
        head = _json_line({"lam": list(lam), "s": s, "n": n})[:-1] + ', "h_basis": '
        yield from chain([head], h_json, [', "e_basis": '], e_json, [f', "equal": {_json_line(equal)}}}\n'])
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
