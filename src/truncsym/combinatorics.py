"""Lattice-path and board-tiling models for the truncated families.

A path is a string over 'E'/'N' from (0,0) to (k, n-1): k East steps, n-1
North steps.  East steps at height m (m North steps taken so far) carry
the variable x_(m+1), so a path contributes the product of its East-step
variables.  A path is therefore fixed by its run vector (r_1, ..., r_n),
the number of East steps at each height, and its weight is that vector.
Admissibility looks at the runs:

* E model: every run has length <= s; the weights sum to E(k, s, n).
* H model: every run length is 0 or 1 mod (s+1); weights signed by
  (-1)^(k + sum of run lengths mod (s+1)) sum to H(k, s, n).

A tiling is a string over 'r'/'g' (red/green cells) of a 1 x (k+n-1)
board with k red and n-1 green cells; a red cell preceded by m green
cells carries x_(m+1).  Reading East as red and North as green is the
weight- and sign-preserving bijection between the two models.

The admissible run vectors are the exponent vectors of E's or H's monomials:
the distinct arrangements in n slots of the partitions of k with parts <= s
(E model) or with parts = 0 or 1 mod (s+1) (H model).  ``enum_objects``, the
one enumeration that ``weight_sum`` and every listing (SVG included) read,
lists those partitions and sorts their orbits once.  Listings are
lexicographic on the step strings ('E' < 'N', 'g' < 'r'), so every listing
and rendering is deterministic; as 'g' < 'r' reverses the alphabet order of
'E' < 'N', the tilings come in the reverse order of their paths.
"""

from __future__ import annotations

from typing import Iterator

from .multipoly import _BLOCK, MPoly, _monomial_text
from .partitions import distinct_orbit, enum_partitions

Path = str
Tiling = str


def _run_vectors(n: int, k: int, s: int, model: str) -> list[tuple[int, ...]]:
    """Admissible run vectors summing to k, descending lexicographic (the path order)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if model not in ("E", "H"):
        raise ValueError(f"model must be 'E' or 'H', got {model!r}")
    bound = {"max_part": s} if model == "E" else {"mod01": s + 1}
    lams = enum_partitions(k, max_length=n, **bound)
    return sorted((runs for lam in lams for runs in distinct_orbit(lam, n)), reverse=True)


def _sign(runs: tuple[int, ...], s: int) -> int:
    step = s + 1
    return -1 if sum(r + r % step for r in runs) % 2 else 1


def _validate_path(path: Path) -> None:
    if set(path) - {"E", "N"}:
        raise ValueError(f"path may only contain 'E' and 'N': {path!r}")


def _path_runs(path: Path) -> tuple[int, ...]:
    _validate_path(path)
    return tuple(map(len, path.split("N")))


def enum_objects(
    n: int, k: int, s: int, model: str, objects: str = "paths"
) -> list[tuple[str, tuple[int, ...], int]]:
    """(object, weight, sign) of every admissible path or tiling, in listing order.

    The one enumeration behind every listing; the sign is +1 in the E model.
    """
    if objects not in ("paths", "tilings"):
        raise ValueError(f"objects must be 'paths' or 'tilings', got {objects!r}")
    vectors = _run_vectors(n, k, s, model)
    east, north = "EN" if objects == "paths" else "rg"
    if objects == "tilings":
        vectors.reverse()
    return [(north.join([east * r for r in runs]), runs, _sign(runs, s) if model == "H" else 1) for runs in vectors]


def enum_paths(n: int, k: int, s: int, model: str) -> list[Path]:
    """Admissible paths to (k, n-1), lexicographic ('E' < 'N')."""
    return [obj for obj, _, _ in enum_objects(n, k, s, model)]


def enum_tilings(n: int, k: int, s: int, model: str) -> list[Tiling]:
    """Admissible tilings of the 1 x (k+n-1) board, lexicographic ('g' < 'r')."""
    return [obj for obj, _, _ in enum_objects(n, k, s, model, "tilings")]


def path_weight(path: Path, n: int) -> tuple[int, ...]:
    """Exponent vector of the path's variable product: its run vector."""
    runs = _path_runs(path)
    if len(runs) != n:
        raise ValueError(f"path has {len(runs) - 1} North steps, expected {n - 1}")
    return runs


def path_sign(path: Path, s: int) -> int:
    """(-1)^(k + sum of East-run lengths reduced mod (s+1)); +1 when s is odd."""
    runs = _path_runs(path)
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return _sign(runs, s)


def path_to_tiling(path: Path) -> Tiling:
    """East -> red, North -> green, position by position."""
    _validate_path(path)
    return path.replace("E", "r").replace("N", "g")


def tiling_to_path(tiling: Tiling) -> Path:
    """Red -> East, green -> North; inverse of path_to_tiling."""
    if set(tiling) - {"r", "g"}:
        raise ValueError(f"tiling may only contain 'r' and 'g': {tiling!r}")
    return tiling.replace("r", "E").replace("g", "N")


def tiling_weight(tiling: Tiling, n: int) -> tuple[int, ...]:
    """Exponent vector: a red cell after m green cells contributes x_(m+1)."""
    return path_weight(tiling_to_path(tiling), n)


def tiling_sign(tiling: Tiling, s: int) -> int:
    """Same sign rule as paths, on maximal red runs."""
    return path_sign(tiling_to_path(tiling), s)


def weight_sum(n: int, k: int, s: int, model: str) -> MPoly:
    """Signed weight generating polynomial of the admissible objects.

    The E model sums weights; the H model attaches the run sign.  The
    result matches E(k, s, n) or H(k, s, n) monomial by monomial.  Paths
    and tilings have the same weights, and distinct run vectors are
    distinct monomials, so each object gives one term.
    """
    return MPoly(n, {weight: sign for _, weight, sign in enum_objects(n, k, s, model)})


def describe_line(obj: str, weight: tuple[int, ...], sign: int, model: str) -> str:
    """One text line: the object, its weight monomial and (H model) its sign."""
    line = f"{obj} weight={_monomial_text(weight) or '1'}"
    if model == "H":
        return f"{line} sign={'+1' if sign > 0 else '-1'}"
    return line


# -- SVG rendering -------------------------------------------------------------

_CELL = 24
_PAD = 14
_PER_ROW = 4


def _path_panel(path: Path, ox: int, oy: int, cols: int, rows: int) -> str:
    """The path on a cols x rows grid from (ox, oy), its steps below the grid."""
    ends = [(x, oy, x, oy + rows * _CELL) for x in range(ox, ox + (cols + 1) * _CELL, _CELL)]  # the verticals,
    ends += [(ox, y, ox + cols * _CELL, y) for y in range(oy, oy + (rows + 1) * _CELL, _CELL)]  # then the horizontals
    parts = [f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#cccccc" stroke-width="1"/>'
             for x1, y1, x2, y2 in ends]
    px, py = ox, oy + rows * _CELL
    points = [f"{px},{py}"]
    for step in path:
        if step == "E":
            px += _CELL
        else:
            py -= _CELL
        points.append(f"{px},{py}")
    parts.append(
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="#c0392b" stroke-width="3"/>'
    )
    label_y = oy + rows * _CELL + 14
    parts.append(
        f'<text x="{ox}" y="{label_y}" font-family="monospace" font-size="12">'
        f"{path}</text>"
    )
    return "".join(parts)


def _tiling_panel(tiling: Tiling, ox: int, oy: int, cols: int, rows: int) -> str:
    """The tiling as red and green cells of a cols-cell board from (ox, oy), its letters right of the board."""
    parts = []
    for pos, cell in enumerate(tiling):
        fill = "#c0392b" if cell == "r" else "#27ae60"
        parts.append(
            f'<rect x="{ox + pos * _CELL}" y="{oy}" width="{_CELL}" height="{_CELL}" '
            f'fill="{fill}" stroke="#333333" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{ox + cols * _CELL + 4}" y="{oy + _CELL - 7}" '
        f'font-family="monospace" font-size="12">{tiling}</text>'
    )
    return "".join(parts)


def _svg_chunks(objects: list[str], n: int, k: int, kind: str) -> Iterator[str]:
    """An SVG document of the listed paths or tilings: its head, the panels a block at a time, then the close.

    A panel is a padded grid of cols x rows cells with room for its label: paths
    on a k x (n-1) grid four a row, labelled below; tilings one a row, labelled right.
    """
    if kind == "paths":
        panel, per_row, cols, rows, label_w, label_h = _path_panel, _PER_ROW, max(k, 1), max(n - 1, 1), 0, 16
    else:
        panel, per_row, cols, rows, label_w, label_h = _tiling_panel, 1, max(k + n - 1, 1), 1, 110, 0
    panel_w, panel_h = cols * _CELL + 2 * _PAD + label_w, rows * _CELL + 2 * _PAD + label_h
    count = max(len(objects), 1)
    per_row = min(per_row, count)
    total_w, total_h = per_row * panel_w, (count + per_row - 1) // per_row * panel_h
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" viewBox="0 0 {total_w} {total_h}">'
    )
    for start in range(0, len(objects), _BLOCK):
        yield "".join(
            panel(obj, idx % per_row * panel_w + _PAD, idx // per_row * panel_h + _PAD, cols, rows)
            for idx, obj in enumerate(objects[start:start + _BLOCK], start)
        )
    yield "</svg>\n"
