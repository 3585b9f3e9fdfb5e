"""The path and tiling models by brute force: every string, then a filter.

Test oracle only: it lists all C(k+n-1, k) arrangements of the steps (or
cells) lexicographically, keeps those whose maximal runs are admissible,
and reads weight and sign off each string.  Its cost grows with the
number of arrangements whatever the output is, and it recurses once per
letter, so keep n and k small.
"""

from truncsym.multipoly import MPoly


def _arrangements(first: str, a: int, second: str, b: int):
    """All strings with a copies of first and b of second, lexicographic."""
    if a == 0:
        yield second * b
        return
    if b == 0:
        yield first * a
        return
    for rest in _arrangements(first, a - 1, second, b):
        yield first + rest
    for rest in _arrangements(first, a, second, b - 1):
        yield second + rest


def _runs(text: str, ch: str) -> list[int]:
    """Lengths of maximal blocks of ch."""
    runs = []
    count = 0
    for c in text:
        if c == ch:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return runs


def _admissible(runs: list[int], s: int, model: str) -> bool:
    if model == "E":
        return all(r <= s for r in runs)
    return all(r % (s + 1) in (0, 1) for r in runs)


def paths(n: int, k: int, s: int, model: str) -> list[str]:
    return [p for p in _arrangements("E", k, "N", n - 1) if _admissible(_runs(p, "E"), s, model)]


def tilings(n: int, k: int, s: int, model: str) -> list[str]:
    return [t for t in _arrangements("g", n - 1, "r", k) if _admissible(_runs(t, "r"), s, model)]


def weight(path: str, n: int) -> tuple[int, ...]:
    """East steps per height of a path (or red cells per green count of a tiling)."""
    exps = [0] * n
    level = 0
    for step in path:
        if step in "Ng":
            level += 1
        else:
            exps[level] += 1
    return tuple(exps)


def sign(path: str, s: int, model: str) -> int:
    """+1 in the E model; the run sign of the H model."""
    if model == "E":
        return 1
    red = "E" if "E" in path else "r"
    k = path.count(red)
    return -1 if (k + sum(r % (s + 1) for r in _runs(path, red))) % 2 else 1


def weight_sum(n: int, k: int, s: int, model: str) -> MPoly:
    acc: dict = {}
    for p in paths(n, k, s, model):
        exps = weight(p, n)
        acc[exps] = acc.get(exps, 0) + sign(p, s, model)
    return MPoly(n, acc)
