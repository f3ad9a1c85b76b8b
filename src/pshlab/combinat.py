"""Partitions, Young diagrams, tableaux and tabloids.

Partitions are plain tuples of weakly decreasing positive ints.  Diagram
nodes are 1-based pairs (i, j).  A tabloid is keyed by the row of each
entry, so orbit equality is structural equality.  ``_mover`` is the one
way a permutation moves a tabloid key: it indexes the key once per entry,
with no sorting.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

__all__ = ["parse_partition", "format_partition", "partitions", "conjugate",
           "dominates", "addable_nodes", "removable_nodes",
           "add_node", "remove_node", "Tableau", "Tabloid",
           "standard_tableaux", "all_tableaux", "all_tabloids",
           "combinatorial_lemma_check", "tabloid_m_counts"]


class PartitionParseError(ValueError):
    """Malformed partition text; carries the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "(4,2^2,1)" style text, expanding exponent notation.

    Grammar: "(" item ("," item)* ")" with item = int or int "^" int.
    The result must be weakly decreasing with all parts >= 1; "()" is the
    empty partition of 0.
    """
    s = text.strip()
    off = len(text) - len(text.lstrip())
    if not s.startswith("("):
        raise PartitionParseError("expected '('", off)
    if not s.endswith(")"):
        raise PartitionParseError("expected ')'", off + len(s))
    body = s[1:-1].strip()
    parts: list[int] = []
    if body:
        pos = off + 1
        for item in s[1:-1].split(","):
            stripped = item.strip()
            here = pos + item.index(stripped) if stripped else pos
            base, _, exp = stripped.partition("^")
            try:
                part = int(base)
                count = int(exp) if exp else 1
            except ValueError:
                raise PartitionParseError(f"bad item {stripped!r}", here)
            if part < 1:
                raise PartitionParseError(f"part {part} < 1", here)
            if count < 1:
                raise PartitionParseError(f"exponent {count} < 1", here)
            parts.extend([part] * count)
            pos += len(item) + 1
        for k in range(len(parts) - 1):
            if parts[k] < parts[k + 1]:
                raise PartitionParseError(
                    f"parts not weakly decreasing: {parts[k]} < {parts[k+1]}",
                    off)
    return tuple(parts)


def format_partition(parts) -> str:
    """Inverse of parse_partition, using exponent notation."""
    items = []
    for part, group in itertools.groupby(parts):
        k = len(list(group))
        items.append(f"{part}^{k}" if k > 1 else str(part))
    return "(" + ",".join(items) + ")"


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in lex-descending order."""
    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest
    return tuple(gen(n, n))


def conjugate(parts) -> tuple[int, ...]:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j)
                 for j in range(1, parts[0] + 1))


def dominates(lam, mu) -> bool:
    """Partial-sum dominance; both must be partitions of the same n."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance needs equal partition sizes")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def addable_nodes(parts) -> set[tuple[int, int]]:
    nodes = {(len(parts) + 1, 1)}
    for i, p in enumerate(parts):
        if i == 0 or parts[i - 1] > p:
            nodes.add((i + 1, p + 1))
    return nodes


def removable_nodes(parts) -> set[tuple[int, int]]:
    nodes = set()
    for i, p in enumerate(parts):
        if i == len(parts) - 1 or parts[i + 1] < p:
            nodes.add((i + 1, p))
    return nodes


def add_node(parts, node) -> tuple[int, ...]:
    i, j = node
    if node not in addable_nodes(parts):
        raise ValueError(f"{node} is not addable to {parts}")
    out = list(parts) + [0] * (i - len(parts))
    out[i - 1] += 1
    return tuple(out)


def remove_node(parts, node) -> tuple[int, ...]:
    i, j = node
    if node not in removable_nodes(parts):
        raise ValueError(f"{node} is not removable from {parts}")
    out = list(parts)
    out[i - 1] -= 1
    if out[-1] == 0:
        out.pop()
    return tuple(out)


class Tableau:
    """A filling of the diagram of `shape` by 1..n, one number per node."""

    __slots__ = ("shape", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        shape = tuple(len(r) for r in rows)
        entries = [x for r in rows for x in r]
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError("tableau entries must be a bijection to 1..n")
        for k in range(len(shape) - 1):
            if shape[k] < shape[k + 1]:
                raise ValueError("row lengths must weakly decrease")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Tableau is immutable")

    @property
    def n(self) -> int:
        return sum(self.shape)

    def columns(self):
        width = self.shape[0] if self.shape else 0
        return [tuple(r[j] for r in self.rows if len(r) > j)
                for j in range(width)]

    def column_of(self) -> dict:
        """Map entry -> 1-based column index."""
        return {x: j + 1 for r in self.rows for j, x in enumerate(r)}

    def tabloid(self) -> "Tabloid":
        key = [0] * self.n
        for i, r in enumerate(self.rows):
            for x in r:
                key[x - 1] = i
        return Tabloid(key)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"


def _mover(inverse):
    """The map moving a tabloid key by the permutation whose inverse, on
    0-based points, is given: key[inverse[y]] lands at y."""
    if len(inverse) > 1:
        return operator.itemgetter(*inverse)
    return tuple  # Sym(0) and Sym(1) move nothing


class Tabloid:
    """Row-equivalence class of a tableau, keyed by the row of each entry:
    key[x - 1] is the 0-based row that holds x.  Two fillings with the
    same row contents give the same key, and moving a tabloid by a
    permutation indexes the key once per entry without sorting."""

    __slots__ = ("shape", "key")

    def __init__(self, key):
        key = tuple(key)
        shape = tuple(map(key.count, range(max(key, default=-1) + 1)))
        if any(a < b for a, b in zip(shape, shape[1:])):
            raise ValueError(f"row sizes {shape} are not a partition")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "key", key)

    def __setattr__(self, *a):
        raise AttributeError("Tabloid is immutable")

    @property
    def rows(self) -> tuple:
        """The rows as ascending tuples of entries."""
        return tuple(tuple(x for x, r in enumerate(self.key, 1) if r == i)
                     for i in range(len(self.shape)))

    def apply(self, images) -> "Tabloid":
        """The tabloid with every entry x moved to images[x-1].  No pshlab
        code calls it; perfbench's traced run counts it by name."""
        inverse = sorted(range(len(images)), key=images.__getitem__)
        return Tabloid(_mover(inverse)(self.key))

    def __eq__(self, other):
        return isinstance(other, Tabloid) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Tabloid({[list(r) for r in self.rows]})"


def all_tabloids(shape) -> list[Tabloid]:
    """Every tabloid of the given shape, in a fixed deterministic order."""
    n = sum(shape)
    key = [0] * n
    out = []

    def rec(remaining, i):
        if i == len(shape):
            out.append(Tabloid(key))
            return
        for combo in itertools.combinations(remaining, shape[i]):
            for x in combo:
                key[x - 1] = i
            rec([x for x in remaining if x not in combo], i + 1)
    rec(list(range(1, n + 1)), 0)
    return out


def all_tableaux(shape) -> list[Tableau]:
    """Every filling of the shape, one per permutation of 1..n.  Only the
    row-reading filling goes through the checks of Tableau(); the others
    are its rows' slices of a permutation, valid by construction."""
    cuts = [slice(a, b) for a, b in
            itertools.pairwise(itertools.accumulate(shape, initial=0))]
    first = Tableau(range(c.start + 1, c.stop + 1) for c in cuts)
    out = []
    for perm in itertools.permutations(range(1, first.n + 1)):
        t = object.__new__(Tableau)
        object.__setattr__(t, "shape", first.shape)
        object.__setattr__(t, "rows", tuple(map(perm.__getitem__, cuts)))
        out.append(t)
    return out


def standard_tableaux(shape) -> list[Tableau]:
    """All standard tableaux of the shape, by backtracking on entries."""
    n = sum(shape)
    rows = [list(r) for r in
            [[0] * p for p in shape]]
    out = []

    def place(x):
        if x > n:
            out.append(Tableau([tuple(r) for r in rows]))
            return
        for i, p in enumerate(shape):
            j = next((j for j in range(p) if rows[i][j] == 0), None)
            if j is None:
                continue
            if j > 0 and rows[i][j - 1] == 0:
                continue
            if i > 0 and (len(rows[i - 1]) <= j or rows[i - 1][j] == 0):
                continue
            rows[i][j] = x
            place(x + 1)
            rows[i][j] = 0
    place(1)
    return out


def combinatorial_lemma_check(column_of: dict, t2: Tableau) -> bool:
    """Whether every row of t2 has its entries in pairwise distinct
    columns of t1, given column_of = t1.column_of(), built once per t1."""
    for row in t2.rows:
        if len({column_of[x] for x in row}) != len(row):
            return False
    return True


def tabloid_m_counts(t: Tabloid) -> tuple:
    """The m-count vector: for i = 1..n and then r = 1..k (k rows), how
    many of 1..i sit in rows 1..r of the tabloid."""
    per_row = [0] * len(t.shape)
    out = []
    for r in t.key:
        per_row[r] += 1
        out.extend(itertools.accumulate(per_row))
    return tuple(out)
