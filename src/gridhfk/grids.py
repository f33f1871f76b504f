"""Grid diagrams for links: validation, symmetries, splicing, file I/O.

A size-n grid diagram places one X and one O in every row and every
column of an n-by-n board drawn on a torus.  Rows are indexed bottom to
top and columns left to right.  ``x_cols[r]`` is the column of the X in
row r, ``o_cols[r]`` the column of the O in row r.  Vertical strands of
the link run from an X to the O in its column, horizontal strands from
an O to the X in its row.  X cells carry the z markings of the Heegaard
diagram and O cells carry the w markings.

``simplify`` shrinks a grid by grid moves, which keep the link: it
destabilizes at any cyclic 2x2 block holding exactly three markings,
and when there is none, it searches breadth-first over cyclic
commutations, up to SEARCH_DEPTH of them, for a grid that has one.

Grid files are plain text: a size line, an ``X:`` line, an ``O:`` line,
with optional ``#`` comment lines anywhere.  Nothing else is accepted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    GridInputError,
    MarkingCollision,
    NotAPermutation,
    SizeMismatch,
    read_input,
)

CORPUS_ENV_VAR = "HFK_CORPUS"


@dataclass(frozen=True)
class GridDiagram:
    """A validated grid diagram.

    Construct through :func:`make_grid` or :func:`parse_grid` so that the
    permutation and collision checks always run.
    """

    n: int
    x_cols: tuple[int, ...]
    o_cols: tuple[int, ...]

    def __post_init__(self):
        _validate(self.n, self.x_cols, self.o_cols)


def _validate(n, x_cols, o_cols):
    if n < 2:
        raise SizeMismatch(f"grid size must be at least 2, got {n}")
    if len(x_cols) != n or len(o_cols) != n:
        raise SizeMismatch(
            f"expected {n} entries per marking sequence, "
            f"got {len(x_cols)} X and {len(o_cols)} O"
        )
    for name, seq in (("X", x_cols), ("O", o_cols)):
        if sorted(seq) != list(range(n)):
            raise NotAPermutation(f"{name} columns {seq} are not a permutation of 0..{n - 1}")
    for r in range(n):
        if x_cols[r] == o_cols[r]:
            raise MarkingCollision(f"row {r} has X and O in the same column {x_cols[r]}")


def make_grid(x_cols, o_cols):
    """Build a GridDiagram from two row-indexed column sequences."""
    x = tuple(int(c) for c in x_cols)
    o = tuple(int(c) for c in o_cols)
    return GridDiagram(len(x), x, o)


def count_components(grid):
    """Number of link components: cycles of the row map r -> o_row(x_cols[r]).

    Starting in row r, the vertical strand from the X leads to the O in
    the same column, and the horizontal strand from that O returns to an
    X.  Closed orbits of that map are the components.
    """
    o_row = {c: r for r, c in enumerate(grid.o_cols)}
    seen = [False] * grid.n
    count = 0
    for start in range(grid.n):
        if seen[start]:
            continue
        count += 1
        r = start
        while not seen[r]:
            seen[r] = True
            r = o_row[grid.x_cols[r]]
    return count


def mirror(grid):
    """Mirror image: reflect the board across a vertical axis.

    Columns reverse in both marking sequences; the rows keep their order.
    """
    n = grid.n
    return GridDiagram(
        n,
        tuple(n - 1 - c for c in grid.x_cols),
        tuple(n - 1 - c for c in grid.o_cols),
    )


def legendrian_front(grid):
    """Thurston–Bennequin and rotation numbers (tb, rot) of the grid's
    Legendrian front.

    Turned 45 degrees counter-clockwise, a grid is a front of its link
    (Ozsváth–Szabó–Thurston): vertical strands run X to O, horizontal
    strands O to X, and vertical crosses over horizontal.  The cusps are
    the markings whose two strands leave right-and-down (left cusps) or
    left-and-up (right cusps); a cusp is a down cusp when the strand
    passes it downward in the front, so at an X leaving right or at an O
    leaving left.  tb = writhe - #cusps / 2 and
    rot = (#down - #up cusps) / 2.  A grid and its mirror have
    complementary cusps and opposite writhes, so their tb sum to -n.
    """
    n = grid.n
    x, o = grid.x_cols, grid.o_cols
    x_row, o_row = _inverses(x, o)
    writhe = 0
    for c in range(n):
        lo, hi = sorted((x_row[c], o_row[c]))
        up = o_row[c] > x_row[c]
        for r in range(lo + 1, hi):
            if min(x[r], o[r]) < c < max(x[r], o[r]):
                # Vertical over horizontal: positive when one strand runs
                # up and the other left, or down and right.
                writhe += 1 if up != (x[r] > o[r]) else -1
    cusps = down = 0
    for r in range(n):
        # The X of row r, then its O: whether the marking's horizontal
        # strand leaves right, and its vertical strand leaves up.
        for right, up, is_x in ((o[r] > x[r], o_row[x[r]] > r, True),
                                (x[r] > o[r], x_row[o[r]] > r, False)):
            if right != up:
                cusps += 1
                down += right == is_x
    return writhe - cusps // 2, down - cusps // 2


def _rotate_columns(grid, shift):
    # Torus translation: column c moves to (c + shift) mod n.
    n = grid.n
    return GridDiagram(
        n,
        tuple((c + shift) % n for c in grid.x_cols),
        tuple((c + shift) % n for c in grid.o_cols),
    )


def _rotate_rows(grid, shift):
    # Torus translation: row r moves to (r + shift) mod n.
    n = grid.n
    x = [0] * n
    o = [0] * n
    for r in range(n):
        x[(r + shift) % n] = grid.x_cols[r]
        o[(r + shift) % n] = grid.o_cols[r]
    return GridDiagram(n, tuple(x), tuple(o))


def connected_sum(g1, g2):
    """Connected sum grid of size n1 + n2 - 1.

    g2's rows are placed above g1's.  After torus rotations that put the
    strand through g1's row 0 into its top row, g1's top-row O in its
    last column and g2's bottom-row X in its first column, the top O of
    g1 and the bottom X of g2 are deleted and the two affected rows and
    columns are merged, splicing the distinguished strands.
    """
    n1, n2 = g1.n, g2.n
    a = _rotate_rows(g1, n1 - 1)          # old row 0 becomes the top row
    a = _rotate_columns(a, n1 - 1 - a.o_cols[n1 - 1])
    b = _rotate_columns(g2, -g2.x_cols[0] % n2)
    assert a.o_cols[n1 - 1] == n1 - 1 and b.x_cols[0] == 0

    n = n1 + n2 - 1
    x = [0] * n
    o = [0] * n
    for r in range(n1 - 1):
        x[r] = a.x_cols[r]
        o[r] = a.o_cols[r]
    # Spliced row: keeps g1's X and g2's O.
    x[n1 - 1] = a.x_cols[n1 - 1]
    o[n1 - 1] = n1 - 1 + b.o_cols[0]
    for r in range(1, n2):
        xr = b.x_cols[r]
        oc = b.o_cols[r]
        x[n1 - 1 + r] = n1 - 1 + xr
        # g2's column 0 merges into the shared column n1 - 1.
        o[n1 - 1 + r] = n1 - 1 if oc == 0 else n1 - 1 + oc
    return GridDiagram(n, tuple(x), tuple(o))


# Commutations ``simplify`` tries in a row before it gives up on finding a
# destabilization.  Depth 4 misses knot_5_2_7#trefoil5.
SEARCH_DEPTH = 6


def _inverses(x, o):
    # Row of the X and of the O in each column.
    x_row = [0] * len(x)
    o_row = [0] * len(x)
    for r, (xc, oc) in enumerate(zip(x, o)):
        x_row[xc] = r
        o_row[oc] = r
    return x_row, o_row


def _destabilize(x, o):
    """The (x, o) of one destabilization of a grid, or None.

    A destabilization needs a cyclic 2x2 block with exactly three
    markings.  Its corner shares its row with one of the other two and
    its column with the other, so the corner's row holds an X and an O
    in adjacent columns, and only such rows are examined.  The corner's
    row and column are deleted, and the marking of the other kind in the
    empty cell's row moves into the empty cell.
    """
    n = len(x)
    if n <= 2:
        return None
    near = (1, n - 1)
    inverses = None
    for r in range(n):
        if (o[r] - x[r]) % n not in near:
            continue
        if inverses is None:
            inverses = _inverses(x, o)
        x_row, o_row = inverses
        # An X corner at (r, x[r]) with the Os of its row and column,
        # then an O corner with the Xs.
        for corner_is_x in (True, False):
            corner, other, other_row = ((x, o, o_row) if corner_is_x
                                        else (o, x, x_row))
            c, c_next = corner[r], other[r]
            r_next = other_row[c]
            # The empty cell (r_next, c_next) must hold no marking.
            if (r_next - r) % n in near and corner[r_next] != c_next:
                other = list(other)
                other[r_next] = c_next
                pair = (corner, other) if corner_is_x else (other, corner)
                return tuple(tuple(col - (col > c)
                                   for i, col in enumerate(seq) if i != r)
                             for seq in pair)
    return None


def _apart(a, b, p, q):
    # The pairs {a, b} and {p, q} share no position and do not alternate
    # around the circle.  a != b and p != q always, and callers pass
    # a != p and b != q.
    if a == q or b == p:
        return False
    if a > b:
        a, b = b, a
    return (a < p < b) == (a < q < b)


def _commutations(x, o):
    """Every grid one cyclic commutation away from (x, o).

    Rows r and r + 1 (mod n) swap, and so do columns c and c + 1, when
    the four marking positions of the pair are distinct and the two
    pairs do not interleave.
    """
    n = len(x)
    x_row, o_row = _inverses(x, o)
    for r in range(n):
        s = (r + 1) % n
        if _apart(x[r], o[r], x[s], o[s]):
            nx, no = list(x), list(o)
            nx[r], nx[s], no[r], no[s] = x[s], x[r], o[s], o[r]
            yield tuple(nx), tuple(no)
    for c in range(n):
        d = (c + 1) % n
        if _apart(x_row[c], o_row[c], x_row[d], o_row[d]):
            nx, no = list(x), list(o)
            nx[x_row[c]], nx[x_row[d]], no[o_row[c]], no[o_row[d]] = d, c, d, c
            yield tuple(nx), tuple(no)


def _search(x, o):
    """Breadth-first over commutations, up to SEARCH_DEPTH of them, for a
    grid that destabilizes; returns the destabilized (x, o) or None."""
    seen = {(x, o)}
    frontier = [(x, o)]
    for _ in range(SEARCH_DEPTH):
        level = []
        for state in frontier:
            for nxt in _commutations(*state):
                if nxt in seen:
                    continue
                seen.add(nxt)
                smaller = _destabilize(*nxt)
                if smaller is not None:
                    return smaller
                level.append(nxt)
        frontier = level
    return None


def simplify(grid):
    """A grid of the same link, as small as destabilization reaches.

    Destabilizes while a block with three markings exists; when none
    does, searches breadth-first over cyclic commutations, up to
    SEARCH_DEPTH moves, for a grid that has one, and repeats.  Grid
    moves leave every invariant computed here unchanged, and the size
    never grows.  Returns ``grid`` itself when no move applies.
    """
    x, o = grid.x_cols, grid.o_cols
    while True:
        smaller = _destabilize(x, o) or _search(x, o)
        if smaller is None:
            break
        x, o = smaller
    if len(x) == grid.n:
        return grid
    return GridDiagram(len(x), x, o)


def parse_grid(text, source="<string>"):
    """Parse the three-line grid file format."""
    data_lines = []
    # Trailing newlines are fine; blank lines inside the file are not.
    for lineno, raw in enumerate(text.rstrip("\n").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            if not line:
                raise GridInputError(f"{source}:{lineno}: blank lines are not allowed")
            continue
        data_lines.append((lineno, line))
    if len(data_lines) != 3:
        raise GridInputError(
            f"{source}: expected exactly 3 data lines (size, X, O), got {len(data_lines)}"
        )
    (ln_n, size_line), (ln_x, x_line), (ln_o, o_line) = data_lines
    try:
        n = int(size_line)
    except ValueError:
        raise GridInputError(f"{source}:{ln_n}: size line must be an integer, got {size_line!r}")
    x_cols = _parse_marking_line(x_line, "X", source, ln_x)
    o_cols = _parse_marking_line(o_line, "O", source, ln_o)
    if len(x_cols) != n or len(o_cols) != n:
        raise SizeMismatch(
            f"{source}: size line says {n} but found {len(x_cols)} X and {len(o_cols)} O columns"
        )
    return GridDiagram(n, x_cols, o_cols)


def _parse_marking_line(line, label, source, lineno):
    prefix = label + ":"
    if not line.startswith(prefix):
        raise GridInputError(f"{source}:{lineno}: expected a line starting with {prefix!r}")
    body = line[len(prefix):].split()
    try:
        return tuple(int(tok) for tok in body)
    except ValueError:
        raise GridInputError(f"{source}:{lineno}: non-integer column in {label} line")


def load_grid(path):
    """Read and validate a grid file from disk."""
    return parse_grid(read_input(path), source=str(path))


def format_grid(grid, comments=()):
    """Serialize a grid in the text file format."""
    lines = [f"# {c}" for c in comments]
    lines.append(str(grid.n))
    lines.append("X: " + " ".join(str(c) for c in grid.x_cols))
    lines.append("O: " + " ".join(str(c) for c in grid.o_cols))
    return "\n".join(lines) + "\n"


def corpus_dir():
    """Directory holding the bundled grid files; HFK_CORPUS overrides it."""
    override = os.environ.get(CORPUS_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_path(name):
    fname = name if name.endswith(".grid") else name + ".grid"
    return os.path.join(corpus_dir(), fname)


def load_corpus(name):
    """Load a bundled grid by short name, e.g. ``trefoil5``."""
    path = corpus_path(name)
    if not os.path.exists(path):
        raise GridInputError(f"no corpus grid named {name!r} (looked at {path})")
    return load_grid(path)


def list_corpus():
    d = corpus_dir()
    if not os.path.isdir(d):
        return []
    return sorted(f[:-5] for f in os.listdir(d) if f.endswith(".grid"))


def corpus_case_path(name):
    """Path of a bundled verification-case file, e.g. ``trefoil_connected_sum``."""
    fname = name if name.endswith(".json") else name + ".json"
    return os.path.join(corpus_dir(), "cases", fname)
