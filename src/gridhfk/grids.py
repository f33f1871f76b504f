"""Grid diagrams for links: validation, symmetries, splicing, file I/O.

A size-n grid diagram places one X and one O in every row and every
column of an n-by-n board drawn on a torus.  Rows are indexed bottom to
top and columns left to right.  ``x_cols[r]`` is the column of the X in
row r, ``o_cols[r]`` the column of the O in row r.  Vertical strands of
the link run from an X to the O in its column, horizontal strands from
an O to the X in its row.  X cells carry the z markings of the Heegaard
diagram and O cells carry the w markings.

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

    @property
    def components(self):
        return count_components(self)

    def mirror(self):
        return mirror(self)


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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read(), source=str(path))


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
