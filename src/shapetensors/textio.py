"""Plain-text serialization helpers.

Floats are written with repr(), the shortest decimal string that parses
back to the identical IEEE-754 double, so every file round-trips
bit-for-bit and reruns with the same inputs produce byte-identical output.
Writes go through a temp file in the target directory followed by an
atomic rename; readers never observe a half-written file.

Model and blade files share one line-block format: a header line, then
named blocks.  A matrix block is ``name rows cols`` followed by one row of
floats per line (``name none`` where an optional matrix is absent); a
vector block is ``name size`` followed by one row.  ``matrix_block`` and
``vector_block`` write them, ``BlockReader`` reads them back.
"""

import os
import tempfile

import numpy as np

from .errors import ContractError


def fmt(value):
    """Shortest exact decimal representation of a float."""
    return repr(float(value))


def fmt_row(values):
    """One line of floats, each as ``fmt`` writes it."""
    return " ".join(map(repr, np.asarray(values, dtype=float).tolist()))


def matrix_block(name, mat):
    """Lines of a named block: ``name rows cols`` and one line per row."""
    mat = np.atleast_2d(mat)
    lines = [f"{name} {mat.shape[0]} {mat.shape[1]}"]
    lines.extend(fmt_row(row) for row in mat)
    return lines


def vector_block(name, values):
    """Lines of a named vector: ``name size`` and the values on one line."""
    return [f"{name} {len(values)}", fmt_row(values)]


class BlockReader:
    """Sequential reader of a line-block file."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self):
        if self.pos >= len(self.lines):
            raise ContractError(f"{self.path}: truncated file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def head(self, name):
        """The tokens of the next line, which must start with ``name``."""
        line = self.next()
        head = line.split()
        if not head or head[0] != name:
            raise ContractError(
                f"{self.path}: expected block {name!r}, found {line!r}"
            )
        return head

    def vector(self, name):
        """The values of the named vector block that comes next."""
        size = int(self.head(name)[1])
        data = np.array([float(t) for t in self.next().split()])
        if data.size != size:
            raise ContractError(f"{self.path}: block {name!r} has wrong size")
        return data

    def block(self, name, optional=False):
        """The matrix of the named block that comes next; None for
        ``name none`` when the block is optional."""
        head = self.head(name)
        if optional and head[1] == "none":
            return None
        rows, cols = int(head[1]), int(head[2])
        data = np.array(
            [[float(t) for t in self.next().split()] for _ in range(rows)]
        )
        if data.shape != (rows, cols):
            raise ContractError(f"{self.path}: block {name!r} has wrong shape")
        return data


def atomic_write_text(path, text):
    """Write text to path atomically (temp file + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def data_lines(path_or_text, from_text=False):
    """Yield (lineno, stripped line) skipping blanks and '#' comments."""
    if from_text:
        lines = path_or_text.splitlines()
    else:
        with open(path_or_text) as fh:
            lines = fh.read().splitlines()
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield i, line


def read_manifest(path):
    """Read a dataset manifest: one "path,label" per line ('#' comments,
    label optional, extra fields ignored).  Relative paths are resolved
    against the manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, line in data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if not fields[0]:
            raise ValueError(f"{path}:{lineno}: empty path field")
        label = fields[1] if len(fields) > 1 else ""
        entry = fields[0]
        if not os.path.isabs(entry):
            entry = os.path.join(base, entry)
        entries.append((entry, label))
    return entries


def write_manifest(path, entries, header=None):
    """Write "path,label" rows with paths relative to the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    lines = [f"# {header}"] if header else []
    lines.append("# file,label")
    for entry, label in entries:
        rel = os.path.relpath(entry, base) if os.path.isabs(entry) else entry
        lines.append(f"{rel},{label}")
    atomic_write_text(path, "\n".join(lines) + "\n")
