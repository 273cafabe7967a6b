"""Plain-text serialization helpers.

Floats are written with repr(), the shortest decimal string that parses
back to the identical IEEE-754 double, so every file round-trips
bit-for-bit and reruns with the same inputs produce byte-identical output.
Writes go through a temp file in the target directory followed by an
atomic rename; readers never observe a half-written file.

Float tables have one writer and one reader.  ``fmt_rows`` formats a
whole array with one %-format (``%r`` of a float is its repr): landmark
rows, model and blade blocks, OBJ vertices and faces, CST coefficients.
``parse_rows`` reads landmark, model and blade tables with one split and
Python's ``float``; only when that fails does a caller walk the lines
one by one, to word its error.

Model and blade files share one line-block format: a header, then named
blocks.  A matrix block is ``name rows cols`` followed by one row of
floats per line (``name none`` where an optional matrix is absent); a
vector block is ``name size`` followed by one row.  ``matrix_block`` and
``vector_block`` write them, ``BlockReader`` reads them back and words
every malformed line as ``path:lineno: ...``.
"""

import itertools
import os

import numpy as np

from .errors import ContractError, refuse


def fmt(value):
    """Shortest exact decimal representation of a float."""
    return repr(float(value))


def fmt_rows(mat, row=None):
    """The rows of a 2-D array as lines joined by newlines (no final
    newline), from one %-format over all its values.  ``row`` is the
    pattern of one line; by default the row's floats as ``fmt`` writes
    them, separated by single spaces."""
    if row is None:
        mat = np.asarray(mat, dtype=float)
        row = " ".join(["%r"] * mat.shape[1])
    else:
        mat = np.asarray(mat)
    return "\n".join([row] * mat.shape[0]) % tuple(mat.ravel().tolist())


def parse_rows(lines, cols):
    """The (len(lines), cols) array of lines that each hold ``cols``
    whitespace-separated floats, parsed as Python's float parses them;
    None when a line holds another number of tokens or a token is not a
    float."""
    if not all(map(cols.__eq__, map(len, map(str.split, lines)))):
        return None
    tokens = " ".join(lines).split()
    try:
        data = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None
    return data.reshape(len(lines), cols)


def matrix_block(name, mat):
    """Lines of a named block: ``name rows cols`` and one line per row."""
    mat = np.atleast_2d(mat)
    lines = [f"{name} {mat.shape[0]} {mat.shape[1]}"]
    if len(mat):
        lines.append(fmt_rows(mat))
    return lines


def vector_block(name, values):
    """Lines of a named vector: ``name size`` and the values on one line."""
    return [f"{name} {len(values)}", fmt_rows(np.reshape(values, (1, -1)))]


class BlockReader:
    """Sequential reader of a line-block file."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def error(self, message, lineno=None):
        """A ContractError about line ``lineno`` (default: the last line
        read)."""
        return ContractError(f"{self.path}:{lineno or self.pos}: {message}")

    def next(self):
        if self.pos >= len(self.lines):
            raise ContractError(f"{self.path}: truncated file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def head(self, name, form=None):
        """The tokens of the next line, which must start with ``name``
        and, given ``form`` (the fields after the name, such as
        ``"rows cols"``), hold one token per field."""
        line = self.next()
        head = line.split()
        if not head or head[0] != name:
            raise self.error(f"expected {name!r}, found {line!r}")
        if form is not None and len(head) != 1 + len(form.split()):
            raise self.error(f"expected '{name} {form}', got {line!r}")
        return head

    def value(self, name, convert=str):
        """The value of the ``name value`` line that comes next; a float
        must be finite."""
        token = self.head(name, "value")[1]
        try:
            value = convert(token)
        except ValueError:
            raise self.error(f"bad {name} value {token!r}") from None
        if convert is float and not np.isfinite(value):
            raise self.error(f"bad {name} value {token!r}: not finite")
        return value

    def dim(self, token, name=None, want=None, what="entries"):
        """A block dimension on the last line read: an integer >= 0, and
        equal to ``want`` when that is given (the count of ``what`` in
        block ``name``)."""
        if not token.isdecimal():
            raise self.error(f"bad block size {token!r}")
        if want is not None and int(token) != want:
            raise self.error(f"block {name!r} has {token} {what}, expected {want}")
        return int(token)

    def rows(self, count, cols, name):
        """The (count, cols) finite floats on the next ``count`` lines."""
        if self.pos + count > len(self.lines):
            raise ContractError(f"{self.path}: truncated file")
        lines = self.lines[self.pos:self.pos + count]
        data = parse_rows(lines, cols)
        if data is None:
            for offset, line in enumerate(lines):
                if parse_rows([line], cols) is None:
                    raise self.error(
                        f"block {name!r} needs {cols} numbers per line, "
                        f"got {line!r}", self.pos + offset + 1,
                    )
        refuse(~np.isfinite(data).all(axis=1), lambda i: self.error(
            f"block {name!r} holds a non-finite value: {lines[i[0]]!r}",
            self.pos + i[0] + 1))
        self.pos += count
        return data

    def vector(self, name, size=None):
        """The values of the named vector block that comes next; ``size``
        pins their number."""
        token = self.head(name, "size")[1]
        return self.rows(1, self.dim(token, name, size), name)[0]

    def block(self, name, optional=False, rows=None, cols=None):
        """The matrix of the named block that comes next; None for
        ``name none`` when the block is optional.  ``rows`` and ``cols``
        pin its shape."""
        head = self.head(name)
        if optional and head[1:] == ["none"]:
            return None
        if len(head) != 3:
            raise self.error(
                f"expected '{name} rows cols', got {self.lines[self.pos - 1]!r}"
            )
        return self.rows(self.dim(head[1], name, rows, "rows"),
                         self.dim(head[2], name, cols, "columns"), name)


# Serial numbers of this process's temp files.
_TEMP_SERIAL = itertools.count()


def atomic_write_text(path, text):
    """Write text to path atomically (temp file + rename).

    The temp file is created with mode 0666 less the umask, as open()
    would create the file itself, under a name unique to this process.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory,
                       f".tmp-{os.getpid()}-{next(_TEMP_SERIAL)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
            raise ContractError(f"{path}:{lineno}: empty path field")
        label = fields[1] if len(fields) > 1 else ""
        entry = fields[0]
        if not os.path.isabs(entry):
            entry = os.path.join(base, entry)
        entries.append((entry, label))
    return entries


def write_manifest(path, entries, header):
    """Write "path,label" rows with paths relative to the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    lines = [f"# {header}", "# file,label"]
    for entry, label in entries:
        rel = os.path.relpath(entry, base) if os.path.isabs(entry) else entry
        lines.append(f"{rel},{label}")
    atomic_write_text(path, "\n".join(lines) + "\n")
