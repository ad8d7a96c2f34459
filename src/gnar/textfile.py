"""The line grammar every gnar input file shares, and the writer of every gnar file.

Every gnar input file is UTF-8 text, read by :func:`read_text`.  In edge lists,
weights, partitions, panels and model files, a line (as :meth:`str.splitlines` splits)
is stripped; blank lines are skipped, ``#`` starts a comment and other lines are rows.
Errors read ``path:line``.
:func:`check_cell` is the writers' side: what a written cell may hold;
:func:`write_text_atomic` writes every gnar file.
"""

import os
from collections.abc import Callable, Iterator
from pathlib import Path

from .errors import DataError, GnarError


def read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; a byte that is not UTF-8 raises DataError at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise DataError(f"{path}:{line}: not UTF-8 text") from None


def read_rows(path: str | Path, sep: str | None = ","
              ) -> tuple[list[tuple[int, str]], Iterator[tuple[int, list[str]]]]:
    """Every ``(line, text after '#')`` comment, and an iterator of ``(line, cells)``
    that splits each row on ``sep`` (``None``: whitespace) only when it is reached."""
    text = read_text(path)
    lines = [(ln, s) for ln, s in enumerate(map(str.strip, text.splitlines()), start=1) if s]
    comments = [(ln, s[1:].strip()) for ln, s in lines if s[0] == "#"]
    return comments, ((ln, s.split(sep)) for ln, s in lines if s[0] != "#")


def fixed_rows(path: str | Path, rows: Iterator[tuple[int, list[str]]], header: str,
               convert: Callable[..., tuple]) -> Iterator[tuple[int, tuple]]:
    """Rows of the comma-separated ``header``'s shape as ``convert(*cells)``; a row spelling
    the header is skipped and one ``convert`` rejects (a cell count or value) is an error."""
    for ln, cells in rows:
        try:
            values = convert(*cells)
        except (TypeError, ValueError):
            line = ",".join(cells)
            if line.replace(" ", "").lower() == header:
                continue
            raise DataError(f"{path}:{ln}: expected {header!r} with numeric cells, "
                            f"got {line!r}") from None
        yield ln, values


def check_cell(kind: str, text: str, forbidden: str = ",") -> None:
    """Raise GnarError naming ``text`` unless a written file reads it back as written."""
    for bad, why in ((not text and kind.endswith("label"), "is empty"),
                     ("".join(text.splitlines()) != text, "holds a line break"),
                     (text != text.strip(), "has leading or trailing whitespace"),
                     (any(c in text for c in forbidden), f"holds {forbidden!r}"),
                     (kind == "time label" and text.startswith("#"), "starts with '#'")):
        if bad:
            raise GnarError(f"{kind} {text!r} {why}, so a gnar file cannot hold it")


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new file beside ``path`` (mode 0o666 less the umask,
    parents made) and rename it over ``path``; a failed write leaves ``path`` as it was."""
    data, path = text.encode("utf-8"), Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
