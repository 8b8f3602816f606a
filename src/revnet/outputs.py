"""Every output file goes to ``<path>.tmp`` and is then renamed over ``path``:
``os.replace`` is atomic on one file system, so a reader sees the old file or
the whole new one, never the prefix that an interrupted write leaves behind."""

import os


def write_lines(path, lines) -> None:
    """Write ``lines``, strings that end in their own newline, to ``path``."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def csv_line(cells) -> str:
    """One CSV row: the ``str`` of each cell, ``None`` as an empty cell."""
    return ",".join("" if c is None else str(c) for c in cells) + "\n"
