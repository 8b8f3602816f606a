"""``revnet.outputs`` is the package's one writer: its temp-file-and-rename
keeps the old file when a write fails, and no other module opens a file for
writing or renames one."""

import ast
from pathlib import Path

import pytest

import revnet
from revnet.outputs import csv_line, write_lines

PACKAGE = Path(revnet.__file__).parent


def test_write_lines_keeps_the_old_file_when_the_lines_raise(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["a\n", "b\n"])
    assert path.read_text() == "a\nb\n"

    def one_then_fail():
        yield "c\n"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_lines(path, one_then_fail())
    assert path.read_text() == "a\nb\n"


def test_csv_line_writes_str_of_each_cell_and_none_as_empty():
    assert csv_line(["p1", 1 / 3, None, 2010, float("nan")]) == \
        "p1,0.3333333333333333,,2010,nan\n"


def writes_a_file(call: ast.Call) -> bool:
    """``open`` with a mode that can write (or one not known until run time),
    ``os.replace`` / ``os.rename``, or ``Path.write_text`` / ``write_bytes``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (kw.value for kw in call.keywords if kw.arg == "mode"), None)
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return bool(set(mode.value) & set("wax+"))
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return func.attr in ("replace", "rename")
        return func.attr in ("write_text", "write_bytes")
    return False


def test_only_the_outputs_module_writes_or_renames_files():
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and writes_a_file(node)]
    assert sites and all(site.startswith("outputs.py:") for site in sites), sites
