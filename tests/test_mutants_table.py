"""The mutation gate's table matches the code: a stale row fails here, in milliseconds."""

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# run_path compiles the script without writing bytecode or running its main
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


@pytest.mark.parametrize("path, old", [row[:2] for row in MUTANTS],
                         ids=[f"{i}-{row[0]}" for i, row in enumerate(MUTANTS)])
def test_old_text_occurs_once(path, old):
    text = (ROOT / "src" / "dicepool" / path).read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {path}"


def test_rows_are_unique():
    # a row's file and texts tell it from every other row, so they can name it
    rows = [tuple(row[:3]) for row in MUTANTS]
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("node", sorted({node for *_, ids in MUTANTS for node in ids}))
def test_named_test_exists(node):
    file, _, name = node.partition("::")
    name = name.split("[")[0]
    assert (ROOT / file).is_file(), node
    tree = ast.parse((ROOT / file).read_text())
    defined = {stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    assert name in defined, f"no function {name} in {file}"
