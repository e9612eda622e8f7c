"""Importing dicepool stays cheap: start-up pulls in no heavy stdlib module.

The guard counts modules, not milliseconds, so it holds on any machine.
The probe runs with -S, so that modules `site` imports cannot hide one
that dicepool itself brings in.
"""

import os
import subprocess
import sys
from pathlib import Path

import dicepool

# dataclasses loads inspect, ast, dis and tokenize; none is on the roll path
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

PROBE = """
import sys
bare = set(sys.modules)
import dicepool
print(" ".join(sorted(set(sys.modules) - bare)))
import dicepool.cli
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_imports_add_no_heavy_module():
    src = str(Path(dicepool.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    library, with_cli = (set(line.split()) for line in done.stdout.splitlines())
    assert "dicepool.radix" in library and "dicepool.cli" in with_cli
    for added in (library, with_cli):
        assert not added & set(HEAVY), sorted(added & set(HEAVY))
    assert "argparse" not in library


def test_imports_build_no_digit_table():
    # radix plans and the count form build their tables on first use
    src = str(Path(dicepool.__file__).resolve().parents[1])
    probe = "import dicepool.cli, dicepool.pool as p; print(p._table.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
