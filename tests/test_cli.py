"""CLI contract: subcommands, exit codes, frozen output formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicepool
from dicepool.cli import main, parse_size

SHUFFLE_52_SEED_7 = (
    "21 44 14 33 6 47 22 30 34 24 35 2 27 0 36 23 4 28 8 32 50 19 37 10 "
    "49 31 17 9 25 38 43 26 45 39 18 13 46 16 29 20 1 3 41 12 15 48 51 5 "
    "7 42 40 11"
)

CSV_HEADER = (
    "sampler,n,rolls,bits_in,pool_delta,entropy_out,"
    "waste_per_roll,efficiency,chi_square,dof"
)


def test_parse_size():
    assert parse_size("123") == 123
    assert parse_size("2^24") == 1 << 24


def test_roll_seeded_fixture(capsys):
    assert main(["roll", "-n", "6", "-c", "3", "--source", "seeded", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "5\n0\n3\n"


def test_roll_one_sided(capsys):
    assert main(["roll", "-n", "1", "-c", "2", "--source", "seeded"]) == 0
    assert capsys.readouterr().out == "0\n0\n"


def test_roll_invalid_range(capsys):
    assert main(["roll", "-n", "0", "--source", "seeded"]) == 1
    assert "error" in capsys.readouterr().err


def test_roll_count_bounds(capsys):
    assert main(["roll", "-n", "6", "-c", "-1", "--source", "seeded"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error" in err
    assert main(["roll", "-n", "6", "-c", "0", "--source", "seeded"]) == 0
    assert capsys.readouterr().out == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(dicepool.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "dicepool", "roll", "-n", "6", "--source", "seeded"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"


def test_roll_needs_sides_or_plan(capsys):
    assert main(["roll", "--source", "seeded"]) == 1
    assert "error" in capsys.readouterr().err


def test_roll_batched_plan(capsys):
    assert main(
        ["roll", "--plan", "2,3", "-c", "2", "--source", "seeded", "--seed", "1"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        first, second = (int(part) for part in line.split())
        assert 0 <= first < 2
        assert 0 <= second < 3


def test_bench_csv_contract(capsys):
    assert main(["bench", "-n", "32", "--rolls", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert row[0] == "recycler"
    assert row[1] == "32"
    assert row[6] == "0"  # power of two never wastes


def test_bench_baseline_adds_naive_row(capsys):
    assert main(["bench", "-n", "33", "--rolls", "20000", "--baseline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    naive_row = lines[2].split(",")
    assert naive_row[0] == "naive"
    assert float(naive_row[7]) == pytest.approx(0.4335, abs=0.02)


def test_bench_plain_output(capsys):
    assert main(["bench", "-n", "6", "--rolls", "100", "--output", "plain"]) == 0
    out = capsys.readouterr().out
    assert "recycler" in out
    assert "efficiency" in out


def test_bench_jobs_shards(capsys):
    assert main(["bench", "-n", "6", "--rolls", "2000", "--jobs", "4"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "2000"


def test_analyze_single_row_exact_division(capsys):
    assert main(["analyze", "-n", "2", "--m-from", "2", "--m-to", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("m,p,")
    cells = lines[1].split(",")
    assert cells[0] == "2"
    assert cells[1] == "1"
    assert cells[3] == "0"  # waste per roll


def test_analyze_sweep_monotone_eta(capsys):
    assert main(["analyze", "-n", "33", "--m-from", "64", "--m-to", "2^24"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    etas = [float(line.split(",")[4]) for line in lines]
    assert etas == sorted(etas)
    regimes = [line.split(",")[5] for line in lines]
    assert regimes[0] == "0"   # 64 < 4*33
    assert regimes[-1] == "1"


def test_analyze_out_of_regime_marker(capsys):
    assert main(["analyze", "-n", "33", "--m-from", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[5] == "0"


def test_analyze_invalid_range(capsys):
    assert main(["analyze", "-n", "33", "--m-from", "64", "--m-to", "32"]) == 1
    assert "error" in capsys.readouterr().err


def test_enumerate_pass(capsys):
    assert main(["enumerate", "-l", "3", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "counts: 2 2 2" in out
    assert "PASS" in out


def test_enumerate_power_of_two(capsys):
    assert main(["enumerate", "-l", "8", "-n", "16"]) == 0
    out = capsys.readouterr().out
    assert "discards: 0" in out
    assert "PASS" in out


def test_enumerate_bounds(capsys):
    assert main(["enumerate", "-l", "17", "-n", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_shuffle_fixture(capsys):
    assert main(["shuffle", "--deck", "52", "--source", "seeded", "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == SHUFFLE_52_SEED_7


def test_shuffle_single_card(capsys):
    assert main(["shuffle", "--deck", "1", "--source", "seeded"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_tape_source_roll(tmp_path, capsys):
    tape = tmp_path / "tape.bin"
    tape.write_bytes(bytes(8))  # 64 zero bits fill the pool with value 0
    assert main(["roll", "-n", "6", "-c", "1", "--source", f"tape:{tape}"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_short_tape_surfaces_exhaustion(tmp_path, capsys):
    # proves all randomness flows through the configured source: a tape
    # one byte short of a top-off must fail, not fall back to the OS
    tape = tmp_path / "tape.bin"
    tape.write_bytes(bytes(7))
    assert main(["roll", "-n", "6", "-c", "1", "--source", f"tape:{tape}"]) == 1
    assert "exhausted" in capsys.readouterr().err


def test_missing_tape_file(capsys):
    assert main(["roll", "-n", "6", "--source", "tape:/no/such/file"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_source(capsys):
    assert main(["roll", "-n", "6", "--source", "quantum"]) == 1
    assert "error" in capsys.readouterr().err
