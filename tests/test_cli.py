"""CLI contract: subcommands, exit codes, frozen output formats."""

import contextlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicepool
from dicepool import cli, harness
from dicepool.cli import main, parse_size
from dicepool.pool import MAX_WORD_BITS

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
    assert parse_size("1^1000000000") == 1  # a base that cannot grow is not bounded
    assert parse_size("2^65535") == 1 << 65535  # exactly 2**16 bits wide


@pytest.mark.parametrize(
    "text", ["2^1000000000", "3^70000", "2^-1", "2^65536", "256^8192", "3^65536"]
)
def test_parse_size_refuses_huge_or_negative_powers(text):
    with pytest.raises(ValueError):
        parse_size(text)


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
    # -c 0 refuses the dice -c 1 refuses, though it rolls none of them
    bound = "sides must be in [1, 72057594037927936], got"
    for die, err in (
        (["-n", "0"], f"{bound} 0"),
        (["-n", "-5"], f"{bound} -5"),
        (["-n", str((1 << 56) + 1)], f"{bound} 72057594037927937"),
        (["--plan", "1000000000,1000000000"], f"{bound} 1000000000000000000"),
        (["-W", "20000", "--plan", ",".join(["2"] * 19993)],
         "sides must be in [1, 2**19992], got 2**19993"),
    ):
        for count in ("0", "1"):
            assert main(["roll", *die, "-c", count, "--source", "seeded"]) == 1
            assert capsys.readouterr() == ("", f"error: {err}\n")
    assert main(["roll", "-n", str(1 << 56), "-c", "0", "--source", "seeded"]) == 0
    assert capsys.readouterr().out == ""


def _module_env():
    """The environment with this checkout's dicepool first on PYTHONPATH."""
    src = str(Path(dicepool.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "dicepool", "roll", "-n", "6", "--source", "seeded"],
        capture_output=True, text=True, env=_module_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "5\n"


def test_closed_pipe_exits_quietly():
    argv = [sys.executable, "-m", "dicepool", "roll", "-n", "6", "-c", "100000",
            "--source", "seeded"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_module_env()) as proc:
        assert proc.stdout.readline() == "5\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_pipe_leaks_no_descriptor(monkeypatch):
    open_fds = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["roll", "-n", "6", "-c", "5000", "--source", "seeded"]) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("argv", [[], ["-n", "6", "--plan", "2,3"]],
                         ids=["neither", "both"])
def test_roll_needs_sides_or_plan(capsys, argv):
    assert main(["roll", *argv, "--source", "seeded"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give -n/--sides or --plan, not both\n"


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
    assert main(
        ["roll", "--plan", "2,3,52", "-c", "3", "--source", "seeded", "--seed", "1"]
    ) == 0
    assert capsys.readouterr().out == "1 2 50\n0 1 46\n1 1 36\n"


@pytest.mark.parametrize("count", [32767, 32768, 32769, 40000])
def test_roll_lines_across_block_boundaries(capsys, count):
    assert cli.BLOCK_BYTES // len("5\n") == 32768  # d6 lines per block
    assert main(["roll", "-n", "6", "-c", str(count), "--source", "seeded",
                 "--seed", "3"]) == 0
    pool, source = dicepool.EntropyPool(), dicepool.SeededSource(3)
    want = "".join(f"{pool.roll(6, source)}\n" for _ in range(count))
    assert capsys.readouterr().out == want
    # --plan 6 rolls the same die through roll_batch: the same lines
    assert main(["roll", "--plan", "6", "-c", str(count), "--source", "seeded",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out == want


def test_roll_plan_lines_across_block_boundaries(monkeypatch):
    per_block = cli.BLOCK_BYTES // len("1 2 51\n")  # 9362 lines
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["roll", "--plan", "2,3,52", "-c", "20000", "--source", "seeded",
                 "--seed", "3"]) == 0
    assert [text.count("\n") for text in stdout.writes] == [
        per_block, per_block, 20000 - 2 * per_block]
    pool, source = dicepool.EntropyPool(), dicepool.SeededSource(3)
    plan = dicepool.RadixPlan((2, 3, 52))
    want = "".join(" ".join(map(str, dicepool.roll_batch(pool, plan, source))) + "\n"
                   for _ in range(20000))
    assert "".join(stdout.writes) == want


class _RecordingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_roll_blocks_are_bounded_in_size(monkeypatch):
    # 40 lines of 10 KB: a 1024-line block would be one 400 KB write
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["roll", "--plan", ",".join(["1"] * 5000), "-c", "40",
                 "--source", "seeded"]) == 0
    assert all(len(text) <= cli.BLOCK_BYTES for text in stdout.writes)
    assert "".join(stdout.writes) == (" ".join(["0"] * 5000) + "\n") * 40


def test_wide_die_lines_match_on_both_paths_in_bounded_blocks(monkeypatch):
    # a 15-digit die: the -n path's block width comes from the die, not from d6
    per_block = cli.BLOCK_BYTES // len("999999999999999\n")  # 4096 lines
    outputs = []
    for die in (["-n", "1000000000000000"], ["--plan", "1000000000000000"]):
        stdout = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["roll", *die, "-c", "5000", "--source", "seeded", "--seed", "5"]) == 0
        assert all(len(text) <= cli.BLOCK_BYTES for text in stdout.writes)
        assert [text.count("\n") for text in stdout.writes] == [per_block, 5000 - per_block]
        outputs.append("".join(stdout.writes))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 5000


def test_roll_refuses_a_die_too_wide_to_print(capsys):
    # the product 2**19993 has 6019 digits, past Python's int-to-str limit
    argv = ["roll", "-W", "20000", "--plan", ",".join(["2"] * 19993),
            "--source", "seeded"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sides must be in [1, 2**19992], got 2**19993\n"


NINES_4400 = "9" * 4400  # past the 4300 digits Python's int() will parse


def test_roll_refuses_a_plan_part_too_long_to_parse(capsys):
    # 10**4400 - 1 is under the -W 65536 ceiling; its text is what is refused
    argv = ["roll", "--plan", NINES_4400, "-W", "65536", "--source", "seeded"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: range must be at most 4300 characters long, got 4400\n")
    assert main(["roll", "--plan", "9" * 4300, "-W", "65536", "--source", "seeded"]) == 0
    assert len(capsys.readouterr().out) <= 4301


@pytest.mark.parametrize("flag, text, err", [
    ("--m-from", NINES_4400, "--m-from must be at most 4300 characters long, got 4400"),
    ("--m-from", f"2^{NINES_4400}", "exponent must be at most 4300 characters long, got 4400"),
    ("--m-to", f"{NINES_4400}^2", "--m-to must be at most 4300 characters long, got 4400"),
], ids=["m-from", "exponent", "m-to-base"])
def test_analyze_refuses_a_size_too_long_to_parse(capsys, flag, text, err):
    argv = ["analyze", "-n", "6", "--m-from", "2", flag, text]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("flag", ["--m-from", "--m-to"])
def test_analyze_refuses_a_too_wide_power_without_echoing_it(capsys, flag):
    # both 4300-digit parts parse; their power is refused by its width alone
    argv = ["analyze", "-n", "6", "--m-from", "2", flag, f"{'9' * 4300}^{'9' * 4300}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured == ("", f"error: {flag} must be at most 65536 bits wide\n")
    assert len(captured.err) < 60


@pytest.mark.parametrize("argv", [
    ["roll", "-n", NINES_4400], ["roll", "-n", "6", "-c", NINES_4400],
    ["shuffle", "--deck", NINES_4400], ["bench", "-n", "6", "--rolls", "1", "-W", NINES_4400],
], ids=["roll-n", "roll-c", "shuffle-deck", "bench-W"])
def test_integer_flags_refuse_text_too_long_to_parse_without_echoing_it(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        ": an integer must be at most 4300 characters long, got 4400\n")
    assert len(captured.err) < 500  # the usage line and one short sentence


def test_integer_flags_keep_argparse_text_for_malformed_ints(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["roll", "-n", "abc"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument -n/--sides: invalid int value: 'abc'\n")


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert main(["roll", "--plan", "2,3", "-c", "2", "--source", "seeded"]) == 0
    assert main(["roll", "-n", "6", "-c", "2", "--source", "seeded"]) == 0
    assert capsys.readouterr().out == "1 2\n0 0\n5\n0\n"


TAPE_9_BYTES = bytes.fromhex("123456789abcdef011")


@pytest.mark.parametrize("argv, lines", [
    (["-n", "6"], ["0", "4", "2", "4", "5", "4", "1"]),
    (["--plan", "6,6,6"], ["0 4 2", "4 3 0", "3 3 5"]),
], ids=["sides", "plan"])
def test_lines_before_tape_runs_out_are_kept(tmp_path, capsys, argv, lines):
    tape = tmp_path / "tape.bin"
    tape.write_bytes(TAPE_9_BYTES)
    assert main(["roll", *argv, "-c", "100", "--source", f"tape:{tape}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "".join(line + "\n" for line in lines)
    assert captured.err == "error: tape exhausted after 72 bits\n"


@pytest.mark.parametrize("argv, line, count, tape_bytes", [
    (["-n", "6"], "5\n", 60000, 13000),
    (["--plan", "6,6,6"], "5 5 5\n", 20000, 15000),
], ids=["sides", "plan"])
def test_tape_running_out_after_several_blocks_keeps_whole_lines(
        tmp_path, capsys, monkeypatch, argv, line, count, tape_bytes):
    # the tape lasts about 40000 (-n) or 15500 (--plan) lines, so it runs
    # out inside the second block of 32768 or 10922 lines
    per_block = cli.BLOCK_BYTES // len(line)
    data = random.Random(tape_bytes).randbytes(tape_bytes)
    tape = tmp_path / "tape.bin"
    tape.write_bytes(data)
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["roll", *argv, "-c", str(count), "--source", f"tape:{tape}"]) == 1
    pool, source = dicepool.EntropyPool(), dicepool.TapeSource(data)
    plan = dicepool.RadixPlan((6, 6, 6))
    want = []
    with pytest.raises(dicepool.EntropyExhausted):
        for _ in range(count):
            outcomes = ([pool.roll(6, source)] if argv[0] == "-n"
                        else dicepool.roll_batch(pool, plan, source))
            want.append(" ".join(map(str, outcomes)) + "\n")
    assert per_block < len(want) < count
    assert "".join(stdout.writes) == "".join(want)
    assert all(text.endswith("\n") for text in stdout.writes)
    assert all(text.count("\n") <= per_block for text in stdout.writes)
    assert capsys.readouterr().err == f"error: tape exhausted after {8 * tape_bytes} bits\n"


@settings(max_examples=25, deadline=None)
@example([10**15] * 5, 2000, 7)  # blocks of 819 lines: 2000 = 819 + 819 + 362
@example([999] * 5, 7000, 3)  # blocks of 3276 lines: 7000 = 3276 + 3276 + 448
@given(st.lists(st.sampled_from([1, 2, 9, 10, 52, 999, 10**15]), min_size=1, max_size=5),
       st.integers(0, 3000), st.integers(0, 2**64 - 1))
def test_plan_lines_match_roll_batch_in_whole_bounded_blocks(ranges, count, seed):
    # lines of 2 to 80 bytes give blocks of 32768 to 819 lines, most of
    # which do not divide the count; -W 320 holds a product of five 10**15
    stdout = _RecordingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main(["roll", "-W", "320", "--plan", ",".join(map(str, ranges)),
                     "-c", str(count), "--source", "seeded", "--seed", str(seed)]) == 0
    pool, source = dicepool.EntropyPool(320), dicepool.SeededSource(seed)
    plan = dicepool.RadixPlan(ranges)
    want = "".join(" ".join(map(str, dicepool.roll_batch(pool, plan, source))) + "\n"
                   for _ in range(count))
    assert "".join(stdout.writes) == want
    # every block but the last is full: bytes, from the widest line, are the one cap
    per_block = cli.BLOCK_BYTES // sum(len(str(n - 1)) + 1 for n in ranges)
    assert len(stdout.writes) == -(-count // per_block)
    for text in stdout.writes:
        assert text.endswith("\n")
        assert len(text) <= cli.BLOCK_BYTES or text.count("\n") == 1


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name with a spy that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_traced_entry_points_are_called_per_roll(monkeypatch):
    # The benchmark's span tracer wraps these very names; a refactor that
    # stops calling them would make its traced run read 0.
    batches = _count_calls(monkeypatch, cli, "roll_batch")
    assert main(["roll", "--plan", "6,6", "-c", "2500", "--source", "seeded"]) == 0
    assert len(batches) == 2500
    rolls = _count_calls(monkeypatch, dicepool.EntropyPool, "roll")
    assert main(["bench", "-n", "6", "--rolls", "3000"]) == 0
    assert len(rolls) == 3000


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


def test_bench_refuses_a_one_sided_die(capsys):
    assert main(["bench", "-n", "1", "--rolls", "5"]) == 1
    assert capsys.readouterr() == ("", "error: sides must be in [2, 1048576], got 1\n")


def test_bench_plain_output(capsys):
    assert main(["bench", "-n", "6", "--rolls", "100", "--output", "plain"]) == 0
    out = capsys.readouterr().out
    assert "recycler" in out
    assert "efficiency" in out


@pytest.mark.parametrize("argv", [
    ["bench", "-n", "144115188075855872", "--rolls", "1"],
    ["shuffle", "--deck", "144115188075855872", "--source", "seeded"],
    ["roll", "-n", "6", "-W", "1125899906842624", "--source", "seeded"],
    ["bench", "-n", "6", "--rolls", "1", "-W", "65537"],
    ["shuffle", "--deck", "52", "-W", "65537", "--source", "seeded"],
])
def test_flags_that_size_an_allocation_are_bounded(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_widest_pool_accepted(capsys):
    assert main(["roll", "-n", "6", "-W", "65536", "--source", "seeded"]) == 0
    assert capsys.readouterr().out in {f"{i}\n" for i in range(6)}


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
    # the regime starts at m = 4 * 33 = 132
    for m_from, flag in (("132", "1"), ("131", "0")):
        assert main(["analyze", "-n", "33", "--m-from", m_from]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[5] == flag


def test_analyze_refuses_one_sided_die(capsys):
    assert main(["analyze", "-n", "1", "--m-from", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sides must be in [2, inf], got 1\n"


@pytest.mark.parametrize("argv, err", [
    (["roll", "-n", "6", "-c", "-1", "--source", "seeded"],
     "count must be in [0, inf], got -1"),
    (["analyze", "-n", "0", "--m-from", "64"], "sides must be in [2, inf], got 0"),
    (["analyze", "-n", "1", "--m-from", "64"], "sides must be in [2, inf], got 1"),
    (["analyze", "-n", "6", "--m-from", "2^-1"], "exponent must be in [0, inf], got -1"),
], ids=["roll-count", "analyze-zero-sides", "analyze-one-side", "negative-exponent"])
def test_cli_integer_refusals_use_the_gate_text(capsys, argv, err):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_analyze_invalid_range(capsys):
    assert main(["analyze", "-n", "33", "--m-from", "64", "--m-to", "32"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--m-from", "2^5000"],                  # past float range: no header first
    ["--m-from", "2", "--m-to", "2^1024"],   # the sweep's last size overflows
    ["--m-from", "2^1000000000"],            # refused before it is computed
])
def test_analyze_rejects_sizes_past_float_range(capsys, argv):
    assert main(["analyze", "-n", "6", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_analyze_rejects_sides_past_float_range(capsys):
    # -n also enters the model as a float; the check runs before the header
    assert main(["analyze", "-n", str(1 << 1024), "--m-from", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "-n" in captured.err
    assert main(["analyze", "-n", str(1 << 1023), "--m-from", "64"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_analyze_stays_accurate_past_float_precision(capsys):
    # From m = 2^55 on, (m - m % 6) / m rounds to 1.0; the waste must not.
    assert main(["analyze", "-n", "6", "--m-from", "2^55", "--m-to", "2^64"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [1 << k for k in range(55, 65)]
    wastes = [float(row[3]) for row in rows]
    assert all(w > 0 for w in wastes)
    assert wastes == sorted(wastes, reverse=True)
    for row in rows:
        m = int(row[0])
        q = (m % 6) / m
        model = q * (math.log2(1 / q) + 1 / math.log(2))
        assert math.isclose(float(row[2]), model, rel_tol=1e-9)
        assert math.isclose(float(row[3]), model, rel_tol=1e-9)


def test_analyze_largest_float_size(capsys):
    assert main(["analyze", "-n", "6", "--m-from", "2^1023"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(str(1 << 1023))


@pytest.mark.parametrize("command, text", [
    ("roll", f"at most {MAX_WORD_BITS}"),
    ("shuffle", f"at most {MAX_WORD_BITS}"),
    ("bench", f"at most {MAX_WORD_BITS}"),
    ("enumerate", f"tape length in bits (<= {harness.MAX_ENUM_TAPE_BITS})"),
    ("enumerate", f"die range (<= {harness.MAX_ENUM_SIDES})"),
], ids=["roll-W", "shuffle-W", "bench-W", "enumerate-l", "enumerate-n"])
def test_help_names_the_bounds_the_library_enforces(capsys, command, text):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())  # however argparse wraps


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


def test_tape_length_is_capped(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_TAPE_BYTES", 8)
    tape = tmp_path / "tape.bin"
    tape.write_bytes(bytes(8))
    assert main(["roll", "-n", "6", "--source", f"tape:{tape}"]) == 0
    assert capsys.readouterr().out == "0\n"
    tape.write_bytes(bytes(9))
    assert main(["roll", "-n", "6", "--source", f"tape:{tape}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_endless_tape_is_refused(capsys):
    assert main(["roll", "-n", "6", "--source", "tape:/dev/zero"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_missing_tape_file(capsys):
    assert main(["roll", "-n", "6", "--source", "tape:/no/such/file"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_source(capsys):
    assert main(["roll", "-n", "6", "--source", "quantum"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shuffle", "--deck", "8", "--seed", "7"],
    ["roll", "-n", "6", "--seed", "7", "--source", "tape:{tape}"],
], ids=["shuffle-os", "roll-tape"])
def test_seed_needs_seeded_source(tmp_path, capsys, argv):
    # a seed the source would ignore is refused, not silently dropped
    tape = tmp_path / "tape.bin"
    tape.write_bytes(bytes(8))
    assert main([arg.format(tape=tape) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed needs --source seeded")
