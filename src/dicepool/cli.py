"""Command-line front end: roll, shuffle, bench, analyze, enumerate.

CSV goes to stdout, diagnostics to stderr, exit code 0 iff no error. All
randomness flows through the configured source, with no hidden fallback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .analysis import ESTIMATE_REGIME_FACTOR, efficiency_estimate, waste_point
from .harness import (MAX_ENUM_SIDES, MAX_ENUM_TAPE_BITS, BenchReport, bench_naive,
                      bench_recycler, enumerate_exact, shuffle)
from .pool import MAX_WORD_BITS, EntropyPool
from .radix import RadixPlan, roll_batch
from .sources import EntropySource, OsSource, SeededSource, TapeSource, _int_in


MAX_TAPE_BYTES = 1 << 24  # longest tape:PATH file read into memory
BLOCK_BYTES = 1 << 16  # most bytes in one roll write, unless one line is wider
MAX_INT_TEXT = 4300  # longest integer text parsed: int()'s default digit limit
DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # outcome -> its digit


def _int_text(name: str, text: str) -> int:
    """int(text), refused by its length first; the refusal never echoes it."""
    if len(text) > MAX_INT_TEXT:
        raise ValueError(f"{name} must be at most {MAX_INT_TEXT} characters long, "
                         f"got {len(text)}")
    return int(text)


def _int_flag(text: str) -> int:
    """The `type=` of every integer flag: _int_text in argparse's wording."""
    try:
        return _int_text("an integer", text)
    except ValueError as exc:  # argparse would echo the text, however long
        raise argparse.ArgumentTypeError(
            str(exc) if len(text) > MAX_INT_TEXT else f"invalid int value: {text!r}"
        ) from None


def parse_size(text: str, name: str = "size") -> int:
    """Integer literal, optionally in base^exponent form like 2^24.

    A power wider than pool.MAX_WORD_BITS bits is refused, before it is
    computed if it cannot be narrower. `name` names the value in a refusal.
    """
    if "^" in text:
        base_text, _, exponent_text = text.partition("^")
        base = _int_text(name, base_text)
        exponent = _int_in("exponent", _int_text("exponent", exponent_text), 0)
        if (abs(base).bit_length() - 1) * exponent < MAX_WORD_BITS:
            power = base ** exponent
            if power.bit_length() <= MAX_WORD_BITS:
                return power
        raise ValueError(f"{name} must be at most {MAX_WORD_BITS} bits wide")
    return _int_text(name, text)


def make_source(name: str, seed: int | None) -> EntropySource:
    """The source `name` names; only `seeded` takes a seed (default 1)."""
    if name == "seeded":
        return SeededSource(1 if seed is None else seed)
    if seed is not None:
        raise ValueError(f"--seed needs --source seeded, got --source {name}")
    if name == "os":
        return OsSource()
    if name.startswith("tape:"):
        path = name[len("tape:"):]
        with open(path, "rb") as handle:
            data = handle.read(MAX_TAPE_BYTES + 1)
        if len(data) > MAX_TAPE_BYTES:
            raise ValueError(f"tape {path} is longer than {MAX_TAPE_BYTES} bytes")
        return TapeSource(data)
    raise ValueError(f"unknown source '{name}' (expected seeded, os, or tape:PATH)")


def cmd_roll(args: argparse.Namespace) -> int:
    """Write -c lines of -n or --plan outcomes to stdout, a block at a time.

    A block holds at most BLOCK_BYTES bytes, or one wider line, and is one
    `roll_many` or `roll_batch` call; lines rolled before a raise are written.
    """
    count = _int_in("count", args.count, 0)
    if (args.sides is None) == (args.plan is None):
        raise ValueError("give -n/--sides or --plan, not both")
    source = make_source(args.source, args.seed)
    pool = EntropyPool(args.word_bits, args.chunk_bits)
    if args.plan is None:  # not via roll_batch, whose decoding adds 20-30% to -n
        sides, ranges = args.sides, (args.sides,)
    else:
        plan = RadixPlan(_int_text("range", part) for part in args.plan.split(","))
        sides, ranges = plan.product, plan.ranges  # a product may be too wide to print
    _int_in("sides", sides, 1, pool.refill_ceiling)  # refused even at -c 0
    line = " ".join(["%d"] * len(ranges)) + "\n"
    line_bytes = sum(len(str(n - 1)) + 1 for n in ranges)  # widest line
    per_block = max(1, BLOCK_BYTES // line_bytes)
    wide = max(ranges) > 10  # an outcome may take two digits or more
    if not wide:
        text = bytearray(line.replace("%d", "0") * min(per_block, count), "ascii")
    for start in range(0, count, per_block):
        row: list[int] = []
        lines = range(min(per_block, count - start))
        try:
            if args.plan is None:
                pool.roll_many(sides, source, row, count=len(lines))
            else:
                roll_batch(pool, plan, source, len(lines), row)
        finally:
            if row:
                if wide:
                    sys.stdout.write(line * (len(row) // len(ranges)) % tuple(row))
                else:
                    text[:2 * len(row):2] = bytes(row).translate(DIGITS)
                    sys.stdout.write(text[:2 * len(row)].decode())
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    source = make_source(args.source, args.seed)
    order = shuffle(args.deck, source, word_bits=args.word_bits,
                    chunk_bits=args.chunk_bits)
    print(" ".join(str(card) for card in order))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    reports = [bench_recycler(args.sides, args.rolls, args.seed,
                              word_bits=args.word_bits, chunk_bits=args.chunk_bits)]
    if args.baseline:
        reports.append(bench_naive(args.sides, args.rolls, args.seed))
    if args.output == "csv":
        print(BenchReport.csv_header())
        for report in reports:
            print(report.csv_row())
    else:
        for report in reports:
            print(report.summary())
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    sides = _int_in("sides", args.sides, 2)
    pool_size = _int_in("--m-from", parse_size(args.m_from, "--m-from"), 1)
    m_to = pool_size if args.m_to is None else _int_in(
        "--m-to", parse_size(args.m_to, "--m-to"), pool_size)
    rows = ["m,p,binary_entropy,waste_per_roll,eta_estimate,in_regime"]
    try:  # built before printing; the model overflows a float within ~1024 rows
        while pool_size <= m_to:
            point = waste_point(sides, pool_size)
            eta = efficiency_estimate(sides, pool_size)
            in_regime = pool_size >= ESTIMATE_REGIME_FACTOR * sides
            rows.append(f"{pool_size},{point.p:.10g},{point.waste_iter:.10g},"
                        f"{point.waste_roll:.10g},{eta:.10g},{int(in_regime)}")
            pool_size *= 2
    except OverflowError:
        raise ValueError("-n or a pool size overflows a float; "
                         "keep -n and pool sizes below 2^1024") from None
    print("\n".join(rows))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_exact(args.tape_bits, args.sides)
    leftover = result.pool_size % result.sides
    print("counts: " + " ".join(str(c) for c in result.counts))
    print(f"discards: {len(result.discard_states)} tapes onto [0, {leftover})")
    print("PASS" if result.exact else "FAIL")
    return 0 if result.exact else 1


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-W", "--word-bits", type=_int_flag, default=64,
                        help=f"pool capacity bound in bits, at most {MAX_WORD_BITS} "
                             "(default 64)")
    parser.add_argument("-B", "--chunk-bits", type=_int_flag, default=8,
                        help="refill granularity in bits (default 8)")


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", default="os", help="seeded | os | tape:PATH")
    parser.add_argument("--seed", type=_int_flag,
                        help="seed for --source seeded (default 1); other sources refuse it")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dicepool parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="dicepool",
        description="Fair die rolls from coin flips with entropy recycling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roll = sub.add_parser("roll", help="print fair die rolls, one per line")
    roll.add_argument("-n", "--sides", type=_int_flag, help="die range")
    roll.add_argument("--plan", metavar="N1,N2,...",
                      help="ranges rolled as one batched product draw")
    roll.add_argument("-c", "--count", type=_int_flag, default=1,
                      help="number of rolls (default 1)")
    _add_source_options(roll)
    _add_pool_options(roll)
    roll.set_defaults(func=cmd_roll)

    shuf = sub.add_parser("shuffle", help="print a fair permutation of a deck")
    shuf.add_argument("--deck", type=_int_flag, required=True, help="deck size")
    _add_source_options(shuf)
    _add_pool_options(shuf)
    shuf.set_defaults(func=cmd_shuffle)

    bench = sub.add_parser("bench", help="measure consumption and uniformity")
    bench.add_argument("-n", "--sides", type=_int_flag, required=True)
    bench.add_argument("--rolls", type=_int_flag, required=True)
    bench.add_argument("--seed", type=_int_flag, default=1,
                       help="seeded source for reproducibility (default 1)")
    bench.add_argument("--baseline", action="store_true",
                       help="also run the discard-everything rejection sampler")
    bench.add_argument("--output", choices=("csv", "plain"), default="csv")
    _add_pool_options(bench)
    bench.set_defaults(func=cmd_bench)

    analyze = sub.add_parser("analyze", help="tabulate the analytical waste model")
    analyze.add_argument("-n", "--sides", type=_int_flag, required=True)
    analyze.add_argument("--m-from", required=True,
                         help="first pool size (accepts 2^K)")
    analyze.add_argument("--m-to", default=None,
                         help="last pool size, swept by doubling (default: m-from)")
    analyze.set_defaults(func=cmd_analyze)

    enum = sub.add_parser("enumerate",
                          help="exhaustive uniformity check over all short tapes")
    enum.add_argument("-l", "--tape-bits", type=_int_flag, required=True,
                      help=f"tape length in bits (<= {MAX_ENUM_TAPE_BITS})")
    enum.add_argument("-n", "--sides", type=_int_flag, required=True,
                      help=f"die range (<= {MAX_ENUM_SIDES})")
    enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone: stdout goes to devnull, so the exit flush cannot fail.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
