"""Command-line front end: roll, shuffle, bench, analyze, enumerate.

CSV goes to stdout, diagnostics to stderr, exit code 0 iff no error.
All randomness flows through the configured source; there is no hidden
fallback randomness in seeded or tape mode.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Iterable

from .analysis import ESTIMATE_REGIME_FACTOR, efficiency_estimate, waste_point
from .harness import BenchReport, bench_naive, bench_recycler, enumerate_exact, shuffle
from .pool import EntropyPool
from .radix import RadixPlan, roll_batch
from .sources import EntropySource, OsSource, SeededSource, TapeSource


_SIZE_BITS_LIMIT = 1 << 16  # widest power parse_size computes, widest -W pool
MAX_TAPE_BYTES = 1 << 24  # longest tape:PATH file read into memory
LINE_BLOCK = 1024  # roll lines gathered into one stdout write


def parse_size(text: str) -> int:
    """Integer literal, optionally in base^exponent form like 2^24.

    A power wider than 2**16 bits is refused; 2^1000000000 and any other
    power that cannot be narrower fail before they are computed.
    """
    if "^" in text:
        base_text, _, exponent_text = text.partition("^")
        base, exponent = int(base_text), int(exponent_text)
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        if (abs(base).bit_length() - 1) * exponent < _SIZE_BITS_LIMIT:
            power = base ** exponent
            if power.bit_length() <= _SIZE_BITS_LIMIT:
                return power
        raise ValueError(f"{text} is wider than {_SIZE_BITS_LIMIT} bits")
    return int(text)


def make_source(name: str, seed: int) -> EntropySource:
    if name == "seeded":
        return SeededSource(seed)
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


def _pool_kwargs(args: argparse.Namespace) -> dict[str, int]:
    """The -W/-B pair as keyword arguments, refusing pools wider than 2**16 bits."""
    if args.word_bits > _SIZE_BITS_LIMIT:
        raise ValueError(
            f"word bits must be at most {_SIZE_BITS_LIMIT}, got {args.word_bits}"
        )
    return {"word_bits": args.word_bits, "chunk_bits": args.chunk_bits}


def _write_lines(lines: Iterable[str]) -> None:
    """Write `lines` to stdout, LINE_BLOCK newline-terminated lines per write.

    If making a line raises, the lines made before it are still written,
    in order, before the exception propagates.
    """
    block: list[str] = []
    try:
        for line in lines:
            block.append(line)
            if len(block) == LINE_BLOCK:
                text = "\n".join(block) + "\n"
                block.clear()  # before the write, so a failed write is not retried
                sys.stdout.write(text)
    finally:
        if block:
            sys.stdout.write("\n".join(block) + "\n")


def cmd_roll(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"count must be nonnegative, got {args.count}")
    if (args.sides is None) == (args.plan is None):
        raise ValueError("give -n/--sides or --plan, not both")
    source = make_source(args.source, args.seed)
    pool = EntropyPool(**_pool_kwargs(args))
    if args.plan is not None:
        plan = RadixPlan(int(part) for part in args.plan.split(","))
        form = " ".join(["%d"] * len(plan.ranges))
        _write_lines(form % tuple(roll_batch(pool, plan, source))
                     for _ in range(args.count))
    else:
        sides = args.sides
        _write_lines(str(pool.roll(sides, source)) for _ in range(args.count))
    return 0


def cmd_shuffle(args: argparse.Namespace) -> int:
    source = make_source(args.source, args.seed)
    order = shuffle(args.deck, source=source, **_pool_kwargs(args))
    print(" ".join(str(card) for card in order))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    reports = [bench_recycler(args.sides, args.rolls, args.seed, **_pool_kwargs(args))]
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
    sides = args.sides
    if sides < 2:
        raise ValueError(f"analyze needs -n >= 2, got {sides}")
    m_from = parse_size(args.m_from)
    m_to = parse_size(args.m_to) if args.m_to is not None else m_from
    if m_from < 1 or m_to < m_from:
        raise ValueError(f"invalid pool range [{m_from}, {m_to}]")
    last = m_from << ((m_to // m_from).bit_length() - 1)  # largest size swept
    widest = max(last, sides)  # the model divides both as floats
    try:
        float(widest)
    except OverflowError:
        raise ValueError(
            f"a {widest.bit_length()}-bit -n or pool size overflows a float; "
            "keep -n and pool sizes below 2^1024"
        ) from None
    print("m,p,binary_entropy,waste_per_roll,eta_estimate,in_regime")
    pool_size = m_from
    while pool_size <= m_to:
        point = waste_point(sides, pool_size)
        eta = efficiency_estimate(sides, pool_size)
        in_regime = pool_size >= ESTIMATE_REGIME_FACTOR * sides
        print(f"{pool_size},{point.p:.10g},{point.waste_iter:.10g},"
              f"{point.waste_roll:.10g},{eta:.10g},{int(in_regime)}")
        pool_size *= 2
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_exact(args.tape_bits, args.sides)
    leftover = result.pool_size % result.sides
    print("counts: " + " ".join(str(c) for c in result.counts))
    print(f"discards: {len(result.discard_states)} tapes onto [0, {leftover})")
    print("PASS" if result.exact else "FAIL")
    return 0 if result.exact else 1


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-W", "--word-bits", type=int, default=64,
                        help="pool capacity bound in bits, at most 2^16 (default 64)")
    parser.add_argument("-B", "--chunk-bits", type=int, default=8,
                        help="refill granularity in bits (default 8)")


def _add_source_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", default="os", help="seeded | os | tape:PATH")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for --source seeded (default 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dicepool parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="dicepool",
        description="Fair die rolls from coin flips with entropy recycling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roll = sub.add_parser("roll", help="print fair die rolls, one per line")
    roll.add_argument("-n", "--sides", type=int, help="die range")
    roll.add_argument("--plan", metavar="N1,N2,...",
                      help="ranges rolled as one batched product draw")
    roll.add_argument("-c", "--count", type=int, default=1,
                      help="number of rolls (default 1)")
    _add_source_options(roll)
    _add_pool_options(roll)
    roll.set_defaults(func=cmd_roll)

    shuf = sub.add_parser("shuffle", help="print a fair permutation of a deck")
    shuf.add_argument("--deck", type=int, required=True, help="deck size")
    _add_source_options(shuf)
    _add_pool_options(shuf)
    shuf.set_defaults(func=cmd_shuffle)

    bench = sub.add_parser("bench", help="measure consumption and uniformity")
    bench.add_argument("-n", "--sides", type=int, required=True)
    bench.add_argument("--rolls", type=int, required=True)
    bench.add_argument("--seed", type=int, default=1,
                       help="seeded source for reproducibility (default 1)")
    bench.add_argument("--baseline", action="store_true",
                       help="also run the discard-everything rejection sampler")
    bench.add_argument("--output", choices=("csv", "plain"), default="csv")
    _add_pool_options(bench)
    bench.set_defaults(func=cmd_bench)

    analyze = sub.add_parser("analyze", help="tabulate the analytical waste model")
    analyze.add_argument("-n", "--sides", type=int, required=True)
    analyze.add_argument("--m-from", required=True,
                         help="first pool size (accepts 2^K)")
    analyze.add_argument("--m-to", default=None,
                         help="last pool size, swept by doubling (default: m-from)")
    analyze.set_defaults(func=cmd_analyze)

    enum = sub.add_parser("enumerate",
                          help="exhaustive uniformity check over all short tapes")
    enum.add_argument("-l", "--tape-bits", type=int, required=True,
                      help="tape length in bits (<= 16)")
    enum.add_argument("-n", "--sides", type=int, required=True,
                      help="die range (<= 20)")
    enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe: stop quietly, and point stdout at
        # devnull so the flush at interpreter exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
