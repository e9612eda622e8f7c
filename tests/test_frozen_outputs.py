"""Frozen outputs: the seeded CLI output the project promises never to change.

Each row is a command line run through `cli.main`, which must exit 0
with nothing on stderr and print exactly the stored stdout. Short
outputs are stored as text; long ones as (length, sha256 of the UTF-8
text). Together the rows pin the SplitMix64 stream, every `roll` route
(one-digit and `%` blocks, `--plan` tables, refills at several
geometries, including one whose one-chunk band is empty), the 52-card
shuffle, the bench CSV and the `enumerate` and `analyze` text. A row
changes only with a deliberate stream change, logged in CHANGES.md.
"""

import hashlib

import pytest

from dicepool.cli import main

FROZEN = [
    ("roll -n 6 -c 3 --source seeded --seed 1", "5\n0\n3\n"),
    ("roll -n 1 -c 2 --source seeded --seed 1", "0\n0\n"),
    ("roll -n 6 -c 1025 --source seeded --seed 1",
     (2050, "d7d56c1732612e634df440e62d80f08f184a17642ac2656180babce0c5a05c5a")),
    ("roll -n 1000000000000000 -c 1500 --source seeded --seed 5",
     (23861, "20372c7e48556897ad1fac00ed0a81e16435257fd6706b9ade8e246c6fc6a24d")),
    ("roll --plan 2,3 -c 2 --source seeded --seed 1", "1 2\n0 0\n"),
    ("roll --plan 2,3,52 -c 3 --source seeded --seed 1", "1 2 50\n0 1 46\n1 1 36\n"),
    ("roll --plan 6,6 -c 3 --source seeded --seed 1", "5 0\n3 0\n2 0\n"),
    ("roll --plan 6,6,6,6,6 -c 3 --source seeded --seed 1",
     "5 0 3 0 1\n2 4 3 1 4\n3 1 5 0 1\n"),
    ("roll --plan 6,6,6,6,6,6,6,6,6,6 -c 1000 --source seeded --seed 1",
     (20000, "2b0b6c4261e5589e55d6cf2fb87ac627f2f4ee72d2ecd0a5201da10308731a01")),
    ("roll -n 6 -c 1000 -W 24 -B 5 --source seeded --seed 1",
     (2000, "eb45d1505e2949073646fded77bc174f1cb4dc323c0883d178634ea22c1d5b0f")),
    ("roll -n 6 -c 1000 -W 13 -B 7 --source seeded --seed 1",
     (2000, "9147ce4b0e9e5112143a1cf9aadc7a035f7820b6087e2b4c1f7db40a6945eb5c")),
    ("roll -n 3 -c 1000 -W 5 -B 3 --source seeded --seed 1",
     (2000, "95adc29cd9423aaf92b768401336aa09a233f5534badf6caf1cc4d6cd26bd308")),
    ("shuffle --deck 52 --source seeded --seed 7",
     "21 44 14 33 6 47 22 30 34 24 35 2 27 0 36 23 4 28 8 32 50 19 37 10 49 31 "
     "17 9 25 38 43 26 45 39 18 13 46 16 29 20 1 3 41 12 15 48 51 5 7 42 40 11\n"),
    ("shuffle --deck 1 --source seeded --seed 1", "0\n"),
    ("bench -n 6 --rolls 20000 --seed 1 --baseline",
     "sampler,n,rolls,bits_in,pool_delta,entropy_out,waste_per_roll,efficiency,"
     "chi_square,dof\n"
     "recycler,6,20000,51760,60.74998558,51699.25001,0,1,10.0288,5\n"
     "naive,6,20000,79959,0,51699.25001,1.412987499,0.6465719933,2.398,5\n"),
    ("bench -n 6 --rolls 3000 --seed 10 --baseline",
     "sampler,n,rolls,bits_in,pool_delta,entropy_out,waste_per_roll,efficiency,"
     "chi_square,dof\n"
     "recycler,6,3000,7816,61.11249784,7754.887502,0,1,2.568,5\n"
     "naive,6,3000,11898,0,7754.887502,1.381037499,0.6517807617,0.628,5\n"),
    ("bench -n 33 --rolls 5000 --seed 4 -W 13 -B 5 --baseline",
     "sampler,n,rolls,bits_in,pool_delta,entropy_out,waste_per_roll,efficiency,"
     "chi_square,dof\n"
     "recycler,33,5000,25705,6.475733431,25221.9706,0.09531073396,0.9814559908,"
     "18.7852,32\n"
     "naive,33,5000,57744,0,25221.9706,6.504405881,0.4367894603,35.0476,32\n"),
    ("enumerate -l 8 -n 6", "counts: 42 42 42 42 42 42\ndiscards: 4 tapes onto [0, 4)\nPASS\n"),
    ("enumerate -l 3 -n 3", "counts: 2 2 2\ndiscards: 2 tapes onto [0, 2)\nPASS\n"),
    ("enumerate -l 8 -n 16",
     "counts: 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16 16\n"
     "discards: 0 tapes onto [0, 0)\nPASS\n"),
    ("analyze -n 33 --m-from 64 --m-to 2^24",
     (1247, "1ecd16775b9fad615911fef1efbaa85d36f31a9088ee397350f63ef1420c5e97")),
    ("analyze -n 2 --m-from 2 --m-to 2",
     "m,p,binary_entropy,waste_per_roll,eta_estimate,in_regime\n"
     "2,1,0,0,-0.2213475204,0\n"),
]


@pytest.mark.parametrize("command, want", FROZEN, ids=[command for command, _ in FROZEN])
def test_frozen_output(capsys, command, want):
    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if isinstance(want, str):
        assert out == want
    else:  # a failure shows the length, which tells a cut-short run from a changed one
        assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == want
