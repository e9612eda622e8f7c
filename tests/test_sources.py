"""Bit-source contracts: order, exhaustion, counting, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicepool import (
    CountingSource,
    EntropyExhausted,
    EntropySource,
    OsSource,
    SeededSource,
    TapeSource,
)


def test_tape_byte_readout():
    assert TapeSource(bytes([0xA7])).next_bits(8) == 167


def test_tape_sequential_bytes():
    tape = TapeSource(bytes([0xFF, 0x00]))
    assert tape.next_bits(8) == 255
    assert tape.next_bits(8) == 0


def test_tape_exhaustion():
    tape = TapeSource(bytes([0xFF]))
    tape.next_bits(8)
    with pytest.raises(EntropyExhausted):
        tape.next_bits(8)


@pytest.mark.parametrize("data,nbits", [(b"\x00", 9), (b"", -1)])
def test_tape_length_outside_its_bytes(data, nbits):
    with pytest.raises(ValueError):
        TapeSource(data, nbits)


@pytest.mark.parametrize("nbits", [4.5, "8"])
def test_tape_length_must_be_an_int(nbits):
    with pytest.raises(TypeError):
        TapeSource(b"\xff", nbits)


def test_tape_refuses_empty_read():
    tape = TapeSource(b"\xff")
    with pytest.raises(ValueError):
        tape.next_bits(0)
    assert tape.bits_remaining == 8


def test_tape_partial_read_then_exhaustion():
    tape = TapeSource(bytes([0xAB]))
    assert tape.next_bits(4) == 0xA
    with pytest.raises(EntropyExhausted):
        tape.next_bits(8)
    assert tape.next_bits(4) == 0xB  # the failed read consumed nothing


def test_tape_bit_order_msb_first():
    tape = TapeSource(bytes([0b10100111]))
    assert tape.next_bits(3) == 0b101
    assert tape.next_bits(5) == 0b00111


def test_chunk_size_independence():
    wide = TapeSource(bytes([0x12, 0x34])).next_bits(16)
    tape = TapeSource(bytes([0x12, 0x34]))
    assert (tape.next_bits(8) << 8) | tape.next_bits(8) == wide == 0x1234


def test_tape_whole_content_is_one_big_endian_integer():
    data = bytes([0xDE, 0xAD, 0xBE])
    assert TapeSource(data).next_bits(24) == int.from_bytes(data, "big")


@pytest.mark.parametrize("nbits", [1, 3, 8, 9, 17])
def test_from_int_round_trip(nbits):
    for value in (0, 1, (1 << nbits) - 1):
        assert TapeSource.from_int(value, nbits).next_bits(nbits) == value


def test_from_int_rejects_oversized_value():
    with pytest.raises(ValueError):
        TapeSource.from_int(4, 2)


def test_tape_nbits_trims():
    tape = TapeSource(bytes([0b11100000]), nbits=3)
    assert tape.next_bits(3) == 0b111
    with pytest.raises(EntropyExhausted):
        tape.next_bits(1)


@settings(deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1),
       counts=st.lists(st.integers(1, 200), min_size=1, max_size=20))
def test_seeded_chunked_reads_spell_one_wide_read(seed, counts):
    source = SeededSource(seed)
    joined = 0
    for count in counts:
        bits = source.next_bits(count)
        assert 0 <= bits < 1 << count  # else `|` could hide bits read twice
        joined = (joined << count) | bits
    assert joined == SeededSource(seed).next_bits(sum(counts))


class WordList(EntropySource):
    """Serves fixed 64-bit words in order and counts the `_pull` calls."""

    def __init__(self, words):
        self.words, self.pulls = words, 0

    def _pull(self):
        self.pulls += 1
        return self.words[self.pulls - 1]


WORDS = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x8000000000000001]


def test_a_read_pulls_only_the_words_it_needs():
    bytewise = WordList(WORDS)
    assert [bytewise.next_bits(8) for _ in range(8)] == list(WORDS[0].to_bytes(8, "big"))
    assert bytewise.pulls == 1
    assert bytewise.next_bits(8) == 0xFE and bytewise.pulls == 2
    wide = WordList(WORDS)
    assert wide.next_bits(64) == WORDS[0] and wide.pulls == 1
    wider = WordList(WORDS)
    assert wider.next_bits(65) == WORDS[0] << 1 | 1 and wider.pulls == 2
    emptied = WordList(WORDS)
    assert (emptied.next_bits(3), emptied.next_bits(61)) == (0, WORDS[0])
    assert emptied.pulls == 1  # the buffer is empty and no word is pulled ahead
    assert emptied.next_bits(72) == WORDS[1] << 8 | 0x80 and emptied.pulls == 3


def test_seeded_sources_share_no_buffer():
    alone = [tuple(s.next_bits(8) for _ in range(24))
             for s in (SeededSource(1), SeededSource(2))]
    a, b = SeededSource(1), SeededSource(2)
    pairs = [(a.next_bits(8), b.next_bits(8)) for _ in range(24)]
    assert list(zip(*pairs)) == alone
    assert alone[0][0] == 0x91
    SeededSource(1).next_bits(3)
    assert SeededSource(1).next_bits(8) == 0x91


def test_seeded_determinism():
    a, b = SeededSource(42), SeededSource(42)
    assert [a.next_bits(8) for _ in range(32)] == [b.next_bits(8) for _ in range(32)]


def test_seeded_stream_frozen():
    # The seeded stream is part of the package contract; fixtures rely on it.
    source = SeededSource(42)
    first16 = bytes(source.next_bits(8) for _ in range(16))
    assert first16.hex() == "bdd732262feb6e9528efe333b266f103"


def test_nearby_seeds_diverge_within_16_bytes():
    source_a, source_b = SeededSource(42), SeededSource(43)
    a = bytes(source_a.next_bits(8) for _ in range(16))
    b = bytes(source_b.next_bits(8) for _ in range(16))
    assert a != b


def test_seed_zero_valid():
    assert 0 <= SeededSource(0).next_bits(64) < 1 << 64


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        SeededSource(-1)


def test_counting_transparency():
    plain = SeededSource(9)
    counted = CountingSource(SeededSource(9))
    assert [plain.next_bits(5) for _ in range(100)] == [
        counted.next_bits(5) for _ in range(100)
    ]
    assert counted.bits_delivered == 500


def test_counting_over_os_source():
    counted = CountingSource(OsSource())
    for _ in range(10):
        counted.next_bits(8)
    assert counted.bits_delivered == 80


def test_counting_adds_nothing_on_exhaustion():
    counted = CountingSource(TapeSource(bytes([0x01])))
    counted.next_bits(8)
    with pytest.raises(EntropyExhausted):
        counted.next_bits(8)
    assert counted.bits_delivered == 8


def test_os_source_range():
    source = OsSource()
    for _ in range(2):
        assert 0 <= source.next_bits(64) < 1 << 64


def test_os_source_emits_both_bit_values():
    source = OsSource()
    seen = {source.next_bits(1) for _ in range(1000)}
    assert seen == {0, 1}


def test_base_source_has_no_words():
    with pytest.raises(NotImplementedError):
        EntropySource().next_bits(8)


def test_nonpositive_chunk_rejected():
    with pytest.raises(ValueError):
        SeededSource(1).next_bits(0)


@pytest.mark.parametrize("make", [
    lambda: SeededSource(1), OsSource, lambda: TapeSource(bytes([0xA7])),
], ids=["seeded", "os", "tape"])
@pytest.mark.parametrize("count", [8.0, "8", 0.5], ids=repr)
def test_non_integer_bit_count_leaves_source_usable(make, count):
    source = make()
    with pytest.raises(TypeError):
        source.next_bits(count)
    bits = source.next_bits(8)
    assert 0 <= bits < 256
    if isinstance(source, SeededSource):
        assert bits == SeededSource(1).next_bits(8)
    if isinstance(source, TapeSource):
        assert bits == 0xA7


def test_empty_tape_refuses_a_float_count_before_exhaustion():
    with pytest.raises(TypeError):
        TapeSource(b"").next_bits(8.0)
