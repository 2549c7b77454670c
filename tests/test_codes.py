import random
import signal
from contextlib import contextmanager

import pytest

from neurocode import (Code, Interval, InvalidCodeError, code_from_id,
                       downward_closure, minimal_transversals, neurons_from_mask,
                       submasks)
from neurocode.codes import (_code_from_bits, _down_closure, _intersection_closure,
                             _neuron_names, _set_bits, _up_closure)

from oracles import (
    EXAMPLE_COMPLEMENT_WORDS,
    EXAMPLE_WORDS,
    _bitset,
    _without_vertex,
    all_codes,
    down_closure,
    example_code,
    example_complement,
    intersection_closure,
    oracle_complement,
    oracle_intersections,
    oracle_maximal_codewords,
    oracle_maximal_intervals,
    random_codes,
    sample_codes,
    up_closure,
)


def oracle_corpus(n: int, seed: int):
    """Codes for the differential tests: 150 uniform id samples where ids
    can be drawn (n <= 5), fewer random codes of varied density above."""
    if n <= 5:
        return sample_codes(n, 150, seed)
    return random_codes(n, {6: 30, 7: 12, 8: 6}[n], seed)


class TestComplement:
    def test_worked_example(self):
        assert example_code().complement.words == EXAMPLE_COMPLEMENT_WORDS

    def test_single_neuron(self):
        assert Code(1, {0}).complement.words == frozenset({1})

    def test_involution_of_example(self):
        assert example_complement().complement.words == EXAMPLE_WORDS

    def test_involution_exhaustive_n3(self):
        for code in all_codes(3):
            assert code.complement.complement == code


def word_bitsets(n: int) -> list[int]:
    """Word bitsets for the bitset-built codes: every id with n <= 3, 500
    seeded ids at n = 4, and seeded sparse, even and dense bitsets above."""
    if n <= 3:
        return list(range(1, (1 << (1 << n)) - 1))
    rng = random.Random(0xB175 + n)
    if n == 4:
        return rng.sample(range(1, (1 << 16) - 1), 500)
    size = 1 << n
    out = [1, 1 << (size - 1), (1 << size) - 2, (1 << (size - 1)) - 1]
    for density in (0.1, 0.5, 0.9):
        for _ in range({8: 10, 12: 3, 16: 2}[n]):
            out.append(int("".join("1" if rng.random() < density else "0"
                                   for _ in range(size)), 2))
    return out


class TestCodeFromBits:
    """Survey ids and complements are built from their word bitset; they
    must be the codes that ``Code`` builds word by word."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16])
    def test_equals_the_word_by_word_code(self, n):
        for bits in word_bitsets(n):
            code = code_from_id(n, bits)
            ref = Code(n, frozenset(w for w in range(1 << n) if bits >> w & 1))
            assert code == ref
            assert hash(code) == hash(ref)
            assert code.word_list == ref.word_list
            assert code.word_bits == bits == ref.word_bits

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16])
    def test_complement_matches_oracle(self, n):
        for bits in word_bitsets(n):
            code = code_from_id(n, bits)
            comp = code.complement
            ref = oracle_complement(code)
            assert comp == ref
            assert comp.word_list == ref.word_list
            assert comp.word_bits == ref.word_bits
            assert comp.complement == code

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_refuses_empty_full_and_out_of_range(self, n):
        full = (1 << (1 << n)) - 1
        for bits in (0, full, -1, -full, full + 1, full + 2, 1 << ((1 << n) + 1)):
            with pytest.raises(InvalidCodeError):
                _code_from_bits(n, bits)

    def test_refuses_bad_neuron_count(self):
        for n in (0, 17, True):
            with pytest.raises(InvalidCodeError):
                _code_from_bits(n, 1)


class TestInterval:
    def test_members_of_two_element_interval(self):
        assert Interval(0b010, 0b011).members(3) == frozenset({0b010, 0b011})

    def test_degenerate_interval(self):
        assert Interval(0b101, 0b101).members(3) == frozenset({0b101})

    def test_full_lattice(self):
        assert Interval(0, 0b111).members(3) == frozenset(range(8))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Interval(0b001, 0b010)

    def test_members_requires_fitting_n(self):
        with pytest.raises(ValueError):
            Interval(0, 0b100).members(2)


@contextmanager
def deadline(seconds: float):
    """Fail instead of hanging: SIGALRM raises in the test after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestNeuronsFromMask:
    @staticmethod
    def bit_by_bit(mask):
        return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    @pytest.mark.parametrize("mask", [0, 255, 256, 2**16 - 1, 2**16, 2**20 + 5])
    def test_matches_bit_by_bit(self, mask):
        assert neurons_from_mask(mask) == self.bit_by_bit(mask)
        assert _neuron_names(mask) == tuple(map(str, self.bit_by_bit(mask)))

    def test_every_two_byte_mask(self):
        for mask in range(1 << 16):
            assert neurons_from_mask(mask) == self.bit_by_bit(mask)


class TestNegativeMasks:
    @pytest.mark.parametrize("call", [
        lambda: neurons_from_mask(-1),
        lambda: list(submasks(-3)),
        lambda: minimal_transversals([-1]),
        lambda: Interval(0, -1),
    ], ids=["neurons_from_mask", "submasks", "minimal_transversals", "Interval"])
    def test_refused_up_front(self, call):
        with deadline(1.0), pytest.raises(ValueError):
            call()


class TestCodeConstruction:
    def test_rejects_empty(self):
        with pytest.raises(InvalidCodeError):
            Code(2, frozenset())

    def test_rejects_full(self):
        with pytest.raises(InvalidCodeError):
            Code(1, {0, 1})

    def test_rejects_out_of_range_word(self):
        with pytest.raises(InvalidCodeError):
            Code(2, {0b100})

    def test_rejects_bad_neuron_count(self):
        with pytest.raises(InvalidCodeError):
            Code(0, {0})
        with pytest.raises(InvalidCodeError):
            Code(17, {0})

    def test_rejects_bool_neuron_count(self):
        # True is an int, but it renders as n=True, which no document parses
        with pytest.raises(InvalidCodeError, match="got True"):
            Code(True, {0})

    def test_from_neuron_sets(self):
        code = Code.from_neuron_sets(3, [(), (2,), (3,), (1, 2), (1, 3)])
        assert code == example_code()

    def test_deduplication(self):
        assert len(Code(2, (0, 0, 1))) == 2


class TestContainsInterval:
    def test_contained(self):
        assert example_code().contains_interval(Interval(0b010, 0b011))

    def test_not_contained(self):
        # the word {1} is missing from the example code
        assert not example_code().contains_interval(Interval(0, 0b011))

    def test_degenerate_for_every_codeword(self):
        code = example_code()
        for w in code:
            assert code.contains_interval(Interval(w, w))


class TestMaximalIntervals:
    def test_worked_example(self):
        expected = {Interval(0, 0b010), Interval(0, 0b100),
                    Interval(0b010, 0b011), Interval(0b100, 0b101)}
        assert example_code().maximal_intervals == expected

    def test_complement_example(self):
        expected = {Interval(0b001, 0b001), Interval(0b110, 0b111)}
        assert example_complement().maximal_intervals == expected

    def test_singleton_code(self):
        assert Code(3, {0b011}).maximal_intervals == {Interval(0b011, 0b011)}

    def test_oracle_exhaustive_n3(self):
        for code in all_codes(3):
            assert code.maximal_intervals == oracle_maximal_intervals(code)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_oracle_random(self, n):
        for code in oracle_corpus(n, seed=4200 + n):
            assert code.maximal_intervals == oracle_maximal_intervals(code)

    def test_fallback_path_beyond_table(self):
        # n = 9, beyond the sizes the random tests reach
        code = Code(9, {0, 0b1, 0b11, 0b111, 0b100000000, 0b100000001})
        assert code.maximal_intervals == oracle_maximal_intervals(code)


class TestMaximalCodewords:
    def test_worked_example(self):
        assert example_code().maximal_codewords == {0b011, 0b101}

    def test_singleton(self):
        assert Code(4, {0b0110}).maximal_codewords == {0b0110}

    def test_inclusion_scan(self):
        code = Code(3, {0, 0b001, 0b010, 0b100, 0b011, 0b101})
        assert code.maximal_codewords == {0b011, 0b101}

    def test_oracle_exhaustive_n3(self):
        for code in all_codes(3):
            assert code.maximal_codewords == oracle_maximal_codewords(code)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_oracle_random(self, n):
        for code in oracle_corpus(n, seed=4300 + n):
            assert code.maximal_codewords == oracle_maximal_codewords(code)

    def test_full_range(self):
        # every word but the full one: the n words of size n - 1 are maximal
        code = Code(16, frozenset(range((1 << 16) - 1)))
        assert code.maximal_codewords == {0xFFFF ^ 1 << i for i in range(16)}


class TestClosureKernels:
    def test_down_closure_exhaustive_n3(self):
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                assert _down_closure(bits, n) == down_closure(_set_bits(bits), n)

    def test_up_closure_exhaustive_n3(self):
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                assert _up_closure(bits, n) == up_closure(_set_bits(bits), n)

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_up_closure_random_families(self, n):
        rng = random.Random(4600 + n)
        for _ in range(40):
            family = {rng.getrandbits(n) for _ in range(rng.randint(0, 9))}
            assert _up_closure(sum(1 << w for w in family), n) == up_closure(family, n)

    def test_intersection_closure_exhaustive_n3(self):
        for n in (1, 2, 3):
            for bits in range(1, 1 << (1 << n)):
                expected = sum(1 << w for w in oracle_intersections(_set_bits(bits)))
                assert _intersection_closure(bits, n) == expected

    @pytest.mark.parametrize("n", [5, 8, 11])
    def test_intersection_closure_random_families(self, n):
        rng = random.Random(4400 + n)
        for _ in range(40):
            family = {rng.getrandbits(n) for _ in range(rng.randint(1, 9))}
            bits = sum(1 << w for w in family)
            expected = sum(1 << w for w in oracle_intersections(family))
            assert _intersection_closure(bits, n) == expected
            assert _down_closure(bits, n) == down_closure(family, n)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_intersection_closure_matches_reference(self, n):
        # an n that is no power of two splits the neurons unevenly somewhere
        rng = random.Random(4500 + n)
        for density in (0.01, 0.1, 0.5, 0.9):
            bits = sum(1 << w for w in range(1 << n) if rng.random() < density)
            bits = bits or 1 << rng.getrandbits(n)
            assert _intersection_closure(bits, n) == intersection_closure(_set_bits(bits), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_intersection_closure_edge_families(self, n):
        full = (1 << n) - 1
        cube = (1 << (1 << n)) - 1
        one = 0x5A5A & full
        cases = [(1 << one, 1 << one), (1, 1)]  # one word; the empty word alone
        for w in {0, full, 1, full ^ 1 << n - 1}:
            # w is the intersection of two other words iff it misses two neurons
            less = cube ^ 1 << w
            cases.append((less, cube if (full ^ w).bit_count() > 1 else less))
        for bits, expected in cases:
            assert _intersection_closure(bits, n) == expected
            assert intersection_closure(_set_bits(bits), n) == expected

    def test_intersection_closure_star_code(self):
        # the 32,768 words holding neuron 1 are closed under intersection;
        # without {1..14} they still meet in it ({1..15} and {1..14, 16})
        star = sum(1 << w for w in range(1 << 16) if w & 1)
        for bits in (star, star ^ 1 << 0x3FFF):
            assert _intersection_closure(bits, 16) == star
            assert intersection_closure(_set_bits(bits), 16) == star


class TestOracleBitsets:
    """The oracles' byte-built bitsets against the per-subset sums they replaced."""

    @pytest.mark.parametrize("size", range(11))
    def test_without_vertex(self, size):
        assert _without_vertex(size) == tuple(
            sum(1 << s for s in range(1 << size) if not s >> v & 1) for v in range(size))

    @pytest.mark.parametrize("size", range(11))
    def test_bitset(self, size):
        rng = random.Random(4900 + size)
        for count in (0, 1, 2, 7, 1 << size):
            masks = [rng.randrange(1 << size) for _ in range(count)]
            assert _bitset(masks, size) == sum(1 << m for m in set(masks))


class TestDownwardClosure:
    def test_worked_example(self):
        assert downward_closure(example_code()).facets == {0b011, 0b101}

    def test_singleton(self):
        assert downward_closure(Code(3, {0b110})).facets == {0b110}

    def test_complement_example(self):
        assert downward_closure(example_complement()).facets == {0b111}


class TestStructuralInvariantsExhaustive:
    def test_all_codes_n3(self):
        for code in all_codes(3):
            ivs = code.maximal_intervals
            # antichain
            for a in ivs:
                for b in ivs:
                    assert a == b or not (a.lo & ~b.lo == 0 and b.hi & ~a.hi == 0)
            # union of members is exactly the code
            covered = frozenset().union(*(iv.members(3) for iv in ivs))
            assert covered == code.words
            # every degenerate interval sits inside some maximal interval
            for w in code:
                assert any(iv.lo & ~w == 0 and w & ~iv.hi == 0 for iv in ivs)
            # facets of the closure are the maximal codewords
            assert downward_closure(code).facets == code.maximal_codewords
