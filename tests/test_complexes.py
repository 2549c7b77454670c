import random
import time

import pytest

from neurocode import (
    CanonicalForm,
    CapExceededError,
    Code,
    Interval,
    PolarFace,
    Pseudomonomial,
    SimplicialComplex,
    SquarefreeMonomialIdeal,
    Universe,
    canonical_form,
    complex_of_ideal,
    divides,
    face_to_interval,
    factor_complex,
    factor_ideal,
    ideal_of_complex,
    is_effective,
    minimal_transversals,
    polar_complex,
    polar_ideal,
    polarize,
    prime_sets,
    sr_minimal_primes,
)
from neurocode.codes import _INTERVAL_KEY, _maximal_members
from neurocode.complexes import _FACE_KEY
from neurocode.ideals import _PM_KEY, _PRIME_KEY, PrimePseudomonomialIdeal

from oracles import (
    all_codes,
    all_prime_sets,
    check_correspondences,
    cube_minimal_transversals,
    example_code,
    example_complement,
    factor_ideal_by_primes,
    is_face,
    minimal_members,
    oracle_complex_facets,
    random_codes,
    sample_codes,
)


def pf(x, y):
    return PolarFace(x, y)


class TestPolarize:
    def test_two_negative_factors(self):
        assert polarize(Pseudomonomial(0, 0b101)) == pf(0, 0b101)

    def test_mixed(self):
        assert polarize(Pseudomonomial(0b010, 0b100)) == pf(0b010, 0b100)

    def test_unit(self):
        assert polarize(Pseudomonomial(0, 0)) == pf(0, 0)

    def test_rendering(self):
        assert str(pf(0b111, 0b001)) == "123~1"
        assert str(pf(0b001, 0b110)) == "1~2~3"
        assert str(pf(0, 0)) == "{}"

    def test_rendering_across_neurons_9_and_10(self):
        assert str(pf(1 << 8, 1 << 8)) == "9~9"
        assert str(pf(1 << 9, 0)) == "{10}~{}"
        assert str(pf(0b1, 1 << 9)) == "{1}~{10}"
        assert str(pf(1 << 8 | 1 << 15, 0b11)) == "{9,16}~{1,2}"


class TestPolarIdeal:
    def test_complement_example(self):
        gens = polar_ideal(example_complement()).generators
        assert gens == {0b101 << 3, 0b011 << 3, 0b010 | 0b100 << 3, 0b100 | 0b010 << 3}

    def test_worked_example(self):
        gens = polar_ideal(example_code()).generators
        assert gens == {0b001 | 0b110 << 3, 0b110}

    def test_single_neuron(self):
        assert polar_ideal(Code(1, {0})).generators == {0b1}


class TestFactorIdeal:
    def test_complement_example_expansion(self):
        expected = {
            0b010 | 0b010 << 3, 0b010 | 0b100 << 3,
            0b100 | 0b010 << 3, 0b100 | 0b100 << 3,
            0b011 << 3, 0b101 << 3,
        }
        assert factor_ideal(example_complement()).generators == expected

    def test_single_prime(self):
        assert factor_ideal(Code(1, {0})).generators == {0b1}

    def test_agrees_with_factor_complex_exhaustive_n3(self):
        # factor_ideal is read off factor_complex, so the primes route is
        # the definition it is checked against; the round trip still holds
        for n in (1, 2, 3):
            for code in all_codes(n):
                assert factor_ideal(code).generators == factor_ideal_by_primes(code)
                assert complex_of_ideal(factor_ideal(code)) == factor_complex(code)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_agrees_with_primes_route_random(self, n):
        for code in random_codes(n, 6, seed=9800 + n):
            assert factor_ideal(code).generators == factor_ideal_by_primes(code)

    @pytest.mark.parametrize("n, message", [
        (11, "limit of 10 on the factor ideal"), (13, "cap of 12 on the canonical form")])
    def test_refused_above_n10_before_any_work(self, n, message):
        # Berge multiplication took about 0.8 s per code at n = 9
        for code in random_codes(n, 3, seed=9900 + n):
            t0 = time.perf_counter()
            with pytest.raises(CapExceededError, match=message):
                factor_ideal(code)
            assert time.perf_counter() - t0 < 1
            assert "maximal_intervals" not in code.__dict__


class TestComplexOfIdeal:
    def test_plain_single_monomial(self):
        ideal = SquarefreeMonomialIdeal(Universe(3, polar=False), frozenset({0b110}))
        assert complex_of_ideal(ideal).facets == {0b011, 0b101}

    def test_zero_ideal_gives_full_simplex(self):
        ideal = SquarefreeMonomialIdeal(Universe(3, polar=False), frozenset())
        assert complex_of_ideal(ideal).facets == {0b111}

    def test_polar_ideal_of_complement_example(self):
        cx = complex_of_ideal(polar_ideal(example_complement()))
        assert cx.polar_facets() == {pf(0b001, 0b110), pf(0b111, 0b001),
                                     pf(0b011, 0b010), pf(0b101, 0b100)}

    def test_against_subset_scan_oracle(self):
        rng = random.Random(77)
        for _ in range(200):
            size = rng.randint(1, 10)
            count = rng.randint(0, 6)
            supports = {rng.randint(1, (1 << size) - 1) for _ in range(count)}
            ideal = SquarefreeMonomialIdeal(
                Universe(size, polar=False) if size % 2 or size > 8
                else Universe(size // 2, polar=True),
                frozenset(minimal_members(list(supports))))
            assert complex_of_ideal(ideal).facets == oracle_complex_facets(
                ideal.generators, size)


class TestIdealComplexRoundTrip:
    def test_round_trip_random(self):
        rng = random.Random(88)
        for _ in range(200):
            size = rng.randint(1, 8)
            universe = Universe(size, polar=False)
            supports = {rng.randint(1, (1 << size) - 1) for _ in range(rng.randint(0, 6))}
            ideal = SquarefreeMonomialIdeal(
                universe, frozenset(minimal_members(list(supports))))
            assert ideal_of_complex(complex_of_ideal(ideal)) == ideal
            cx = complex_of_ideal(ideal)
            assert complex_of_ideal(ideal_of_complex(cx)) == cx

    def test_void_complex_refused_by_name(self):
        void = SimplicialComplex(Universe(3, polar=False), frozenset())
        with pytest.raises(ValueError, match="void complex has the unit ideal"):
            ideal_of_complex(void)


class TestFactorComplex:
    def test_complement_example(self):
        assert factor_complex(example_complement()).polar_facets() == {
            pf(0b001, 0b110), pf(0b111, 0b001)}

    def test_worked_example(self):
        assert factor_complex(example_code()).polar_facets() == {
            pf(0b010, 0b111), pf(0b100, 0b111),
            pf(0b011, 0b101), pf(0b101, 0b011)}

    def test_singleton(self):
        code = Code(3, {0b110})
        assert factor_complex(code).polar_facets() == {pf(0b110, 0b001)}

    def test_cap_refuses_before_the_intervals(self):
        code = Code(13, {0, 1, 3})
        with pytest.raises(CapExceededError, match="cap of 12"):
            factor_complex(code)
        assert "maximal_intervals" not in code.__dict__


class TestPolarComplex:
    @pytest.mark.parametrize("n, message", [
        (11, "limit of 10 on the polar complex"), (12, "limit of 10 on the polar complex"),
        (13, "cap of 12 on the canonical form")])
    def test_refused_above_n10_before_any_work(self, n, message):
        code = Code(n, {0, 1, 3})
        with pytest.raises(CapExceededError, match=message):
            polar_complex(code)
        assert "complement" not in code.__dict__

    def test_complement_example(self):
        assert polar_complex(example_complement()).polar_facets() == {
            pf(0b001, 0b110), pf(0b111, 0b001),
            pf(0b011, 0b010), pf(0b101, 0b100)}

    def test_singleton_equals_factor_complex(self):
        for words in ({0b110}, {0b001}, {0b1010}):
            n = 4 if max(words) > 7 else 3
            code = Code(n, words)
            assert polar_complex(code) == factor_complex(code)

    def test_factor_is_effective_part_exhaustive_n3(self):
        for code in all_codes(3):
            pc = polar_complex(code)
            effective = frozenset(
                f for f in pc.facets if is_effective(PolarFace.from_mask(f, 3), 3))
            assert effective == factor_complex(code).facets


class TestEffectiveness:
    def test_effective_facet(self):
        assert is_effective(pf(0b001, 0b110), 3)

    def test_defective_facet(self):
        assert not is_effective(pf(0b011, 0b010), 3)

    def test_empty_face(self):
        assert not is_effective(pf(0, 0), 1)


class TestFaceToInterval:
    def test_full_plain_part(self):
        assert face_to_interval(pf(0b111, 0b001), 3) == Interval(0b110, 0b111)

    def test_degenerate(self):
        assert face_to_interval(pf(0b001, 0b110), 3) == Interval(0b001, 0b001)

    def test_inverse_of_interval_map(self):
        for w in range(8):
            face = pf(w, 0b111 & ~w)
            assert face_to_interval(face, 3) == Interval(w, w)

    def test_defective_rejected(self):
        with pytest.raises(ValueError):
            face_to_interval(pf(0b011, 0b010), 3)


class TestPrimeSets:
    def test_complement_example_minimal(self):
        assert prime_sets(example_complement()) == {pf(0, 0b010), pf(0, 0b100)}

    def test_all_prime_sets_are_upward_closed(self):
        code = example_complement()
        full_sets = all_prime_sets(code)
        minimal = {f.ypart for f in prime_sets(code)}
        for b in full_sets:
            assert any(m & ~b == 0 for m in minimal)
        for b in range(1 << 3):
            if any(m & ~b == 0 for m in minimal):
                assert b in full_sets

    def test_empty_prime_set_iff_plain_universe_not_a_face(self):
        for code in all_codes(3):
            has_empty = 0 in all_prime_sets(code)
            assert has_empty == (not is_face(factor_complex(code), 0b111))

    def test_matches_definition(self):
        # the minimal members of every barred set B with [n] + B-bar not a
        # face, found by scanning all 2**n candidates
        codes = [c for n in (1, 2, 3) for c in all_codes(n)]
        codes += [c for n in range(4, 9) for c in random_codes(n, 6, seed=5100 + n)]
        for code in codes:
            found = all_prime_sets(code)
            minimal = {b for b in found
                       if not any(a != b and a & ~b == 0 for a in found)}
            assert prime_sets(code) == {pf(0, b) for b in minimal}

    def test_cap(self):
        # no cap: derived from the complement's maximal codewords
        full = (1 << 16) - 1
        assert prime_sets(Code(16, {0})) == {pf(0, 0)}
        assert prime_sets(Code(16, {0}).complement) == {pf(0, full)}
        star = Code(16, {w for w in range(1 << 16) if w & 1})
        assert prime_sets(star) == {pf(0, 0b1)}

    def test_delta_correspondence_exhaustive_n3(self):
        # minimal prime-sets of the complement's factor complex are the
        # barred complements of maximal codewords
        for code in all_codes(3):
            expected = {pf(0, 0b111 & ~m) for m in code.maximal_codewords}
            assert prime_sets(code.complement) == expected


class TestMemo:
    MEMOIZED = (canonical_form, polar_ideal, factor_ideal, factor_complex,
                polar_complex)

    def test_second_call_returns_the_same_object(self):
        code = example_code()
        for fn in self.MEMOIZED:
            assert fn(code) is fn(code), fn.__name__

    def test_complement_keeps_its_own_artifacts(self):
        code = example_code()
        comp = code.complement
        for fn in self.MEMOIZED:
            ours, theirs = fn(code), fn(comp)
            assert ours is not theirs, fn.__name__
            assert fn(code) is ours and fn(comp) is theirs
        assert canonical_form(code).elements != canonical_form(comp).elements

    def test_wrapper_keeps_name_and_module(self):
        for fn in self.MEMOIZED:
            assert fn.__wrapped__.__name__ == fn.__name__
            assert fn.__module__ in ("neurocode.ideals", "neurocode.complexes")


class TestSrMinimalPrimes:
    def test_worked_example(self):
        assert sr_minimal_primes(example_code()) == {0b010, 0b100}

    def test_singleton(self):
        assert sr_minimal_primes(Code(3, {0b110})) == {0b001}

    def test_transversal_cross_check_exhaustive_n3(self):
        from neurocode import canonical_form
        for code in all_codes(3):
            mono = [pm.sigma for pm in canonical_form(code).monomials()]
            assert sr_minimal_primes(code) == minimal_transversals(mono)


class TestMinimalTransversals:
    def test_single_edge(self):
        assert minimal_transversals([0b110]) == {0b010, 0b100}

    def test_no_edges(self):
        assert minimal_transversals([]) == {0}

    def test_empty_edge_kills_everything(self):
        assert minimal_transversals([0b1, 0]) == frozenset()

    def test_oracle_random_hypergraphs(self):
        rng = random.Random(99)
        for _ in range(300):
            size = rng.randint(1, 10)
            edges = {rng.randint(1, (1 << size) - 1) for _ in range(rng.randint(1, 7))}
            got = minimal_transversals(edges)
            hitting = [t for t in range(1 << size)
                       if all(t & e for e in edges)]
            expected = frozenset(
                t for t in hitting
                if not any(s != t and s & ~t == 0 for s in hitting))
            assert got == expected

    def test_cube_reference_11_to_18_vertices(self):
        rng = random.Random(101)
        t0 = time.perf_counter()
        for size in range(11, 19):
            cases = [[], [0], [rng.randint(1, (1 << size) - 1), 0]]
            for _ in range(12):
                # edges of about 15 to 50 % of the vertices, up to eight of them
                p = rng.choice((0.15, 0.3, 0.5))
                cases.append([sum(1 << v for v in range(size) if rng.random() < p)
                              for _ in range(rng.randint(1, 8))])
            for edges in cases:
                assert minimal_transversals(edges) == cube_minimal_transversals(edges, size)
        assert time.perf_counter() - t0 < 5


class TestTypeValidation:
    def test_complex_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            SimplicialComplex(Universe(2, polar=False), frozenset({0b01, 0b11}))

    def test_ideal_rejects_empty_support(self):
        with pytest.raises(ValueError):
            SquarefreeMonomialIdeal(Universe(2, polar=False), frozenset({0}))

    def test_polar_rendering_requires_polar_universe(self):
        cx = SimplicialComplex(Universe(2, polar=False), frozenset({0b11}))
        with pytest.raises(ValueError):
            cx.polar_facets()


def _families(seed: int, width: int, count: int = 300):
    """Random mask families over ``width`` vertices, plus the edge cases."""
    rng = random.Random(seed)
    families = [frozenset(), frozenset({0}), frozenset({0b1}),
                frozenset({0, 0b1}), frozenset({(1 << width) - 1})]
    for _ in range(count):
        size = rng.randint(0, width)
        families.append(frozenset(
            rng.randrange(1 << size) for _ in range(rng.randint(1, 14))))
    return families


def _pairwise_antichain(masks) -> bool:
    return not any(a != b and a & ~b == 0 for a in masks for b in masks)


class TestAntichainChecks:
    """The bit-parallel antichain checks, through all three constructors,
    and the maximal / minimal filters against the pairwise definition."""

    UNIVERSE = Universe(4, polar=True)  # 8 vertices

    def test_complex_validation(self):
        for fam in _families(9100, 8):
            if _pairwise_antichain(fam):
                assert SimplicialComplex(self.UNIVERSE, fam).facets == fam
            else:
                with pytest.raises(ValueError, match="antichain"):
                    SimplicialComplex(self.UNIVERSE, fam)

    def test_from_faces_keeps_maximal(self):
        for fam in _families(9200, 8):
            expected = {f for f in fam
                        if not any(f != g and f & ~g == 0 for g in fam)}
            assert set(_maximal_members(list(fam))) == expected

    def test_ideal_validation(self):
        for fam in _families(9300, 8):
            fam = fam - {0}
            if _pairwise_antichain(fam):
                assert SquarefreeMonomialIdeal(self.UNIVERSE, fam).generators == fam
            else:
                with pytest.raises(ValueError, match="antichain"):
                    SquarefreeMonomialIdeal(self.UNIVERSE, fam)

    def test_from_supports_keeps_minimal(self):
        for fam in _families(9400, 8):
            fam = fam - {0}
            expected = {g for g in fam
                        if not any(g != h and h & ~g == 0 for h in fam)}
            assert set(minimal_members(list(fam))) == expected

    def test_filters_reject_out_of_range_input(self):
        with pytest.raises(ValueError, match="outside the universe"):
            SimplicialComplex(self.UNIVERSE, frozenset({-1, 0b11}))
        with pytest.raises(ValueError, match="invalid for the universe"):
            SquarefreeMonomialIdeal(self.UNIVERSE, frozenset({-2, 0b1}))
        with pytest.raises(ValueError, match="invalid for the universe"):
            SquarefreeMonomialIdeal(self.UNIVERSE, frozenset({0b1, 1 << 8 | 0b1}))

    def test_canonical_form_validation(self):
        rng = random.Random(9500)
        n = 4
        families = [frozenset(), frozenset({Pseudomonomial(0, 0)}),
                    frozenset({Pseudomonomial(0, 0), Pseudomonomial(0b1, 0)}),
                    frozenset({Pseudomonomial(0, 0), Pseudomonomial(0, 0b1)})]
        for _ in range(300):
            pms = set()
            for _ in range(rng.randint(1, 10)):
                support = rng.randrange(1 << n)
                sigma = rng.randrange(1 << n) & support
                pms.add(Pseudomonomial(sigma, support ^ sigma))
            families.append(frozenset(pms))
        for fam in families:
            if any(p != q and divides(p, q) for p in fam for q in fam):
                with pytest.raises(ValueError, match="antichain"):
                    CanonicalForm(n, fam)
            else:
                assert CanonicalForm(n, fam).elements == fam


def _antichain_of(rng, size: int, width: int) -> list[int]:
    """``size`` distinct masks of ``width // 2`` vertices each: an antichain."""
    out: set[int] = set()
    while len(out) < size:
        out.add(sum(1 << v for v in rng.sample(range(width), width // 2)))
    return sorted(out)


class TestAntichainColumns:
    """The public ``SimplicialComplex`` and ``SquarefreeMonomialIdeal``
    antichain checks on families of up to 2,000 masks over 8 to 40
    vertices, against the minimal members of ``tests/oracles.py``."""

    SIZES = [0, 1, 2, 5, 31, 32, 33, 64, 200, 1000, 2000]

    @staticmethod
    def expected(masks) -> bool:
        return len(minimal_members(masks)) == len(masks)

    @staticmethod
    def accepts(constructor, width: int, masks) -> bool:
        """Whether the constructor takes the masks; it may refuse them only
        for not forming an antichain."""
        try:
            constructor(Universe(width // 2, polar=True), frozenset(masks))
        except ValueError as err:
            assert "antichain" in str(err)
            return False
        return True

    def check(self, width: int, family) -> bool:
        """Both constructors' verdicts against the minimal members, the
        ideal's on the family without the empty mask (never a generator);
        returns the complex's verdict."""
        gens = [m for m in family if m]
        assert self.accepts(SquarefreeMonomialIdeal, width, gens) == self.expected(gens)
        verdict = self.accepts(SimplicialComplex, width, family)
        assert verdict == self.expected(family)
        return verdict

    @pytest.mark.parametrize("width", [8, 20, 32])
    def test_random_families(self, width):
        rng = random.Random(9600 + width)
        outcomes = set()
        for size in self.SIZES:
            for _ in range(3):
                masks = list({rng.getrandbits(width) for _ in range(size)})
                sparse = list({rng.getrandbits(width) & rng.getrandbits(width)
                               & rng.getrandbits(width) for _ in range(size)})
                for family in (masks, sparse):
                    outcomes.add(self.check(width, family))
        assert outcomes == {False, True}

    @pytest.mark.parametrize("width", [8, 20, 32])
    def test_only_comparable_pair_last(self, width):
        # an antichain, then one member and a mask one vertex below or above
        # it that no other member is comparable with, placed last
        rng = random.Random(9700 + width)
        for size in self.SIZES[2:]:
            if size > 40 and width == 8:
                continue  # C(8, 4) = 70 masks of four vertices
            family = _antichain_of(rng, size - 1, width)
            assert self.check(width, family)
            tested = 0
            for member in family:
                others = [m for m in family if m != member]
                below = member & (member - 1)  # the lowest vertex dropped
                above = member | ~member & (member + 1)  # the lowest vertex outside added
                for extra in (below, above):
                    if not any(extra & ~m == 0 or m & ~extra == 0 for m in others):
                        assert not self.check(width, others + [member, extra])
                        assert self.check(width, others + [extra])
                        tested += 1
                if tested >= 2:
                    break
            assert tested

    def test_empty_mask_in_a_large_family(self):
        masks = [0] + [1 << v for v in range(40)]
        assert not self.check(40, masks)
        assert self.check(40, masks[1:])


class TestSortKeys:
    """The attrgetter keys sort like the generated ``__lt__``."""

    @staticmethod
    def disjoint(rng, bits):
        support = rng.getrandbits(bits)
        first = rng.getrandbits(bits) & support
        return first, support ^ first

    @pytest.mark.parametrize("bits", [1, 4, 16])
    def test_keys_sort_like_the_dataclasses(self, bits):
        rng = random.Random(9800 + bits)
        pairs = [self.disjoint(rng, bits) for _ in range(500)]
        first = pairs[0][0]
        pairs += [(first, b & ~first) for _, b in pairs[:50]]  # ties on the first field
        cases = [
            ([Interval(a, a | b) for a, b in pairs], _INTERVAL_KEY),
            ([Pseudomonomial(a, b) for a, b in pairs], _PM_KEY),
            ([PrimePseudomonomialIdeal(a, b) for a, b in pairs], _PRIME_KEY),
            ([PolarFace(rng.getrandbits(bits), rng.getrandbits(bits)) for _ in pairs]
             + [PolarFace(a, b) for a, b in pairs], _FACE_KEY),
        ]
        for items, key in cases:
            items = list(set(items))
            rng.shuffle(items)
            assert sorted(items, key=key) == sorted(items)


class TestCorrespondenceSuite:
    def test_exhaustive_n3(self):
        for code in all_codes(3):
            check_correspondences(code)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random(self, n):
        for code in sample_codes(n, 100, seed=700 + n):
            check_correspondences(code)
