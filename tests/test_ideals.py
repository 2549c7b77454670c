import pytest

from neurocode import (
    CF_MAX_N,
    CanonicalForm,
    CapExceededError,
    Code,
    Interval,
    PrimePseudomonomialIdeal,
    Pseudomonomial,
    canonical_form,
    divides,
    evaluate,
    in_neural_ideal,
    indicator,
    interval_to_pm,
    primary_decomposition,
)

from oracles import (
    all_codes,
    all_pseudomonomials,
    example_code,
    example_complement,
    oracle_canonical_form,
    oracle_in_neural_ideal,
    prime_contains,
    random_codes,
    sample_codes,
)

# canonical forms of the worked example and its complement
EXAMPLE_CF = frozenset({Pseudomonomial(0b001, 0b110), Pseudomonomial(0b110, 0)})
COMPLEMENT_CF = frozenset({
    Pseudomonomial(0, 0b101), Pseudomonomial(0, 0b011),
    Pseudomonomial(0b010, 0b100), Pseudomonomial(0b100, 0b010),
})


class TestPseudomonomial:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Pseudomonomial(0b011, 0b001)

    def test_rendering(self):
        assert str(Pseudomonomial(0b001, 0b110)) == "x1*(1-x2)*(1-x3)"
        assert str(Pseudomonomial(0b110, 0)) == "x2*x3"
        assert str(Pseudomonomial(0, 0)) == "1"
        assert str(Pseudomonomial(1 << 15, 1 << 8)) == "x16*(1-x9)"

    def test_flags(self):
        assert Pseudomonomial(0b110, 0).is_monomial
        assert not Pseudomonomial(0b010, 0b100).is_monomial


class TestIndicator:
    def test_single_word(self):
        assert indicator(0b001, 3) == Pseudomonomial(0b001, 0b110)

    def test_empty_word(self):
        assert indicator(0, 2) == Pseudomonomial(0, 0b11)

    def test_full_word(self):
        assert indicator(0b111, 3) == Pseudomonomial(0b111, 0)


class TestEvaluate:
    def test_monomial_at_its_support(self):
        assert evaluate(Pseudomonomial(0b110, 0), 0b110) == 1

    def test_monomial_missing_variable(self):
        assert evaluate(Pseudomonomial(0b110, 0), 0b011) == 0

    def test_indicator_at_its_word(self):
        assert evaluate(Pseudomonomial(0b001, 0b110), 0b001) == 1


class TestDivides:
    def test_sigma_containment(self):
        assert divides(Pseudomonomial(0b110, 0), Pseudomonomial(0b111, 0))

    def test_incomparable_tau(self):
        assert not divides(Pseudomonomial(0b001, 0b010), Pseudomonomial(0b001, 0b100))

    def test_reflexive(self):
        p = Pseudomonomial(0b001, 0b010)
        assert divides(p, p)


class TestMembership:
    def test_member(self):
        assert in_neural_ideal(Pseudomonomial(0b110, 0), example_code())

    def test_not_member(self):
        assert not in_neural_ideal(Pseudomonomial(0b001, 0), example_code())

    def test_codeword_indicators_never_members(self):
        code = example_code()
        for w in code:
            assert not in_neural_ideal(indicator(w, 3), code)

    def test_unit_never_member(self):
        for code in (example_code(), Code(1, {0}), Code(4, {0b1010})):
            assert not in_neural_ideal(Pseudomonomial(0, 0), code)

    def test_formulations_agree_exhaustive_small_n(self):
        for n in (1, 2, 3):
            pms = all_pseudomonomials(n)
            for code in all_codes(n):
                for pm in pms:
                    assert in_neural_ideal(pm, code) == oracle_in_neural_ideal(pm, code)

    def test_formulations_agree_random_n4(self):
        pms = all_pseudomonomials(4)
        for code in sample_codes(4, 200, seed=41):
            for pm in pms:
                assert in_neural_ideal(pm, code) == oracle_in_neural_ideal(pm, code)

    def test_indicator_criterion(self):
        # a word is a codeword exactly when its indicator is not in the ideal
        corpora = [list(all_codes(2)), list(all_codes(3)),
                   list(sample_codes(4, 100, seed=42))]
        for corpus in corpora:
            for code in corpus:
                for w in range(1 << code.n):
                    assert in_neural_ideal(indicator(w, code.n), code) == (w not in code.words)


class TestCanonicalForm:
    def test_worked_example(self):
        assert canonical_form(example_code()).elements == EXAMPLE_CF

    def test_complement_example(self):
        assert canonical_form(example_complement()).elements == COMPLEMENT_CF

    def test_single_neuron(self):
        assert canonical_form(Code(1, {0})).elements == {Pseudomonomial(1, 0)}

    def test_cap(self):
        with pytest.raises(CapExceededError) as err:
            canonical_form(Code(CF_MAX_N + 1, {0}))
        assert f"cap of {CF_MAX_N}" in str(err.value)
        assert "3**n" not in str(err.value)

    def test_antichain_enforced_by_type(self):
        with pytest.raises(ValueError):
            CanonicalForm(3, frozenset({Pseudomonomial(0b010, 0),
                                        Pseudomonomial(0b110, 0)}))

    def test_oracle_exhaustive_n3(self):
        for code in all_codes(3):
            assert canonical_form(code).elements == oracle_canonical_form(code)

    def test_oracle_random_n4(self):
        for code in sample_codes(4, 120, seed=43):
            assert canonical_form(code).elements == oracle_canonical_form(code)

    @pytest.mark.parametrize("n, count", [(6, 24), (7, 9), (8, 3)])
    def test_oracle_random_varied_density(self, n, count):
        for code in random_codes(n, count, seed=4400 + n):
            assert canonical_form(code).elements == oracle_canonical_form(code)

    def test_fallback_path_beyond_table(self):
        code = Code(9, {0, 0b1, 0b10, 0b100000000})
        assert canonical_form(code).elements == oracle_canonical_form(code)

    def test_soundness_and_minimality_by_deletion(self):
        code = example_code()
        for pm in canonical_form(code).elements:
            assert in_neural_ideal(pm, code)
            for part in ("sigma", "tau"):
                bits = getattr(pm, part)
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    if part == "sigma":
                        smaller = Pseudomonomial(pm.sigma ^ bit, pm.tau)
                    else:
                        smaller = Pseudomonomial(pm.sigma, pm.tau ^ bit)
                    assert not in_neural_ideal(smaller, code)


class TestCfMonomials:
    def test_worked_example(self):
        assert canonical_form(example_code()).monomials() == {Pseudomonomial(0b110, 0)}

    def test_no_monomials(self):
        assert canonical_form(example_complement()).monomials() == frozenset()

    def test_empty_cf_never_happens_but_type_allows(self):
        assert CanonicalForm(2, frozenset()).monomials() == frozenset()


class TestPrimaryDecomposition:
    def test_complement_example(self):
        expected = {PrimePseudomonomialIdeal(0b110, 0b001),
                    PrimePseudomonomialIdeal(0, 0b110)}
        assert primary_decomposition(example_complement()) == expected

    def test_singleton_code(self):
        assert primary_decomposition(Code(3, {0b011})) == {
            PrimePseudomonomialIdeal(0b100, 0b011)}

    def test_worked_example_four_primes(self):
        expected = {
            PrimePseudomonomialIdeal(0b101, 0),      # from [empty, 2]
            PrimePseudomonomialIdeal(0b011, 0),      # from [empty, 3]
            PrimePseudomonomialIdeal(0b100, 0b010),  # from [2, 12]
            PrimePseudomonomialIdeal(0b010, 0b100),  # from [3, 13]
        }
        assert primary_decomposition(example_code()) == expected

    def test_rendering(self):
        assert str(PrimePseudomonomialIdeal(0b110, 0b001)) == "<x2,x3,1-x1>"
        assert str(PrimePseudomonomialIdeal(1 << 15, 1 << 8 | 1)) == "<x16,1-x1,1-x9>"

    def test_prime_membership(self):
        prime = PrimePseudomonomialIdeal(0b110, 0b001)
        assert prime_contains(prime, Pseudomonomial(0b010, 0))
        assert prime_contains(prime, Pseudomonomial(0, 0b001))
        assert not prime_contains(prime, Pseudomonomial(0b001, 0))

    def test_zero_sets_cover_exactly_and_irredundantly(self):
        # irredundancy of an intersection of primes means no component
        # contains another (prime avoidance); zero-set unions may stay
        # equal when a component is dropped even though the ideal grows
        for code in all_codes(3):
            primes = primary_decomposition(code)
            union = frozenset().union(
                *(p.zero_interval(3).members(3) for p in primes))
            assert union == code.words
            for p in primes:
                for q in primes:
                    if p != q:
                        assert not (q.pos & ~p.pos == 0 and q.neg & ~p.neg == 0)

    def test_zero_set_redundant_component_still_needed(self):
        # for {empty, 1, 12, 3} the prime of [empty, 1] covers no word of
        # its own, yet it is incomparable to the others, so the ideal-level
        # decomposition keeps it
        code = Code(3, {0, 0b001, 0b011, 0b100})
        primes = primary_decomposition(code)
        assert len(primes) == 3
        target = PrimePseudomonomialIdeal(0b110, 0)
        assert target in primes
        rest = frozenset().union(*(p.zero_interval(3).members(3)
                                   for p in primes if p != target))
        assert rest == code.words  # covered without it, but not removable


class TestIntervalToPm:
    def test_degenerate_interval(self):
        assert interval_to_pm(Interval(0b001, 0b001), 3) == Pseudomonomial(0b001, 0b110)

    def test_two_element_interval(self):
        assert interval_to_pm(Interval(0b110, 0b111), 3) == Pseudomonomial(0b110, 0)

    def test_full_interval_gives_unit(self):
        assert interval_to_pm(Interval(0, 0b1111), 4) == Pseudomonomial(0, 0)

    def test_alpha_bijection_exhaustive_n3(self):
        for code in all_codes(3):
            image = {interval_to_pm(iv, 3) for iv in code.maximal_intervals}
            assert image == canonical_form(code.complement).elements

    @pytest.mark.parametrize("n", [4, 5])
    def test_alpha_bijection_random(self, n):
        for code in sample_codes(n, 100, seed=440 + n):
            image = {interval_to_pm(iv, n) for iv in code.maximal_intervals}
            assert image == canonical_form(code.complement).elements
