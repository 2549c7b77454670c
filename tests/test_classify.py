import io
import json
import tracemalloc

import pytest

from neurocode import classify
from neurocode import (
    CapExceededError,
    Code,
    Interval,
    PolarFace,
    Pseudomonomial,
    canonical_form,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
    neurons_from_mask,
    render_code_document,
    verify_dictionary,
)
from neurocode.classify import (FacetWitness, IntersectionWitness, PseudomonomialWitness,
                                _canonical_form_by_enumeration, _prime_sets_by_enumeration)
from neurocode.codes import _clear_masks
from neurocode.cli import run_command

from oracles import (
    all_codes,
    all_prime_sets,
    check_method_agreement,
    example_code,
    example_complement,
    mic_facets_single_set,
    near_closed_codes,
    oracle_canonical_form,
    oracle_ic,
    oracle_ic_pairwise,
    oracle_mic,
    oracle_mic_frontier,
    random_codes,
    replay_witness,
    sample_codes,
    validate_certificate,
)


class TestIntersectionCompleteBruteforce:
    def test_worked_example_witness(self):
        report = is_intersection_complete_bruteforce(example_code())
        assert not report.verdict
        assert report.witness == IntersectionWitness((0b011, 0b101), 0b001)

    def test_singleton(self):
        assert is_intersection_complete_bruteforce(Code(3, {0b011})).verdict

    def test_closed_code(self):
        code = Code(3, {0, 0b001, 0b010, 0b100, 0b011, 0b101})
        assert is_intersection_complete_bruteforce(code).verdict


class TestBruteForceAgainstTheLoops:
    """The closure kernel against the pairwise loop (IC) and the frontier
    loop (MIC) it replaced: same verdicts, same witnesses."""

    @staticmethod
    def check(code):
        ic = is_intersection_complete_bruteforce(code)
        assert ic.witness == oracle_ic_pairwise(code)
        assert ic.verdict == (ic.witness is None)
        mic = is_mic_bruteforce(code)
        assert mic.witness == oracle_mic_frontier(code)
        assert mic.verdict == (mic.witness is None)

    def test_exhaustive_n3(self):
        for n in (1, 2, 3):
            for code in all_codes(n):
                self.check(code)

    def test_sample_n4(self):
        for code in sample_codes(4, 400, seed=3300):
            self.check(code)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_random(self, n):
        for code in random_codes(n, 9, seed=3400 + n):
            self.check(code)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_near_closed(self, n):
        verdicts = set()
        for code in near_closed_codes(n, 30, seed=3500 + n):
            self.check(code)
            verdicts.add(is_intersection_complete_bruteforce(code).verdict)
        assert verdicts == {False, True}

    def test_star_code_less_a_word_n16(self):
        # {1..14} is missing, and {1..15} & {1..14, 16} is the first pair
        # that meets in it; too large for the pairwise loop
        code = Code(16, frozenset(range(1, 1 << 16, 2)) - {(1 << 14) - 1})
        report = is_intersection_complete_bruteforce(code)
        assert report.witness == IntersectionWitness((32767, 49151), 16383)
        assert is_mic_bruteforce(code).verdict


class TestIntersectionCompleteCf:
    def test_worked_example_witness(self):
        report = is_intersection_complete_cf(example_code())
        assert not report.verdict
        assert report.witness == PseudomonomialWitness(Pseudomonomial(0b001, 0b110))

    def test_monomial_canonical_form(self):
        # canonical form {x3}: one negative factor nowhere
        code = Code(3, {0, 0b001, 0b010, 0b011})
        assert canonical_form(code).elements == {Pseudomonomial(0b100, 0)}
        assert is_intersection_complete_cf(code).verdict

    def test_singleton_matches_bruteforce(self):
        code = Code(3, {0b110})
        assert (is_intersection_complete_cf(code).verdict
                == is_intersection_complete_bruteforce(code).verdict)


class TestIntersectionCompleteFacets:
    def test_worked_example_witness(self):
        report = is_intersection_complete_facets(example_code())
        assert not report.verdict
        assert report.witness == FacetWitness(PolarFace(0b001, 0b110))

    def test_complement_example_matches_bruteforce(self):
        code = example_complement()
        assert (is_intersection_complete_facets(code).verdict
                == is_intersection_complete_bruteforce(code).verdict
                is False)

    def test_singleton(self):
        assert is_intersection_complete_facets(Code(3, {0b110})).verdict


class TestMicBruteforce:
    def test_worked_example_witness(self):
        report = is_mic_bruteforce(example_code())
        assert not report.verdict
        assert report.witness == IntersectionWitness((0b011, 0b101), 0b001)

    def test_single_maximal_codeword(self):
        assert is_mic_bruteforce(Code(3, {0b001, 0b011})).verdict

    def test_closed_under_maximal_intersections(self):
        code = Code(3, {0, 0b001, 0b010, 0b100, 0b011, 0b101})
        assert is_mic_bruteforce(code).verdict


class TestMicAlgebraic:
    def test_worked_example_witness(self):
        report = is_mic_algebraic(example_code())
        assert not report.verdict
        assert report.witness == PseudomonomialWitness(Pseudomonomial(0b001, 0b110))
        assert report.certificate is None

    def test_monomial_only_canonical_form_vacuous(self):
        code = Code(3, {0, 0b001, 0b010, 0b011})
        assert all(pm.is_monomial for pm in canonical_form(code).elements)
        report = is_mic_algebraic(code)
        assert report.verdict
        assert report.certificate is not None
        assert report.certificate.entries == ()
        assert is_mic_bruteforce(code).verdict

    def test_certificate_on_true_verdict(self):
        code = Code(3, {0, 0b001, 0b010, 0b100, 0b011, 0b101})
        report = is_mic_algebraic(code)
        assert report.verdict
        validate_certificate(code, report)

    def test_matches_bruteforce_exhaustive_n3(self):
        for code in all_codes(3):
            assert is_mic_algebraic(code).verdict == is_mic_bruteforce(code).verdict


class TestMicFacets:
    def test_worked_example_witness(self):
        report = is_mic_facets(example_code())
        assert not report.verdict
        assert report.witness == FacetWitness(PolarFace(0b001, 0b110))

    def test_vacuous_when_facets_contain_everything(self):
        # complement of {empty} on one neuron: every facet contains [n]
        report = is_mic_facets(Code(1, {0b1}))
        assert report.verdict

    def test_matches_bruteforce_exhaustive_n3(self):
        for code in all_codes(3):
            assert is_mic_facets(code).verdict == is_mic_bruteforce(code).verdict

    def test_single_set_form_exhaustive_n3(self):
        for n in (1, 2, 3):
            for code in all_codes(n):
                assert is_mic_facets(code).witness == mic_facets_single_set(code)

    def test_cap_refuses_before_the_intervals(self):
        code = Code(13, {0, 1, 3})
        with pytest.raises(CapExceededError, match="cap of 12"):
            is_mic_facets(code)
        assert "maximal_intervals" not in code.__dict__
        assert "maximal_intervals" not in code.complement.__dict__


class TestAgreementAndWitnesses:
    def test_exhaustive_n3(self):
        for code in all_codes(3):
            ic, mic = check_method_agreement(code)
            assert ic == oracle_ic(code)
            assert mic == oracle_mic(code)

    def test_random_n4(self):
        for code in sample_codes(4, 300, seed=3100):
            ic, mic = check_method_agreement(code)
            assert mic == oracle_mic(code)

    def test_witness_replay_targets_false_reports(self):
        code = example_code()
        for decide in (*classify._IC_METHODS.values(), *classify._MIC_METHODS.values()):
            report = decide(code)
            assert not report.verdict
            replay_witness(code, report)


class TestDeciderTables:
    def test_six_deciders_in_report_order(self):
        # the CLI, the survey and the agreement oracle all iterate these
        assert list(classify._IC_METHODS.items()) == [
            ("brute", is_intersection_complete_bruteforce),
            ("cf", is_intersection_complete_cf),
            ("facets", is_intersection_complete_facets),
        ]
        assert list(classify._MIC_METHODS.items()) == [
            ("brute", is_mic_bruteforce),
            ("algebraic", is_mic_algebraic),
            ("facets", is_mic_facets),
        ]


def cli_document(argv, code, monkeypatch, capsys) -> tuple[int, dict]:
    """Exit status and parsed ``--json`` document of the CLI on ``code``."""
    monkeypatch.setattr("sys.stdin", io.StringIO(render_code_document(code)))
    status = run_command([*argv, "--json"])
    return status, json.loads(capsys.readouterr().out)


class TestReportSerialization:
    # the CLI owns the JSON forms of reports, witnesses and certificates
    def test_false_report_round_trips_through_json(self, monkeypatch, capsys):
        status, out = cli_document(["check", "mic", "--method", "brute"],
                                   example_code(), monkeypatch, capsys)
        assert status == 2
        [doc] = out["reports"]
        assert doc["property"] == "MIC"
        assert doc["method"] == "brute_force"
        assert doc["verdict"] is False
        assert doc["witness"] == {
            "kind": "missing_intersection",
            "words": [[1, 2], [1, 3]],
            "intersection": [1],
        }
        assert isinstance(doc["timing_us"], int)

    def test_certificate_serialization(self, monkeypatch, capsys):
        code = Code(3, {0, 0b001, 0b010, 0b100, 0b011, 0b101})
        status, out = cli_document(["check", "mic", "--method", "algebraic"],
                                   code, monkeypatch, capsys)
        assert status == 0
        [doc] = out["reports"]
        assert "certificate" in doc
        assert doc["certificate"]["minimal_primes"] == [[3], [2]] or \
            doc["certificate"]["minimal_primes"] == [[2], [3]]

    @pytest.mark.parametrize("decide, built", [
        (is_intersection_complete_bruteforce, [("code", "word_bits")]),
        (is_intersection_complete_cf, [("code", "_canonical_form")]),
        (is_intersection_complete_facets, [("complement", "_factor_complex")]),
        (is_mic_bruteforce, [("code", "maximal_codewords"), ("code", "word_bits")]),
        (is_mic_algebraic, [("code", "_canonical_form"), ("code", "maximal_codewords")]),
        (is_mic_facets, [("complement", "_factor_complex"),
                         ("code", "maximal_codewords")]),
    ])
    def test_timing_starts_after_the_artifacts(self, decide, built, monkeypatch):
        # timing_us is the decider's own time: when the clock is first read,
        # the cached artifacts it reads (the prime-sets and minimal primes
        # come from the code's maximal codewords) already exist
        code = example_code()
        reads = []

        def probe():
            if not reads:
                for owner, key in built:
                    holder = code if owner == "code" else code.complement
                    assert key in holder.__dict__, f"{key} built inside the clock"
            reads.append(None)
            return 0

        monkeypatch.setattr(classify, "_now", probe)
        decide(code)
        assert len(reads) == 2

    def test_timing_excluded_from_equality(self):
        a = is_mic_bruteforce(example_code())
        b = is_mic_bruteforce(example_code())
        assert a == b


class TestVerifyDictionary:
    def test_worked_example_passes(self):
        report = verify_dictionary(example_code())
        assert report.passed
        assert [c.name for c in report.checks] == [
            "alpha", "beta", "maximality", "gamma_delta"]

    def test_correspondence_values_on_worked_example(self):
        # maximal codewords 13 and 12 pair with primes <x2>, <x3> and with
        # barred prime-sets {~2}, {~3} on the complement side
        code = example_code()
        from neurocode import prime_sets, sr_minimal_primes
        assert sr_minimal_primes(code) == {0b010, 0b100}
        assert prime_sets(code.complement) == {
            PolarFace(0, 0b010), PolarFace(0, 0b100)}

    def test_exhaustive_n3(self):
        for code in all_codes(3):
            assert verify_dictionary(code).passed

    def test_json_shape(self, monkeypatch, capsys):
        status, doc = cli_document(["verify"], example_code(), monkeypatch, capsys)
        assert status == 0
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])

    def test_random_varied_density(self):
        for n in (6, 7):
            for code in random_codes(n, 6, seed=4500 + n):
                assert verify_dictionary(code).passed

    def test_alpha_fails_when_the_kernel_drops_an_interval(self):
        # the alpha check compares against a transform of the words, so a kernel
        # that loses an interval fails it even though the canonical form is
        # built from the same (wrong) intervals
        code = example_code()
        dropped = min(code.maximal_intervals)
        code.__dict__["maximal_intervals"] = code.maximal_intervals - {dropped}
        report = verify_dictionary(code)
        alpha = next(c for c in report.checks if c.name == "alpha")
        assert not alpha.passed
        assert not report.passed

    def test_gamma_delta_fails_when_a_maximal_codeword_is_dropped(self):
        # prime_sets is derived from the same maximal codewords, so it is
        # the face test of every barred set and the transversal route that catch the loss
        code = example_code()
        dropped = min(code.maximal_codewords)
        code.__dict__["maximal_codewords"] = code.maximal_codewords - {dropped}
        report = verify_dictionary(code)
        gamma_delta = next(c for c in report.checks if c.name == "gamma_delta")
        assert not gamma_delta.passed
        assert "from enumeration" in gamma_delta.detail
        assert not report.passed

    def test_maximality_fails_when_the_kernel_narrows_an_interval(self):
        # the canonical form and the factor complex are built from the same
        # (wrong) intervals; the one-neuron widening test sees that the
        # reported sub-interval is not maximal without going through them
        for code in random_codes(6, 12, seed=4600):
            miv = code.maximal_intervals
            iv, sub = next((iv, sub) for iv in sorted(miv)
                           for i in neurons_from_mask(iv.hi ^ iv.lo)
                           for sub in (Interval(iv.lo | 1 << (i - 1), iv.hi),
                                       Interval(iv.lo, iv.hi ^ 1 << (i - 1)))
                           if not any(o.lo & ~sub.lo == 0 and sub.hi & ~o.hi == 0
                                      for o in miv - {iv}))
            code.__dict__["maximal_intervals"] = miv - {iv} | {sub}
            report = verify_dictionary(code)
            maximality = next(c for c in report.checks if c.name == "maximality")
            assert not maximality.passed
            assert not report.passed

    def test_cap_refuses_before_the_intervals(self):
        code = Code(13, {0, 1, 3})
        with pytest.raises(CapExceededError, match="cap of 12"):
            verify_dictionary(code)
        assert "maximal_intervals" not in code.__dict__


class TestReferenceRoutes:
    """verify's alpha and delta references against the plain definitions."""

    @staticmethod
    def alpha_cases():
        for n in range(1, 4):
            yield from all_codes(n)
        for n in range(4, 8):
            yield from random_codes(n, 3, seed=4700 + n)

    def test_alpha_matches_the_evaluation_oracle(self):
        for code in self.alpha_cases():
            assert _canonical_form_by_enumeration(code) == oracle_canonical_form(code)

    def test_delta_matches_a_face_scan(self):
        codes = [*all_codes(3), *random_codes(5, 6, seed=4800), *random_codes(7, 3, seed=4807)]
        for code in codes:
            barred = all_prime_sets(code)  # is_face on [n] + B-bar, every B
            minimal = {b for b in barred if not any(a != b and a & ~b == 0 for a in barred)}
            assert _prime_sets_by_enumeration(code) == {PolarFace(0, b) for b in minimal}

    def test_alpha_working_set_at_n10(self):
        # a few 2**20-bit ints; no cube-of-pairs bytearray or digit string
        for code in random_codes(10, 3, seed=4810):
            comp = code.complement
            tracemalloc.start()
            try:
                _canonical_form_by_enumeration(comp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 2**20

    def test_verify_caches_no_masks_above_n(self):
        # _clear_masks(20) would pin 2.5 MiB for the life of the process
        _clear_masks.cache_clear()
        assert verify_dictionary(Code(10, {0, 1, 3})).passed
        assert _clear_masks.cache_info().currsize == 1
        hits = _clear_masks.cache_info().hits
        _clear_masks(10)
        assert _clear_masks.cache_info().hits == hits + 1
