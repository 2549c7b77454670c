import gc
import io
import json
import time
import tracemalloc
import weakref

import pytest

from neurocode import classify
from neurocode import (
    CanonicalForm,
    CapExceededError,
    Code,
    Interval,
    PolarFace,
    Pseudomonomial,
    SimplicialComplex,
    canonical_form,
    factor_complex,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
    neurons_from_mask,
    prime_sets,
    render_code_document,
    verify_dictionary,
)
from neurocode.classify import (FacetWitness, IntersectionWitness, PseudomonomialWitness,
                                _inside, _maximal_intervals_by_transform,
                                _prime_sets_by_transform)
from neurocode.codes import _clear_masks
from neurocode.cli import run_command

from oracles import (
    all_codes,
    all_prime_sets,
    check_method_agreement,
    example_code,
    example_complement,
    first_unmaximal_interval,
    mic_facets_single_set,
    near_closed_codes,
    oracle_canonical_form,
    oracle_ic,
    oracle_ic_pairwise,
    oracle_mic,
    oracle_mic_frontier,
    pair_canonical_form,
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
        from neurocode import sr_minimal_primes
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
        # alpha compares the canonical form, read off the complement's maximal
        # intervals, with a transform of the complement's words; beta compares
        # the factor complex, read off the code's, with a transform of the
        # code's words. So a kernel that loses an interval on either side fails
        # the check that reads it, though the artifact is built from the same
        # (wrong) intervals
        for side, failing, passing in (("complement", "alpha", "beta"),
                                       ("code", "beta", "alpha")):
            code = example_code()
            holder = code.complement if side == "complement" else code
            dropped = min(holder.maximal_intervals)
            holder.__dict__["maximal_intervals"] = holder.maximal_intervals - {dropped}
            report = verify_dictionary(code)
            checks = {c.name: c for c in report.checks}
            assert not checks[failing].passed
            assert checks[passing].passed
            assert not report.passed

    def test_alpha_fails_when_the_canonical_form_drops_an_element(self):
        # alpha reads the code's own canonical form, the one ``cf`` prints
        for code in random_codes(6, 12, seed=4660):
            cf = canonical_form(code)
            pm = min(p for p in cf.elements if not p.is_monomial)
            code.__dict__["_canonical_form"] = CanonicalForm(code.n, cf.elements - {pm})
            report = verify_dictionary(code)
            alpha = report.checks[0]
            assert alpha.name == "alpha" and not alpha.passed
            assert alpha.detail == f"difference from enumeration {[str(pm)]}"
            assert not report.passed

    def test_gamma_delta_fails_when_the_prime_sets_lose_a_member(self):
        # delta reads the code's own prime-sets, the ones ``complexes`` prints;
        # they are read off the complement's maximal codewords
        mutated = 0
        for code in random_codes(6, 9, seed=4670):
            comp = code.complement
            if len(comp.maximal_codewords) < 2:
                continue
            psets = prime_sets(code)
            comp.__dict__["maximal_codewords"] = comp.maximal_codewords - {
                min(comp.maximal_codewords)}
            assert len(prime_sets(code)) == len(psets) - 1
            report = verify_dictionary(code)
            gamma_delta = report.checks[3]
            assert gamma_delta.name == "gamma_delta" and not gamma_delta.passed
            assert f"prime-sets {sorted(prime_sets(code))} vs {sorted(psets)}" \
                in gamma_delta.detail
            assert not report.passed
            mutated += 1
        assert mutated == 5

    def test_a_code_and_its_complement_die_with_their_last_reference(self):
        # the complement is cached one way, so no reference cycle keeps a code,
        # its complement and their cached artifacts alive until the collector runs
        gc.disable()
        try:
            [code] = random_codes(6, 1, seed=4680)
            comp = code.complement
            canonical_form(code), factor_complex(comp), verify_dictionary(code)
            refs = weakref.ref(code), weakref.ref(comp)
            del code, comp
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_gamma_delta_fails_when_a_maximal_codeword_is_dropped(self):
        # the minimal primes come from the maximal codewords; the transversals
        # of the canonical form's monomials, read off the complement, catch the loss
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
        # reported sub-interval is not maximal without going through them,
        # and beta sees the facet image of the enumeration differ
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
            checks = {c.name: c for c in report.checks}
            assert not checks["maximality"].passed
            assert not checks["beta"].passed
            assert not report.passed

    def test_maximality_fails_when_the_kernel_widens_an_interval_past_the_code(self):
        # a one-neuron widening of a maximal interval holds a non-word, so the
        # reported interval itself is not inside the code
        for code in random_codes(6, 12, seed=4620):
            miv = code.maximal_intervals
            iv = min(miv)
            fixed = (iv.hi ^ iv.lo) ^ ((1 << code.n) - 1)  # nonempty: the code is proper
            bit = fixed & -fixed
            wide = Interval(iv.lo & ~bit, iv.hi | bit)
            self.report_intervals(code, miv - {iv} | {wide})
            maximality = next(c for c in verify_dictionary(code).checks
                              if c.name == "maximality")
            assert not maximality.passed
            assert maximality.detail == f"interval [{wide.lo},{wide.hi}]"

    @staticmethod
    def report_intervals(code, intervals):
        """Make the interval kernel report ``intervals`` for ``code`` once the
        factor complex is memoized from the true ones, so that only the
        maximality leg reads them (the canonical form reads the complement's)."""
        factor_complex(code)
        code.__dict__["maximal_intervals"] = frozenset(intervals)

    @staticmethod
    def mutated_interval_sets(code):
        """The reported intervals narrowed (one neuron fixed), dropped and
        widened past the code (one neuron freed), one interval at a time,
        then the last three intervals narrowed or widened all at once."""
        miv = code.maximal_intervals
        full = (1 << code.n) - 1
        together = set(miv)
        for k, iv in enumerate(sorted(miv)[-3:]):
            yield miv - {iv}
            free, fixed = iv.hi ^ iv.lo, full ^ (iv.hi ^ iv.lo)
            if free:
                bit = free & -free
                yield miv - {iv} | {Interval(iv.lo | bit, iv.hi)}
                yield miv - {iv} | {Interval(iv.lo, iv.hi ^ bit)}
            if fixed:
                bit = 1 << fixed.bit_length() - 1
                yield miv - {iv} | {Interval(iv.lo & ~bit, iv.hi | bit)}
            together.discard(iv)
            if fixed and (k % 2 or not free):
                together.add(Interval(iv.lo & ~bit, iv.hi | bit))
            elif free:
                together.add(Interval(iv.lo, iv.hi ^ (free & -free)))
        yield together

    @staticmethod
    def maximality_agrees_with_reference(code) -> bool:
        check = next(c for c in verify_dictionary(code).checks if c.name == "maximality")
        bad = first_unmaximal_interval(code)
        assert check.passed == (bad is None)
        assert check.detail == (None if bad is None else f"interval [{bad.lo},{bad.hi}]")
        return check.passed

    def test_maximality_matches_its_reference(self):
        # the shifted member bitsets against one Interval and one
        # contains_interval per widening, on true and on mutated intervals
        outcomes = set()
        for n in range(1, 11):
            for code in random_codes(n, 3, seed=4630 + n):
                outcomes.add(self.maximality_agrees_with_reference(code))
                for mutated in self.mutated_interval_sets(code):
                    copy = Code(code.n, code.words)
                    self.report_intervals(copy, mutated)
                    outcomes.add(self.maximality_agrees_with_reference(copy))
        assert outcomes == {True, False}

    def test_beta_fails_when_the_factor_complex_drops_a_facet(self):
        # beta compares the memoized factor complex with the facet image of
        # alpha's enumeration, which never reads it; alpha still passes
        for code in random_codes(6, 6, seed=4650):
            fc = factor_complex(code)
            code.__dict__["_factor_complex"] = SimplicialComplex(
                fc.universe, fc.facets - {min(fc.facets)})
            checks = {c.name: c for c in verify_dictionary(code).checks}
            assert not checks["beta"].passed
            assert "from enumeration" in checks["beta"].detail
            assert checks["alpha"].passed

    def test_cap_refuses_before_the_intervals(self):
        code = Code(13, {0, 1, 3})
        with pytest.raises(CapExceededError, match="cap of 12"):
            verify_dictionary(code)
        assert "maximal_intervals" not in code.__dict__


def intervals_by_transform(code):
    """Alpha's and beta's reference, on the transform of ``code``'s words."""
    return _maximal_intervals_by_transform(_inside(code.words, code.n), code.n)


def prime_sets_by_transform(code):
    """Delta's reference, on the transform of ``code``'s words."""
    return _prime_sets_by_transform(_inside(code.words, code.n), code.n)


class TestReferenceRoutes:
    """verify's references against the pair route, the plain definitions
    and the kernels."""

    @staticmethod
    def alpha(code):
        """The canonical form of the code's ideal by alpha's reference: the
        image of the complement's maximal intervals from its words."""
        full = (1 << code.n) - 1
        return {Pseudomonomial(lo, full ^ hi)
                for lo, hi in intervals_by_transform(code.complement)}

    def test_alpha_matches_the_evaluation_oracle(self):
        # the evaluation oracle takes 1.5 s for three codes at n = 8 and 8.5 s
        # at n = 9, so above n = 7 the 4**n pair route stands in for it
        cases = [*(c for n in range(1, 4) for c in all_codes(n)),
                 *(c for n in range(4, 11) for c in random_codes(n, 3, seed=4700 + n))]
        for code in cases:
            reference = self.alpha(code)
            assert reference == pair_canonical_form(code)
            if code.n <= 7:
                assert reference == oracle_canonical_form(code)

    def test_delta_matches_a_face_scan(self):
        codes = [*all_codes(3), *random_codes(5, 6, seed=4800), *random_codes(7, 3, seed=4807)]
        for code in codes:
            barred = all_prime_sets(code)  # is_face on [n] + B-bar, every B
            minimal = {b for b in barred if not any(a != b and a & ~b == 0 for a in barred)}
            assert prime_sets_by_transform(code) == {PolarFace(0, b) for b in minimal}

    def test_references_read_only_the_words(self, monkeypatch):
        cases = [c for n in range(6, 11) for c in random_codes(n, 3, seed=4820 + n)]
        expected = [([{(iv.lo, iv.hi) for iv in x.maximal_intervals} for x in (c, c.complement)],
                     prime_sets(c)) for c in cases]

        def refuse(*args):
            raise AssertionError("a reference read a kernel artifact")

        monkeypatch.setattr(Code, "maximal_intervals", property(refuse))
        monkeypatch.setattr(Code, "maximal_codewords", property(refuse))
        monkeypatch.setattr(classify, "factor_complex", refuse)
        monkeypatch.setattr(classify, "canonical_form", refuse)
        for code, (intervals, psets) in zip(cases, expected):
            fresh = Code(code.n, code.words)
            assert [intervals_by_transform(x) for x in (fresh, fresh.complement)] == intervals
            assert prime_sets_by_transform(fresh) == psets

    @pytest.mark.parametrize("n", [13, 14])
    def test_references_above_the_cap(self, n):
        # the CLI refuses n > 12, but the references answer there in-process
        t0 = time.perf_counter()
        for code in random_codes(n, 3, seed=4840 + n):
            full = (1 << n) - 1
            assert intervals_by_transform(code) == {
                (iv.lo, iv.hi) for iv in code.maximal_intervals}
            assert prime_sets_by_transform(code) == {
                PolarFace(0, full ^ m) for m in code.complement.maximal_codewords}
        assert time.perf_counter() - t0 < 3

    @staticmethod
    def alpha_peak(n):
        """The largest traced peak of alpha's reference on three seeded codes."""
        peaks = []
        for code in random_codes(n, 3, seed=4800 + n):
            tracemalloc.start()
            try:
                intervals_by_transform(code)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return max(peaks)

    def test_alpha_working_set_at_n10(self):
        # a few 3**n-bit ints (7.2 KiB each) and the intervals found
        assert self.alpha_peak(10) < 1.5 * 2**20

    def test_alpha_working_set_at_n12(self):
        # 65 KiB ints and up to 7.7k intervals: 1.8 MiB; the 4**n pair
        # route held 2 MiB ints and peaked at 12.7 MiB
        assert self.alpha_peak(12) < 3 * 2**20

    def test_verify_caches_no_masks_above_n(self):
        # _clear_masks(20) would pin 2.5 MiB for the life of the process
        _clear_masks.cache_clear()
        assert verify_dictionary(Code(10, {0, 1, 3})).passed
        assert _clear_masks.cache_info().currsize == 1
        hits = _clear_masks.cache_info().hits
        _clear_masks(10)
        assert _clear_masks.cache_info().hits == hits + 1
