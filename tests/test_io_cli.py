import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import ModuleType

import pytest

from neurocode import (
    Code,
    InvalidCodeError,
    MethodDisagreement,
    ParseError,
    ParseWarning,
    classify,
    code_from_id,
    parse_code,
    render_code_document,
    survey,
)
from neurocode import io as nio
from neurocode.cli import run_command

from oracles import all_codes, example_code, random_codes, sample_codes

EXAMPLE_DOC = "n=3\n000\n010\n001\n110\n101\n"


class TestParse:
    def test_binary_document(self):
        assert parse_code(EXAMPLE_DOC) == example_code()

    def test_mixed_syntax(self):
        assert parse_code("n=3\n{2,3}\n110\n") == Code(3, {0b110, 0b011})

    def test_digit_words_and_empty(self):
        assert parse_code("n=3\n0\n23\n") == Code(3, {0, 0b110})

    def test_braces_empty_word(self):
        assert parse_code("n=2\n{}\n{1}\n") == Code(2, {0, 0b01})

    def test_comments_and_blank_lines(self):
        text = "# a code\n\nn=3\n010  # the word {2}\n\n001\n"
        assert parse_code(text) == Code(3, {0b010, 0b100})

    def test_full_code_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_code("n=1\n1\n0\n", source="doc")
        assert err.value.line == 3
        assert "doc:3" in str(err.value)

    def test_missing_n_line(self):
        with pytest.raises(ParseError) as err:
            parse_code("010\n")
        assert err.value.line == 1

    def test_bad_neuron_count(self):
        with pytest.raises(ParseError):
            parse_code("n=0\n")
        with pytest.raises(ParseError):
            parse_code("n=17\n0\n")

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13"])  # Arabic-Indic, fullwidth 3
    def test_non_ascii_neuron_count_rejected(self, digit):
        with pytest.raises(ParseError) as err:
            parse_code(f"n={digit}\n12\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("n\u3000= 3\n1\n", 1),
        ("n=3\n1\n{1,\u00a02}\n", 3),
        ("n=3\n1\n\u00a0101\n", 3),
    ], ids=["ideographic-space-in-n-line", "no-break-space-in-braces",
            "no-break-space-before-binary-word"])
    def test_non_ascii_whitespace_rejected(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_code(text)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("n=3\u20281\u008512\n", 1),
        ("n=3\n1\u20282\n", 2),
        ("n=3\n12\u00853\n", 2),
        ("n=3\n\x1c1\n", 2),
        ("n=3\r\n1\r2\r\n", 2),
    ], ids=["U+2028-and-U+0085-in-n-line", "U+2028-in-word", "U+0085-in-word",
            "0x1C-before-word", "lone-CR-in-word"])
    def test_lines_end_only_at_newline(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_code(text)
        assert err.value.line == line

    def test_crlf_parses_like_lf(self):
        lf = "# a code\nn=3\n010  # {2}\n\n001\n{2}\n"
        crlf = lf.replace("\n", "\r\n")
        with pytest.warns(ParseWarning, match=r"^<input>:6: duplicate word '\{2\}'"):
            assert parse_code(crlf) == parse_code(lf) == Code(3, {0b010, 0b100})
        with pytest.raises(ParseError) as err:
            parse_code("n=1\r\n1\r\n0")
        assert err.value.line == 3

    def test_ascii_spaces_and_tabs_parse(self):
        code = parse_code("n = 3\n\t{1, 2} \n 101\t\n")
        assert code.words == {0b011, 0b101}

    def test_word_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_code("n=2\n3\n", source="doc")
        assert err.value.line == 2

    def test_repeated_neuron_in_token(self):
        with pytest.raises(ParseError):
            parse_code("n=3\n11\n")

    # past 4,300 digits, leading zeros included, int() itself refuses a string
    HUGE_NUMBERS = [
        ("n=" + "9" * 5000 + "\n0\n", 1,
         "neuron count must be in 1..16, got 99999999... (5000 digits)"),
        ("n=3\n{" + "1" * 5000 + "}\n", 2, "neuron 11111111... (5000 digits) outside 1..3"),
    ]

    @pytest.mark.parametrize("text, line, message", HUGE_NUMBERS,
                             ids=["neuron-count", "neuron-in-braces"])
    def test_huge_numbers_are_parse_errors_with_short_messages(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_code(text, source="doc")
        assert err.value.line == line
        assert str(err.value) == f"doc:{line}: {message}"

    LONG_TOKENS = [
        ("n=3\n" + "x" * 5000, "cannot parse word 'xxxxxxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
        ("n=3\n{" + ",".join(["1"] * 3000) + "}\n",
         "repeated neuron in '{1,1,1,1,1,1,1,1,1,1,1,1'... (6001 characters)"),
        ("n=3\n{1,," + " " * 100 + "}\n",
         "bad entry '' in '{1,,                    '... (105 characters)"),
        ("n=3\n{1,2 " + "3" * 70 + "}\n",
         "bad entry '2 3333333333333333333333'... (72 characters) in "
         "'{1,2 3333333333333333333'... (76 characters)"),
        ("n=9\n1" + "2" * 70 + "0\n",
         "neuron 0 does not exist in '122222222222222222222222'... (72 characters) "
         "(binary words must have exactly 9 characters)"),
    ]

    @pytest.mark.parametrize("text, message", LONG_TOKENS,
                             ids=["cannot-parse", "repeated-neuron", "bad-entry",
                                  "bad-entry-long-part", "neuron-0"])
    def test_long_tokens_are_cut_short_in_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_code(text, source="doc")
        assert str(err.value) == f"doc:2: {message}"

    def test_tokens_up_to_64_characters_are_quoted_whole(self):
        for spaces, message in [
                (57, "cannot parse word '{1,2," + " " * 57 + "x}'"),
                (58, "cannot parse word '{1,2,                   '... (65 characters)")]:
            with pytest.raises(ParseError) as err:
                parse_code("n=3\n{1,2," + " " * spaces + "x}\n", source="doc")
            assert str(err.value) == f"doc:2: {message}"

    def test_long_duplicate_words_are_cut_short_in_warnings(self):
        word = "{1," + " " * 100 + "2}"
        with pytest.warns(ParseWarning) as caught:
            assert parse_code(f"n=2\n{{1,2}}\n{word}\n") == Code(2, {0b11})
        assert str(caught[0].message) == (
            "<input>:3: duplicate word '{1,                     '... (105 characters) ignored")

    def test_leading_zeros_do_not_count_as_digits(self):
        assert parse_code("n=" + "0" * 5000 + "3\n010\n") == Code(3, {0b010})
        assert parse_code("n=03\n{" + "0" * 5000 + "2}\n") == Code(3, {0b010})
        with pytest.raises(ParseError, match=r":2: neuron 400 outside 1..3$"):
            parse_code("n=3\n{1,0400}\n")
        with pytest.raises(ParseError, match=r":1: neuron count must be in 1..16, got 0$"):
            parse_code("n=" + "0" * 5000 + "\n")

    def test_bare_digits_rejected_above_nine(self):
        with pytest.raises(ParseError):
            parse_code("n=10\n23\n")

    def test_braces_above_nine(self):
        assert parse_code("n=11\n{2,11}\n") == Code(11, {0b10000000010})

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_code("")
        with pytest.raises(ParseError):
            parse_code("n=2\n")

    def test_duplicate_warning(self):
        with pytest.warns(ParseWarning):
            code = parse_code("n=2\n10\n10\n01\n")
        assert code == Code(2, {0b01, 0b10})

    def test_duplicate_warning_names_its_line(self):
        text = "# a code\nn=2\n\n10\n{1}  # the same word\n"
        with pytest.warns(ParseWarning, match=r"^doc:5: duplicate word '\{1\}'"):
            code = parse_code(text, source="doc")
        assert code == Code(2, {0b01})

    def test_syntax_error_after_full_code_wins(self):
        with pytest.raises(ParseError) as err:
            parse_code("n=1\n0\n1\nx\n", source="doc")
        assert err.value.line == 4

    def test_duplicate_warnings_precede_full_code_error(self):
        with pytest.warns(ParseWarning) as caught:
            with pytest.raises(ParseError) as err:
                parse_code("n=1\n0\n0\n1\n", source="doc")
        assert [str(w.message) for w in caught] == ["doc:3: duplicate word '0' ignored"]
        assert err.value.line == 4


def _outcome(parse, text):
    """What a parse gives: the code with its derived word forms, or the
    error's message and line; plus every warning, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = parse(text, "doc")
        except ParseError as err:
            result = ("error", str(err), err.line)
        else:
            assert type(code) is Code
            result = ("code", code, hash(code), code.word_bits, code.word_list)
    return result, [(w.category, str(w.message)) for w in caught]


def _seeded_documents():
    """Rendered random codes at n = 1..16, in ascending and in shuffled word
    order, and each with one of its lines repeated at a random place."""
    rng = random.Random(1801)
    for n in range(1, 17):
        for code in random_codes(n, 3, seed=1800 + n):
            text = render_code_document(code)
            yield f"n={n} ascending", text
            header, *lines = text.splitlines()
            rng.shuffle(lines)
            yield f"n={n} shuffled", "\n".join([header, *lines]) + "\n"
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            yield f"n={n} duplicate", "\n".join([header, *lines]) + "\n"


EDGE_DOCUMENTS = {
    "missing final newline": "n=2\n01\n10",
    "trailing blank line": "n=2\n01\n10\n\n",
    "blank line between words": "n=2\n01\n\n10\n",
    "spaces around =": "n = 4\n0101\n1100\n",
    "header with a leading space": " n=4\n0101\n1100\n",
    "header with a comment": "n=4 # four neurons\n0101\n1100\n",
    "header with a leading zero": "n=03\n010\n001\n",
    "header ending in CR": "n=2\r\n01\n10\n",
    "no-break space before the header": "\u00a0n=2\n01\n",
    "comment line": "# a code\nn=3\n010\n001\n",
    "n=0": "n=0\n0\n",
    "n=0, no words": "n=0\n",
    "n=17": "n=17\n" + "0" * 17 + "\n",
    "n=99": "n=99\n0\n",
    "CRLF": "n=3\r\n010\r\n001\r\n",
    "lone CR in the header": "n=2\r01\n10\n",
    "lone CR between words": "n=3\n010\r001\n",
    "short line": "n=3\n010\n01\n",
    "long line": "n=3\n010\n0011\n",
    "braces mixed with binary lines": "n=3\n010\n{1,3}\n{}\n",
    "bare digits mixed with binary lines": "n=3\n010\n23\n0\n",
    "binary word that is also a digit word": "n=1\n1\n",
    "underscore in a word": "n=3\n0_1\n",
    "sign before a word": "n=3\n+01\n",
    "duplicate before the code is full": "n=2\n01\n01\n10\n",
    "duplicate after the code is full": "n=2\n00\n01\n00\n10\n11\n01\n",
    "full code": "n=2\n00\n01\n10\n11\n",
    "header with no words": "n=3\n",
    "header with no newline": "n=3",
    "empty document": "",
}


class TestBulkReader:
    """parse_code's bulk reader against the line loop it stands in for."""

    def test_seeded_documents_agree(self):
        for name, text in _seeded_documents():
            assert _outcome(parse_code, text) == _outcome(nio._parse_lines, text), name

    @pytest.mark.parametrize("text", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS.keys())
    def test_edge_documents_agree(self, text):
        assert _outcome(parse_code, text) == _outcome(nio._parse_lines, text)

    def test_plain_documents_never_reach_the_line_loop(self, monkeypatch):
        def refuse(text, source):
            raise AssertionError("line loop reached")

        monkeypatch.setattr(nio, "_parse_lines", refuse)
        for n in (1, 2, 9, 10, 16):
            for code in random_codes(n, 3, seed=1900 + n):
                assert parse_code(render_code_document(code)) == code
        assert parse_code("n=2\n01\n10") == Code(2, {0b10, 0b01})
        with pytest.raises(AssertionError, match="line loop reached"):
            parse_code("n=3\n010\n001  # the word {3}\n")


class TestRenderRoundTrip:
    def test_example(self):
        code = example_code()
        assert parse_code(render_code_document(code)) == code

    def test_exhaustive_n2(self):
        for code in all_codes(2):
            assert parse_code(render_code_document(code)) == code

    def test_random_n5(self):
        for code in sample_codes(5, 50, seed=900):
            assert parse_code(render_code_document(code)) == code


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.code"
    path.write_text(EXAMPLE_DOC)
    return str(path)


@pytest.fixture
def complement_file(tmp_path):
    path = tmp_path / "complement.code"
    path.write_text("n=3\n100\n011\n111\n")
    return str(path)


class TestCliCommands:
    def test_cf_text(self, example_file, capsys):
        assert run_command(["cf", "--input", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x1*(1-x2)*(1-x3)", "x2*x3"]

    def test_intervals_text(self, example_file, capsys):
        assert run_command(["intervals", "--input", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[0,2]", "[0,3]", "[2,12]", "[3,13]"]

    def test_decompose_text(self, example_file, capsys):
        assert run_command(["decompose", "--input", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "<x2,1-x3>", "<x1,x2>", "<x3,1-x2>", "<x1,x3>"]

    def test_complexes_text(self, complement_file, capsys):
        assert run_command(["complexes", "--input", complement_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "delta_facets: 123",
            "factor_facets: 123~1 1~2~3",
            "polar_facets: 123~1 12~2 13~3 1~2~3",
            "minimal_prime_sets: ~2 ~3",
            "sr_minimal_primes: <>",
        ]

    def test_check_mic_all_methods(self, example_file, capsys):
        assert run_command(["check", "mic", "--method", "all",
                            "--input", example_file]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "MIC brute_force: false",
            "  witness: missing intersection: 12 & 13 = 1",
            "MIC canonical_form: false",
            "  witness: violating pseudomonomial: x1*(1-x2)*(1-x3)",
            "MIC factor_complex: false",
            "  witness: violating facet: 1~2~3",
        ]

    def test_check_true_verdict_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "closed.code"
        path.write_text("n=3\n000\n100\n010\n001\n110\n101\n")
        assert run_command(["check", "ic", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "IC brute_force: true" in out

    def test_check_single_method(self, example_file, capsys):
        assert run_command(["check", "ic", "--method", "cf",
                            "--input", example_file]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "IC canonical_form: false"

    def test_check_method_property_mismatch(self, example_file, capsys):
        assert run_command(["check", "ic", "--method", "algebraic",
                            "--input", example_file]) == 1
        assert run_command(["check", "mic", "--method", "cf",
                            "--input", example_file]) == 1

    def test_check_method_usage_bytes(self, monkeypatch, capsys):
        # the choices are "all" and the decider tables' names, first seen first
        monkeypatch.setenv("COLUMNS", "80")
        assert run_command(["check", "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            "usage: neurocode check [-h] [--json] [--input PATH]\n"
            "                       [--method {all,brute,cf,facets,algebraic}]\n"
            "                       {ic,mic}\n\n")

    def test_verify(self, example_file, capsys):
        assert run_command(["verify", "--input", example_file]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "alpha: pass", "beta: pass", "maximality: pass", "gamma_delta: pass"]

    def test_unknown_command(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, example_file, capsys):
        assert run_command(["cf", "--frobnicate", "--input", example_file]) == 1

    def test_no_command(self, capsys):
        assert run_command([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0

    def test_missing_input_file(self, capsys):
        assert run_command(["cf", "--input", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_text("n=1\n1\n0\n")
        assert run_command(["cf", "--input", str(path)]) == 1
        assert ":3:" in capsys.readouterr().err

    def test_stdin_default(self, monkeypatch, capsys):
        import io as _io
        monkeypatch.setattr("sys.stdin", _io.StringIO(EXAMPLE_DOC))
        assert run_command(["cf"]) == 0
        assert "x2*x3" in capsys.readouterr().out

    def test_parse_warnings_are_plain_stderr_lines(self, monkeypatch, capsys):
        import io as _io
        for _ in range(2):  # not deduplicated across runs in one process
            monkeypatch.setattr("sys.stdin", _io.StringIO("n=1\n0\n0\n"))
            assert run_command(["cf"]) == 0
            captured = capsys.readouterr()
            assert captured.out == "x1\n"
            assert captured.err == "warning: <stdin>:3: duplicate word '0' ignored\n"

    def test_parse_warnings_precede_the_error_bytes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "neurocode", "cf"], input=b"n=1\n0\n0\n1\n0\n",
            capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent, check=False)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (
            b"warning: <stdin>:3: duplicate word '0' ignored\n"
            b"error: <stdin>:4: code contains every subset of [n]; proper codes required\n")

    @pytest.mark.parametrize("text, line, message", TestParse.HUGE_NUMBERS,
                             ids=["neuron-count", "neuron-in-braces"])
    def test_huge_numbers_are_one_short_error_line(self, text, line, message):
        proc = subprocess.run(
            [sys.executable, "-m", "neurocode", "intervals"], input=text.encode(),
            capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent, check=False)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == f"error: <stdin>:{line}: {message}\n".encode()

    @staticmethod
    def _cli_through_file_and_stdin(tmp_path, data: bytes):
        """(exit status, stdout, stderr) of ``intervals`` on ``data`` given
        as --input and then on a real stdin, with the file name put in
        place of ``<stdin>`` in the first stderr."""
        path = tmp_path / "doc.code"
        path.write_bytes(data)
        runs = []
        for args, stdin in ((["--input", path.name], b""), ([], data)):
            proc = subprocess.run(
                [sys.executable, "-m", "neurocode", "intervals", *args], input=stdin,
                capture_output=True, cwd=tmp_path, check=False,
                env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
            runs.append((proc.returncode, proc.stdout,
                         proc.stderr.replace(path.name.encode(), b"<stdin>")))
        return runs

    def test_lone_cr_is_read_alike_from_a_file_and_stdin(self, tmp_path):
        by_file, by_stdin = self._cli_through_file_and_stdin(tmp_path, b"n=2\r01\n10\n")
        assert by_file == by_stdin == (
            1, b"", b"error: <stdin>:1: expected the neuron count first, as n=<k>\n")

    def test_crlf_parses_like_lf_from_a_file_and_stdin(self, tmp_path):
        lf = b"n=3\n010\n001\n110\n"
        runs = self._cli_through_file_and_stdin(tmp_path, lf.replace(b"\n", b"\r\n"))
        assert runs == self._cli_through_file_and_stdin(tmp_path, lf)
        assert runs[0] == (0, b"[2,12]\n[3,3]\n", b"")

    def test_closed_stdout_exits_one_with_empty_stderr(self, tmp_path):
        # about 0.5 MB of intervals, far more than a pipe buffers, so the
        # CLI is still writing when the reader closes after one line
        path = tmp_path / "n14.code"
        path.write_text(render_code_document(
            next(random_codes(14, 1, seed=7, densities=(0.5,)))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "neurocode", "intervals", "--input", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent)
        assert proc.stdout.readline() == b"[{},{1,4}]\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    @pytest.mark.parametrize("argv", [
        ["cf"], ["complexes"], ["verify"], ["check", "ic", "--method", "cf"],
        ["check", "ic", "--method", "facets"], ["check", "mic", "--method", "algebraic"],
        ["check", "mic", "--method", "facets"], ["complexes", "--json"]])
    def test_cap_refused_with_one_message(self, argv, tmp_path, capsys):
        path = tmp_path / "n13.code"
        path.write_text("n=13\n{1}\n{1,2}\n{13}\n")
        assert run_command(argv + ["--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n=13 exceeds the cap of 12 on the canonical form")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("prop", ["ic", "mic"])
    def test_star_code_n16_brute_answers_and_all_methods_refused(self, prop, tmp_path, capsys):
        # the 32,768 words containing neuron 1: the brute-force decider
        # answers, and the default (all methods) reaches the cap after it
        path = tmp_path / "star.code"
        path.write_text(render_code_document(Code(16, frozenset(range(1, 1 << 16, 2)))))
        assert run_command(["check", prop, "--method", "brute", "--input", str(path)]) == 0
        assert capsys.readouterr().out == f"{prop.upper()} brute_force: true\n"
        assert run_command(["check", prop, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n=16 exceeds the cap of 12 on the canonical form")
        assert captured.err.count("\n") == 1


class TestCliJson:
    def test_cf_json_matches_text(self, example_file, capsys):
        run_command(["cf", "--input", example_file])
        text_lines = capsys.readouterr().out.splitlines()
        run_command(["cf", "--json", "--input", example_file])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["command"] == "cf"
        assert [e["text"] for e in doc["canonical_form"]] == text_lines

    def test_intervals_json_matches_text(self, example_file, capsys):
        run_command(["intervals", "--input", example_file])
        text_lines = capsys.readouterr().out.splitlines()
        run_command(["intervals", "--json", "--input", example_file])
        doc = json.loads(capsys.readouterr().out)

        def digits(ns):
            return "".join(map(str, ns)) if ns else "0"

        rebuilt = [f"[{digits(iv['lo'])},{digits(iv['hi'])}]"
                   for iv in doc["maximal_intervals"]]
        assert rebuilt == text_lines

    def test_complexes_json_matches_text(self, complement_file, capsys):
        run_command(["complexes", "--input", complement_file])
        text = {line.split(": ")[0]: line.split(": ")[1]
                for line in capsys.readouterr().out.splitlines()}
        run_command(["complexes", "--json", "--input", complement_file])
        doc = json.loads(capsys.readouterr().out)

        def face(f):
            return ("".join(map(str, f["x"]))
                    + "".join(f"~{j}" for j in f["y"])) or "{}"

        assert " ".join(face(f) for f in doc["factor_facets"]) == text["factor_facets"]
        assert " ".join(face(f) for f in doc["polar_facets"]) == text["polar_facets"]
        assert " ".join(face(f) for f in doc["minimal_prime_sets"]) == text["minimal_prime_sets"]

    def test_check_json_schema(self, example_file, capsys):
        assert run_command(["check", "mic", "--json",
                            "--input", example_file]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert len(doc["reports"]) == 3
        for report in doc["reports"]:
            assert report["verdict"] is False
            assert report["witness"] is not None
            assert isinstance(report["timing_us"], int)

    def test_verify_json(self, example_file, capsys):
        assert run_command(["verify", "--json", "--input", example_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True


JSON_COMMANDS = (["cf"], ["intervals"], ["decompose"], ["complexes"],
                 ["check", "ic"], ["check", "mic"], ["verify"])


class TestJsonBytes:
    """Every --json document is exactly json.dumps(doc, indent=2) plus a
    newline, however the CLI writes it."""

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
    def test_command_documents(self, argv, tmp_path, capsys):
        docs = [EXAMPLE_DOC, "n=3\n100\n011\n111\n",
                render_code_document(next(sample_codes(5, 1, seed=77)))]
        for i, text in enumerate(docs):
            path = tmp_path / f"code{i}.code"
            path.write_text(text)
            run_command([*argv, "--json", "--input", str(path)])
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_survey_document(self, capsys):
        assert run_command(["survey", "--n", "2", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_benchmark_smoke_run():
    # the n <= 3 shapes of every benchmark workload: checked CLI outputs
    # and the per-layer tracer's install/restore
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# (n, density, argv): n = 11 and 12 where dualization used to run for
# minutes, and every code-reading command on a dense n = 16 document
DEADLINE_REQUESTS = [
    *((n, density, argv) for n, density in ((11, 0.5), (12, 0.5), (12, 0.9))
      for argv in (["complexes"], ["verify"])),
    *((16, 0.9, argv) for argv in (
        ["cf"], ["intervals"], ["intervals", "--json"], ["decompose"], ["complexes"],
        ["check", "ic"], ["check", "mic"], ["verify"])),
]


@pytest.fixture(scope="module")
def deadline_documents(tmp_path_factory):
    paths = {}
    for n, density in sorted({(n, d) for n, d, _ in DEADLINE_REQUESTS}):
        path = paths[n, density] = tmp_path_factory.mktemp("deadline") / f"n{n}.code"
        path.write_text(render_code_document(
            next(random_codes(n, 1, seed=9500 + n, densities=(density,)))))
    return paths


@pytest.mark.parametrize("n, density, argv", DEADLINE_REQUESTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_answers_or_refuses_within_the_deadline(n, density, argv, deadline_documents):
    # a fresh process per request; subprocess.run raises TimeoutExpired past 30 s
    proc = subprocess.run(
        [sys.executable, "-m", "neurocode", *argv, "--input",
         str(deadline_documents[n, density])],
        capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parent.parent, timeout=30)
    if proc.returncode == 1:
        assert proc.stdout == b""
        assert re.fullmatch(rb"error: n=\d+ exceeds the (cap|limit) of \d+ [^\n]*\n", proc.stderr)
    else:
        assert proc.returncode in (0, 2), proc.stderr[-2000:]
        assert proc.stdout


# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_codes_and_intervals": "ee2b44215f5a91cfece544a2f115ba586817b751fb7b10018128771e472fd2b1",
    "02_neural_ideal_and_canonical_form":
        "10cbe24f1c2fc343fda783e2143611d2229ca53e5c503b74485621373a6a1390",
    "03_polarization_and_complexes":
        "164f38dad2b31a7571e8ccc2dff131df5967e8a6af98fb89deaa767b5829134c",
    "04_deciding_closure_properties":
        "dc8d2904faece725d8e580c3b68cc7b897b1a84697836e9d4eed7e46241d44c0",
    "05_survey": "a8339255deac9337ed1e9437a6f0f6863b7c65cb331c995720a3f6f132317309",
}


@pytest.mark.parametrize("demo", sorted(
    (Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py")),
    ids=lambda path: path.stem)
def test_demo_runs(demo):
    root = demo.parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem], \
        proc.stdout[-2000:]


def test_star_import_binds_exactly_all():
    import neurocode
    namespace = {}
    exec("from neurocode import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(neurocode.__all__)
    assert len(neurocode.__all__) == len(set(neurocode.__all__))
    for name in neurocode.__all__:
        assert not isinstance(getattr(neurocode, name), ModuleType), name


class TestSurveyCli:
    def test_n1_golden(self, capsys):
        assert run_command(["survey", "--n", "1"]) == 0
        assert capsys.readouterr().out == (
            "# survey n=1: 2 codes\n"
            "# columns: id max_codewords max_intervals cf_size cf_nonmonomials ic mic\n"
            "1 1 1 1 0 true true\n"
            "2 1 1 1 1 true true\n"
            "# codes: 2\n"
            "# intersection_complete: 2\n"
            "# max_intersection_complete: 2\n"
            "# max_cf_nonmonomials_by_max_codewords: 1=1\n")

    def test_n2_rows_match_bruteforce(self, capsys):
        from neurocode import code_from_id, is_intersection_complete_bruteforce, is_mic_bruteforce
        assert run_command(["survey", "--n", "2"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert len(rows) == 14
        for row in rows:
            code = code_from_id(2, int(row[0]))
            assert (row[5] == "true") == is_intersection_complete_bruteforce(code).verdict
            assert (row[6] == "true") == is_mic_bruteforce(code).verdict

    def test_n3_deterministic_and_example_row(self, capsys):
        assert run_command(["survey", "--n", "3"]) == 0
        first = capsys.readouterr().out
        assert run_command(["survey", "--n", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        rows = [line for line in first.splitlines() if not line.startswith("#")]
        assert len(rows) == 254
        example_id = sum(1 << w for w in example_code().words)
        row = next(line for line in rows if line.startswith(f"{example_id} "))
        assert row == f"{example_id} 2 4 2 1 false false"

    def test_refusal_above_cap(self, capsys):
        assert run_command(["survey", "--n", "5"]) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n, sizing", [
        ("5", "4294967294 codes, about 24.9 days at 0.5 ms each"),
        ("1024", "about 10**(10**308) codes"), ("1000000", "about 10**(10**301029) codes")])
    def test_refusal_is_one_error_line(self, n, sizing):
        # sized in floats and small ints: no 2**n-bit int, no float overflow
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "neurocode", "survey", "--n", n],
            capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parent.parent, check=False)
        assert time.perf_counter() - t0 < 1
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == (f"error: survey over n={n} means {sizing}; "
                               f"the cap is n=4 (65534 codes)\n").encode()

    def test_json_summary(self, capsys):
        assert run_command(["survey", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["summary"]["codes"] == 14
        assert len(doc["rows"]) == 14


class TestSurveyArguments:
    def test_survey_refuses_bool_n(self):
        with pytest.raises(ValueError, match="positive integer, got True"):
            survey(True)

    def test_code_from_id_refuses_bool_n(self):
        with pytest.raises(InvalidCodeError, match="got True"):
            code_from_id(True, 1)

    def test_code_from_id_refuses_n_before_the_words(self):
        # range(1 << 40) would be walked before the code refused n
        with pytest.raises(InvalidCodeError, match="got 40"):
            code_from_id(40, 1)

    @pytest.mark.parametrize("code_id", [-1, 0, 15, 17, 1 << 70])
    def test_code_from_id_refuses_ids_out_of_range(self, code_id):
        with pytest.raises(ValueError, match=r"must be in 1\.\.2\*\*4 - 2"):
            code_from_id(2, code_id)


class TestMethodDisagreement:
    @staticmethod
    def invert(monkeypatch, table, name):
        decide = table[name]

        def inverted(code):
            report = decide(code)
            return dataclasses.replace(report, verdict=not report.verdict,
                                       witness=None, certificate=None)
        monkeypatch.setitem(table, name, inverted)

    @pytest.mark.parametrize("table, name, prop", [
        (classify._IC_METHODS, "cf", "intersection-complete"),
        (classify._MIC_METHODS, "algebraic", "max-intersection-complete"),
    ])
    def test_survey_raises(self, table, name, prop, monkeypatch):
        self.invert(monkeypatch, table, name)
        with pytest.raises(MethodDisagreement) as err:
            list(survey(2))
        assert str(err.value) == f"{prop} methods disagree on id 1 (n=2)"

    def test_check_prints_the_patched_report_in_table_order(
            self, example_file, monkeypatch, capsys):
        self.invert(monkeypatch, classify._MIC_METHODS, "algebraic")
        assert run_command(["check", "mic", "--input", example_file]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "MIC brute_force: false",
            "  witness: missing intersection: 12 & 13 = 1",
            "MIC canonical_form: true",
            "MIC factor_complex: false",
            "  witness: violating facet: 1~2~3",
        ]
