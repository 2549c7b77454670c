import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from neurocode import (
    Code,
    ParseError,
    ParseWarning,
    parse_code,
    render_code_document,
)
from neurocode.cli import run_command

from oracles import all_codes, example_code, sample_codes

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

    def test_word_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_code("n=2\n3\n", source="doc")
        assert err.value.line == 2

    def test_repeated_neuron_in_token(self):
        with pytest.raises(ParseError):
            parse_code("n=3\n11\n")

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


@pytest.mark.parametrize("demo", sorted(
    (Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py")),
    ids=lambda path: path.stem)
def test_demo_runs(demo):
    root = demo.parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


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

    def test_json_summary(self, capsys):
        assert run_command(["survey", "--n", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["summary"]["codes"] == 14
        assert len(doc["rows"]) == 14
