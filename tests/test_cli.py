"""Command-line behavior: reports, exit codes, certificate files."""

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from horaprove import cli, corpus_path, parse_file, parse_identity, prove
from horaprove.cli import main
from horaprove.prover import DEFAULT_MAX_ORDER, Counterexample, FuzzResult
from horaprove.ring import SYMBOLS
from conftest import MULTI_INDEX, OVER_CAP_AFTER_WITNESS, U_BASIS_3, reference_json_dict
from reachability import Q_PRODUCT_OVERFLOW

PAPER = str(corpus_path("paper.fib"))
MUTATIONS = str(corpus_path("mutations.fib"))
TEMPLATE = str(corpus_path("horadam_extra.fib"))
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestVerify:
    def test_main_corpus_all_proved(self, capsys):
        assert main(["verify", PAPER]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 20  # one per identity plus the totals line
        assert all("PROVED" in line for line in out[:-1])
        assert out[-1].startswith("total: 19 identities, 19 proved")

    def test_mutation_corpus_all_refuted(self, capsys):
        assert main(["verify", MUTATIONS]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "total: 38 identities, 0 proved, 38 refuted, 0 aborted"

    def test_both_corpora_exit_on_refutation(self, capsys):
        assert main(["verify", PAPER, MUTATIONS]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("total: 57 identities, 19 proved, 38 refuted")

    def test_empty_template_exits_clean(self, capsys):
        assert main(["verify", TEMPLATE]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].startswith("total: 0 identities")

    def test_missing_file(self, capsys):
        assert main(["verify", "no-such-file.fib"]) == 2
        err = capsys.readouterr().err
        assert "no-such-file.fib" in err

    def test_parse_error_is_positioned(self, tmp_path, capsys):
        bad = tmp_path / "bad.fib"
        bad.write_text("forall n: W(n+1 == W(n)\n", encoding="utf-8")
        assert main(["verify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err

    @pytest.mark.parametrize(
        "text, col",
        [
            ("forall n: W(n+²) == W(n)", 15),  # in an index form
            ("forall n: W(n)^² == W(n)^2", 16),  # as an exponent
            ("forall n: ²*W(n) == W(n)", 11),  # as a literal factor
            ("forall n: 2①*W(n) == W(n)", 12),  # after a decimal digit
        ],
    )
    def test_non_decimal_digit_is_a_positioned_error(self, text, col, tmp_path, capsys):
        # str.isdigit accepts these characters, but int() does not
        path = tmp_path / "digit.fib"
        path.write_text(text + "\n", encoding="utf-8")
        for command in ("verify", "fuzz"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}:1:{col}: unexpected character" in err
            assert "Traceback" not in err

    def test_order_cap_aborts_with_exit_two(self, capsys):
        assert main(["verify", PAPER, "--max-order", "3"]) == 2
        out = capsys.readouterr().out
        assert "ABORTED" in out

    def test_a_witness_before_an_over_cap_elimination_refutes_with_exit_one(
        self, tmp_path, capsys
    ):
        path = tmp_path / "witness-first.fib"
        path.write_text(OVER_CAP_AFTER_WITNESS + "\n", encoding="utf-8")
        assert main(["verify", str(path), "--max-order", "3"]) == 1
        verdict, total = capsys.readouterr().out.splitlines()
        assert re.fullmatch(rf"{re.escape(str(path))}:1: REFUTED \(\d+ ms\)", verdict)
        assert total == "total: 1 identities, 0 proved, 1 refuted, 0 aborted"

    def test_exponent_out_of_ring_range_aborts_with_exit_two(self, tmp_path, capsys):
        path = tmp_path / "big.fib"
        path.write_text(
            "forall n: q^(1099511627776)*W(n+1) == q^(1099511627776)*(p*W(n) - q*W(n-1))\n"
            "forall n: u(n) == u(n)\n",
            encoding="utf-8",
        )
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{path}:1: ABORTED" in captured.out
        assert "exponent 1099511627776 of q is outside" in captured.out
        assert f"{path}:2: PROVED" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_far_index_aborts_at_once(self, tmp_path, capsys):
        # the top power p^(k-1), or q^k on the reflected side, is packed
        # before any term is built
        path = tmp_path / "far.fib"
        path.write_text(
            "forall n: W(n+3000000000) == 0\n"
            "forall n: u(n-3000000000) == 0\n"
            "forall n: u(n-1500000000) == 0\n",
            encoding="utf-8",
        )
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        for line in (1, 2):
            assert f"{path}:{line}: ABORTED" in captured.out
        assert captured.out.count("exponent 2999999999 of p is outside the ring's range") == 2
        assert f"{path}:3: ABORTED" in captured.out
        assert "exponent -1500000000 of q is outside the ring's range" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_the_least_order_cap_is_accepted(self, capsys):
        assert main(["verify", PAPER, "--max-order", "1"]) == 2
        captured = capsys.readouterr()
        assert "must be at least" not in captured.err
        assert "exceeds the cap 1)" in captured.out
        total = captured.out.splitlines()[-1]
        assert total == "total: 19 identities, 1 proved, 0 refuted, 18 aborted"

    def test_q_powers_whose_product_leaves_the_ring_abort(self, tmp_path, capsys):
        # q^(10^9) is in range, but the product of two is q^(2*10^9): the
        # packed sum sets q's guard bit, and ring._product_overflow names q
        path = tmp_path / "overflow.fib"
        path.write_text(Q_PRODUCT_OVERFLOW, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(
            rf"{re.escape(str(path))}:1: ABORTED \(\d+ ms\) \(exponent 2000000000 of q is "
            r"outside the ring's range -1073741824 <= e < 1073741824\)",
            captured.out.splitlines()[0],
        )
        assert "Traceback" not in captured.err

    def test_default_cap_is_the_provers(self, capsys):
        assert cli._build_parser().parse_args(["verify", PAPER]).max_order == DEFAULT_MAX_ORDER
        assert main(["verify", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"exceeds K (default {DEFAULT_MAX_ORDER})" in help_text

    def test_raised_cap_allows_everything(self, capsys):
        assert main(["verify", PAPER, "--max-order", "128"]) == 0
        capsys.readouterr()

    def test_elim_order_flag(self, capsys):
        assert main(["verify", PAPER, "--elim-order", "k,m,n,j,r"]) == 0
        capsys.readouterr()

    def test_elim_order_repeated_name_keeps_its_first_place(self, tmp_path, capsys):
        path = tmp_path / "addition.fib"
        path.write_text("forall m, n: W(m+n+1) == W(m+1)*u(n+1) - q*W(m)*u(n)\n", encoding="utf-8")
        certs = tmp_path / "certs"
        assert main(["verify", str(path), "--elim-order", "m,n,m", "--cert-out", str(certs)]) == 0
        capsys.readouterr()
        doc = json.loads((certs / "addition-001.json").read_text(encoding="utf-8"))
        assert doc["elimination"] == ["m", "n"]
        assert [leaf["at"] for leaf in doc["leaves"]] == [
            {"m": 0, "n": 0}, {"m": 0, "n": 1}, {"m": 1, "n": 0}, {"m": 1, "n": 1},
        ]

    @pytest.mark.parametrize("command", ["verify", "fuzz"])
    def test_non_utf8_file_is_a_positioned_error(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.fib"
        path.write_bytes(b"forall n: W(n) == W(n)\n# fine\nforall n: W(n) == W(n)\xff\n")
        assert main([command, str(path), PAPER, "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:3: not UTF-8: byte 0xff\n"
        # the run goes on with the next file
        assert captured.out.strip().splitlines()[-1].startswith("total: 19 identities")

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "bom.fib"
        path.write_bytes(b"\xef\xbb\xbfforall n: W(n+2) == p*W(n+1) - q*W(n)\n")
        assert main(["verify", str(path)]) == 0
        assert f"{path}:1: PROVED" in capsys.readouterr().out

    def test_byte_order_mark_keeps_the_bad_byte_line(self, tmp_path, capsys):
        path = tmp_path / "bom.fib"
        path.write_bytes(
            b"\xef\xbb\xbfforall n: W(n) == W(n)\n# fine\nforall n: W(n) == W(n)\xff\n"
        )
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: not UTF-8: byte 0xff\n"

    def test_elim_order_not_covering_some_identity(self, capsys):
        assert main(["verify", PAPER, "--elim-order", "m,n"]) == 2
        err = capsys.readouterr().err
        assert "does not cover" in err

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_elim_order_naming_no_index_is_one_usage_error(self, value, tmp_path, capsys):
        missing = tmp_path / "missing.fib"
        certs = tmp_path / "certs"
        argv = ["verify", PAPER, str(missing), "--elim-order", value, "--cert-out", str(certs)]
        assert main(["verify", "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0] + "\n"
        assert main(argv) == 2
        captured = capsys.readouterr()
        # raised before any file is read: no report, no unreadable-file error
        assert captured.err == (
            usage + "horaprove verify: error: argument --elim-order: names no index variable\n"
        )
        assert captured.out == ""
        assert not certs.exists()

    def test_fuzz_after_annotates_report(self, capsys):
        assert main(["verify", PAPER, "--fuzz-after", "--trials", "25"]) == 0
        out = capsys.readouterr().out
        assert "fuzz=PASS(25)" in out

    def test_fuzz_after_reports_oracle_disagreement(self, tmp_path, capsys, monkeypatch):
        ones = tuple((s, Fraction(1)) for s in sorted(SYMBOLS))
        cex = Counterexample(3, ones, (("n", -2),), Fraction(1, 2), Fraction(0))
        monkeypatch.setattr(
            cli, "fuzz", lambda identity, *args: FuzzResult(identity, cex.trial, cex)
        )
        path = tmp_path / "proved.fib"
        path.write_text("forall n: W(n+2) == p*W(n+1) - q*W(n)\n", encoding="utf-8")
        assert main(["verify", str(path), "--fuzz-after"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}:1: oracle disagrees with PROVED verdict: {cex.describe()}\n"
        )
        assert f"{path}:1: PROVED" in captured.out
        assert "fuzz=PASS" not in captured.out
        assert captured.out.strip().endswith("total: 1 identities, 1 proved, 0 refuted, 0 aborted")

    def test_fuzz_after_reports_an_oracle_crash_and_goes_on(self, tmp_path, capsys, monkeypatch):
        real_fuzz = cli.fuzz

        def crash_on_line_one(identity, *args):
            if identity.line == 1:
                raise RuntimeError("oracle crashed")
            return real_fuzz(identity, *args)

        monkeypatch.setattr(cli, "fuzz", crash_on_line_one)
        path = tmp_path / "two.fib"
        path.write_text(
            "forall n: W(n+2) == p*W(n+1) - q*W(n)\nforall n: u(n) == u(n)\n", encoding="utf-8"
        )
        assert main(["verify", str(path), "--fuzz-after", "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:1: RuntimeError: oracle crashed\n"
        first, second, total = captured.out.splitlines()
        assert re.fullmatch(rf"{re.escape(str(path))}:1: PROVED \(\d+ ms\)", first)
        assert second.startswith(f"{path}:2: PROVED") and second.endswith(" fuzz=PASS(5)")
        assert total == "total: 2 identities, 2 proved, 0 refuted, 0 aborted"


class TestCertificates:
    def test_written_one_per_identity(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        assert main(["verify", PAPER, "--cert-out", str(certs)]) == 0
        capsys.readouterr()
        files = sorted(certs.glob("*.json"))
        assert len(files) == 19
        assert files[0].name == "paper-001.json"

    def test_valid_json_with_fixed_keys(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        main(["verify", PAPER, "--cert-out", str(certs)])
        capsys.readouterr()
        for path in certs.glob("*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert list(doc.keys()) == [
                "identity", "elimination", "proof", "leaves", "verdict", "ms",
            ]
            assert doc["verdict"] == "PROVED"

    def test_byte_stable_modulo_timing(self, tmp_path, capsys):
        c1, c2 = tmp_path / "c1", tmp_path / "c2"
        main(["verify", PAPER, "--cert-out", str(c1)])
        main(["verify", PAPER, "--cert-out", str(c2)])
        capsys.readouterr()
        for path in sorted(c1.glob("*.json")):
            d1 = json.loads(path.read_text(encoding="utf-8"))
            d2 = json.loads((c2 / path.name).read_text(encoding="utf-8"))
            d1.pop("ms"), d2.pop("ms")
            assert d1 == d2

    def test_each_file_is_one_line_holding_its_certificates_document(self, tmp_path, capsys):
        u_basis = tmp_path / "u_basis.fib"
        u_basis.write_text(U_BASIS_3 + "\n", encoding="utf-8")
        sources = [PAPER, MUTATIONS, TEMPLATE, str(MULTI_INDEX), str(u_basis)]
        certs = tmp_path / "certs"
        main(["verify", *sources, "--cert-out", str(certs)])
        capsys.readouterr()
        count = 0
        for source in map(Path, sources):
            identities = parse_file(source.read_text(encoding="utf-8")).identities
            for i, identity in enumerate(identities, start=1):
                cert = prove(identity)
                doc = cert.to_json_dict()
                assert json.loads(cert.json_text()) == doc
                data = (certs / f"{source.stem}-{i:03d}.json").read_bytes()
                assert data.endswith(b"\n") and data.count(b"\n") == 1
                written = json.loads(data)
                written.pop("ms"), doc.pop("ms")
                assert written == doc
                count += 1
        assert count == 19 + 38 + 5 + 1

    def test_a_failed_write_is_that_identitys_error_and_the_run_goes_on(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        blocked = certs / "paper-002.json"
        blocked.mkdir(parents=True)  # a directory where the second certificate goes
        assert main(["verify", PAPER, "--cert-out", str(certs)]) == 2
        captured = capsys.readouterr()
        line = parse_file(Path(PAPER).read_text(encoding="utf-8")).identities[1].line
        assert captured.err.startswith(f"error: {PAPER}:{line}: {blocked}: ")
        assert captured.err.count("\n") == 1
        *verdicts, total = captured.out.splitlines()
        assert len(verdicts) == 18 and all(" PROVED " in v for v in verdicts)
        assert not any(v.startswith(f"{PAPER}:{line}:") for v in verdicts)
        assert total == "total: 18 identities, 18 proved, 0 refuted, 0 aborted"
        assert len([p for p in certs.glob("*.json") if p.is_file()]) == 18

    def test_repeated_file_stems_get_numbered_names(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        first, second = tmp_path / "d1" / "x.fib", tmp_path / "d2" / "x.fib"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text("forall n: W(n+2) == p*W(n+1) - q*W(n)\n", encoding="utf-8")
        argv = ["verify", "--cert-out", str(certs), str(first), str(second), str(first)]
        assert main(argv) == 0
        *verdicts, _total = capsys.readouterr().out.splitlines()
        names = ["x-001.json", "x-2-001.json", "x-3-001.json"]
        assert sorted(p.name for p in certs.iterdir()) == names
        assert [v.split(" -> ")[1] for v in verdicts] == [str(certs / n) for n in names]

    def test_refuted_certificates_record_nonzero_leaves(self, tmp_path, capsys):
        certs = tmp_path / "certs"
        assert main(["verify", MUTATIONS, "--cert-out", str(certs)]) == 1
        capsys.readouterr()
        for path in certs.glob("*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["verdict"] == "REFUTED"
            assert any(not leaf["zero"] for leaf in doc["leaves"])


class TestCertificateText:
    """Certificate.json_text writes json.dumps(doc) of the reference doc."""

    @staticmethod
    def checked(cert) -> str:
        text = cert.json_text()
        assert text == json.dumps(reference_json_dict(cert))
        return text

    def test_every_shipped_certificate(self):
        names = ("paper.fib", "mutations.fib", "horadam_extra.fib")
        sources = [*map(corpus_path, names), MULTI_INDEX]
        count = 0
        for source in sources:
            for identity in parse_file(source.read_text(encoding="utf-8")).identities:
                self.checked(prove(identity))
                count += 1
        assert count == 19 + 38 + 5

    def test_an_aborted_certificate(self):
        law = parse_identity("forall n: W(n+2) == p*W(n+1) - q*W(n)")
        text = self.checked(prove(law, max_order=1))
        assert '"proof": null' in text and '"leaves": []' in text
        assert '"reason": "annihilator order 2 for index' in text

    def test_a_goal_that_is_zero_at_the_root(self):
        text = self.checked(prove(parse_identity("forall n: W(n)*u(n) == u(n)*W(n)")))
        assert '"proof": {"leaf": {' in text and '"at": {}' in text

    def test_a_pinned_identity(self):
        law = parse_identity("forall n: u(n+1)*u(n-1) - u(n)^2 == -q^(n-1) with p := 1, q := -1")
        text = self.checked(prove(law))
        assert '"verdict": "PROVED"' in text and "with p := 1, q := -1" in text

    def test_non_ascii_names_are_escaped(self):
        law = parse_identity("let \u00e4 = p*q\nforall \u00f1: \u00e4*W(\u00f1+2) == "
                             "\u00e4*(p*W(\u00f1+1) - q*W(\u00f1))")
        text = self.checked(prove(law))
        assert text.isascii()
        assert '"index": "\\u00f1"' in text and '"\\u00f1": 1' in text
        assert '"identity": "forall \\u00f1: \\u00e4*W(\\u00f1+2) == ' in text


class TestFuzzCommand:
    def test_main_corpus_passes(self, capsys):
        assert main(["fuzz", PAPER, "--trials", "50"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert all("PASS" in line for line in out[:-1])
        assert out[-1] == "total: 19 identities fuzzed"

    def test_mutations_all_falsified(self, capsys):
        assert main(["fuzz", MUTATIONS, "--trials", "500"]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        body = out[:-1]
        assert len(body) == 38
        assert all("COUNTEREXAMPLE" in line for line in body)
        assert all("lhs=" in line and "rhs=" in line for line in body)

    def test_deterministic_output(self, capsys):
        main(["fuzz", MUTATIONS, "--seed", "9"])
        first = capsys.readouterr().out
        main(["fuzz", MUTATIONS, "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "seed, value_range, name",
        [(0, 9, "fuzz_seed0"), (3, 9, "fuzz_seed3"), (5, 30, "fuzz_seed5_range30")],
        ids=["0", "3", "5-range30"],
    )
    def test_whole_report_matches_the_golden_file(
        self, seed, value_range, name, capsys, monkeypatch
    ):
        # every draw and every printed value of both shipped files; the
        # golden files hold the report as the oracle printed it, with paths
        # relative to the corpus directory.  At range 30 the indices reach
        # far into both directions of every family.
        monkeypatch.chdir(corpus_path("paper.fib").parent)
        args = ["fuzz", "paper.fib", "mutations.fib", "--seed", str(seed)]
        assert main([*args, "--trials", "200", "--range", str(value_range)]) == 1
        golden = GOLDEN / f"{name}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_zero_trials_usage_error(self, capsys):
        assert main(["fuzz", PAPER, "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_zero_range_usage_error(self, capsys):
        assert main(["fuzz", PAPER, "--range", "0"]) == 2
        assert "--range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, trials", [("--trials", 1), ("--range", 200)])
    def test_the_least_trials_and_range_are_accepted(self, flag, trials, capsys):
        assert main(["fuzz", PAPER, flag, "1"]) == 0
        captured = capsys.readouterr()
        assert "must be at least" not in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == f"{PAPER}:10: PASS ({trials} trials)"
        assert lines[-1] == "total: 19 identities fuzzed"


N_LONG = 1200
LONG_INPUTS = {
    "sum": "forall n: " + " + ".join(["u(n)"] * N_LONG) + f" == {N_LONG}*u(n)\n",
    "product": "forall n: " + "*".join(["p"] * N_LONG) + f"*u(n) == p^{N_LONG}*u(n)\n",
    "let": (
        "let e = " + " + ".join(["p"] * N_LONG) + "\n"
        f"forall n: e*u(n) == {N_LONG}*p*u(n)\n"
    ),
    # each let is valued once, from the lets before it, not by recursion
    "let_chain": (
        "let e0 = p\n"
        + "".join(f"let e{k} = e{k - 1}*1\n" for k in range(1, 601))
        + "forall n: e600*u(n) == p*u(n)\n"
    ),
}


class TestLargeInputs:
    """Long sums, products and nesting end in a verdict or a positioned error."""

    @pytest.mark.parametrize("kind", sorted(LONG_INPUTS))
    def test_long_flat_input_is_proved_and_passes_the_oracle(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.fib"
        path.write_text(LONG_INPUTS[kind], encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{path}:" in out and "PROVED" in out
        assert main(["fuzz", str(path), "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert f"{path}:" in out and "PASS (20 trials)" in out

    def test_far_constant_q_powers_pass_the_oracle(self, tmp_path, capsys):
        # q^(±3000000) is a 3-million-bit integer at |q| = 2; the oracle keeps
        # no list of every power below it.  (At |q| = 9 one such power takes
        # seconds to compute, so the range stays at 2.)
        path = tmp_path / "far.fib"
        path.write_text(
            "".join(
                f"forall n: q^({k})*W(n+1) == q^({k})*(p*W(n) - q*W(n-1))\n"
                for k in ("3000000", "-3000000")
            ),
            encoding="utf-8",
        )
        assert main(["fuzz", str(path), "--trials", "3", "--range", "2"]) == 0
        out = capsys.readouterr().out
        assert f"{path}:1: PASS (3 trials)" in out and f"{path}:2: PASS (3 trials)" in out

    def test_nesting_past_the_limit_is_a_positioned_error(self, tmp_path, capsys):
        path = tmp_path / "nested.fib"
        text = "forall n: " + "(" * 101 + "u(n)" + ")" * 101 + " == u(n)\n"
        path.write_text(text, encoding="utf-8")
        for command in ("verify", "fuzz"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert f"{path}:1:" in err and "nested deeper than 100" in err

    def test_crash_in_one_identity_is_reported_and_the_run_goes_on(
        self, tmp_path, capsys, monkeypatch
    ):
        def crash_on_line_one(real):
            def wrapped(identity, *args, **kwargs):
                if identity.line == 1:
                    raise RuntimeError("boom")
                return real(identity, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(cli, "prove", crash_on_line_one(cli.prove))
        monkeypatch.setattr(cli, "fuzz", crash_on_line_one(cli.fuzz))
        path = tmp_path / "three.fib"
        path.write_text(
            "forall n: W(n) == W(n)\nforall n: u(n) == u(n)\nforall n: W(n) == V(n)\n",
            encoding="utf-8",
        )
        for command, false in (("verify", "REFUTED"), ("fuzz", "COUNTEREXAMPLE")):
            # a crash and a refutation in one run: the higher code, 2, wins
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert f"error: {path}:1: RuntimeError: boom" in captured.err
            assert "Traceback" not in captured.err
            assert f"{path}:2: P" in captured.out  # PROVED or PASS
            assert f"{path}:3: {false}" in captured.out


class TestInvocation:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "verify" in capsys.readouterr().out

    def test_readme_library_snippet_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (snippet,) = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(snippet, {})
        assert out.getvalue().splitlines() == ["PROVED 2", "True"]

    def test_readme_certificate_example_is_current(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        (let,) = re.findall(r"^let e = .*$", text, re.M)
        (example,) = re.findall(r"```json\n(.*?)```", text, re.S)
        identity = re.search(r'"identity": "(.*)"', example).group(1)
        order = int(re.search(r'"order": (\d+)', example).group(1))
        charpoly = re.search(r'"charpoly": "(.*)"', example).group(1)
        doc = prove(parse_identity(f"{let}\n{identity}\n")).to_json_dict()
        assert doc["verdict"] == "PROVED"
        assert doc["identity"] == identity
        assert doc["proof"]["order"] == order
        assert doc["proof"]["charpoly"] == charpoly

    def test_readme_fuzz_line_is_current(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert "`PASS (200 trials)`" in readme.read_text(encoding="utf-8")
        path = tmp_path / "one.fib"
        path.write_text("forall n: W(n+2) == p*W(n+1) - q*W(n)\n", encoding="utf-8")
        assert main(["fuzz", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"{path}:1: PASS (200 trials)"

    @pytest.mark.parametrize("argv, code", [(["verify", TEMPLATE], 0), (["verify", MUTATIONS], 1),
                                            (["fuzz", "no-such-file.fib"], 2)])
    def test_console_script_exits_with_mains_code(self, argv, code, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["horaprove", *argv])
        with pytest.raises(SystemExit) as exit_:
            cli.entrypoint()
        assert exit_.value.code == code
        capsys.readouterr()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "horaprove", "verify", TEMPLATE],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "total: 0 identities" in proc.stdout

    @pytest.mark.parametrize("argv", [["verify", PAPER], ["fuzz", "--trials", "5", PAPER]])
    def test_a_closed_stdout_is_an_error_not_a_verdict(self, argv):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written, as `| head` may be
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "horaprove", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""


class TestCollector:
    """main runs with the cyclic collector off, since a run's only cyclic
    garbage is argparse's parser, the same whatever the input."""

    @staticmethod
    def garbage(argv, capsys) -> tuple:
        """(exit code, objects found, Counter of their types) of the cycles main(argv) leaves."""
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            code = main(argv)
            capsys.readouterr()
            found = gc.collect()
            return code, found, Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_a_run_leaves_no_cycles_but_argparses(self, tmp_path, capsys):
        one = tmp_path / "one.fib"
        one.write_text("forall n: W(n+2) == p*W(n+1) - q*W(n)\n", encoding="utf-8")
        bad = tmp_path / "bad.fib"
        bad.write_text("forall n: W(n+1 == W(n)\n", encoding="utf-8")
        code, *baseline = self.garbage(["verify", str(one)], capsys)
        assert code == 0 and baseline[0] > 0 and baseline[1]["ArgumentParser"] == 2
        certs = str(tmp_path / "certs")
        runs = [
            (["verify", "--cert-out", certs, PAPER, MUTATIONS, TEMPLATE, str(MULTI_INDEX)], 1),
            (["verify", "--max-order", "2", PAPER], 2),  # ABORTED
            (["verify", "--fuzz-after", "--trials", "25", PAPER], 0),
            (["fuzz", "--trials", "25", PAPER, MUTATIONS], 1),
            (["verify", str(tmp_path / "missing.fib")], 2),
            (["verify", str(bad)], 2),
        ]
        for argv, expected in runs:
            code, *left = self.garbage(argv, capsys)
            assert code == expected and left == baseline, argv
        # a usage error's message adds a formatter's cycles, whichever parser reports it
        code, *usage = self.garbage(["verify"], capsys)
        other_code, *other_usage = self.garbage([], capsys)
        assert code == other_code == 2 and usage == other_usage

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv",
        [["verify", PAPER], ["verify", "--max-order", "2", PAPER], ["verify"], ["fuzz", PAPER]],
        ids=["proved", "aborted", "usage-error", "fuzz"],
    )
    def test_main_runs_without_the_collector_and_restores_it(
        self, enabled, argv, capsys, monkeypatch
    ):
        during = []
        for name in ("cmd_verify", "cmd_fuzz"):
            command = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda args, command=command: during.append(gc.isenabled()) or command(args)
            )
        (gc.enable if enabled else gc.disable)()
        try:
            main(argv)
            after = gc.isenabled()
        finally:
            gc.enable()
        capsys.readouterr()
        assert after is enabled
        assert during == ([] if argv == ["verify"] else [False])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_an_exception_out_of_main_restores_the_collector(self, enabled, monkeypatch):
        def closed_stdout(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "cmd_verify", closed_stdout)
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(BrokenPipeError):
                main(["verify", PAPER])
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled
