"""The benchmark's tracer and pass runner still find every name they use.

perfbench/tracer.py wraps program functions by name; a renamed function,
or work routed around it, would leave its layer reading 0 without any
error.  The module is loaded read-only: loading it wraps nothing, and a
test that installs it uninstalls it again.  perfbench/passrun.py times
`prove` and `fuzz` by rebinding them in `cli`, reads
`horaprove.FuzzResult` and `horaprove.corpus_path`, and reads each
verdict back from the report lines that `cli` prints.  Its set-up time is
the cost of `import horaprove`, which must stay free of modules that only
the closure algebra or the standard library's heavier helpers need.
One more guard keeps a slow lookup off the hot paths: no function reads
a SequenceKind member off the class.  And every module must parse at the
oldest Python that pyproject.toml promises, though the tests may run on
a newer one.
"""

import ast
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import horaprove
from conftest import by_fragment
from horaprove import cli, corpus_path, parse_file, prove, prover
from horaprove.sequences import SequenceKind

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load(name: str):
    """perfbench/<name>.py as a module; perfbench/ is importable only meanwhile."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def run_main(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_traced_target_resolves():
    tracer = load("tracer")
    assert tracer.TARGETS
    for layer, owner, attr, _kind in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr} is gone"


def test_package_names_the_harness_uses_resolve():
    for name in horaprove.__all__:
        assert hasattr(horaprove, name), f"horaprove.__all__ names {name}, which is gone"
    assert cli.prove is prover.prove
    assert cli.fuzz is prover.fuzz
    assert isinstance(horaprove.FuzzResult, type)
    assert callable(horaprove.corpus_path)


def test_every_shipped_corpus_name_resolves():
    shipped = sorted(path.name for path in (ROOT / "src" / "horaprove" / "corpus").glob("*.fib"))
    assert shipped == ["horadam_extra.fib", "mutations.fib", "paper.fib"]
    for name in shipped:
        assert corpus_path(name).is_file(), name
    assert corpus_path() == corpus_path("paper.fib")


def test_import_loads_no_heavy_module():
    """A bare `import horaprove` loads neither dataclasses, json nor linalg.

    dataclasses pulls in inspect (and ast, dis, tokenize) and execs code for
    every decorated class; importlib.resources is as heavy when site has not
    loaded it; json is loaded with the first certificate written; linalg
    serves only the closure algebra.  -S keeps site from importing any of
    them first.
    """
    heavy = ("dataclasses", "inspect", "importlib.resources", "json", "horaprove.linalg")
    code = f"import sys, horaprove; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_ring_layers_stay_traceable():
    """Every ring product and sum goes through the wrapped callables.

    A private hot path around them would make the `ring.mul` and
    `ring.add` layers read 0, though the ring still does the work.
    """
    identity = parse_file(corpus_path("paper.fib").read_text()).identities[0]
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        cert = prove(identity)
    finally:
        tracer.uninstall()
    assert cert.verdict == "PROVED"
    layers = tracer.layer_metrics()
    assert layers["ring.mul_calls"] > 0
    assert layers["ring.add_calls"] > 0


def test_term_layer_stays_traceable():
    """Cached leaf terms still go through the wrapped `symbolic_term`.

    A term cache that leaf expansion consulted around
    `sequences.symbolic_term` would make the `sequences.term` layer read 0.
    """
    identity = parse_file(corpus_path("paper.fib").read_text()).identities[0]
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        cert = prove(identity)
    finally:
        tracer.uninstall()
    assert cert.verdict == "PROVED"
    assert tracer.layer_metrics()["sequences.term_calls"] > 0


def test_elimination_layers_stay_traceable():
    """Cached substitution and synthesis still go through the wrapped callables.

    A memo that routed instantiation or annihilator lookup around
    `NormalForm.substitute_index` or `prover.annihilator_for` would make
    the `lang.substitute` and `prover.synth` layers read 0.
    """
    paper = parse_file(corpus_path("paper.fib").read_text()).identities
    identity = by_fragment(paper, "forall m, n: W(m+n+1)")
    tracer = load("tracer").Tracer()
    tracer.install()
    try:
        cert = prove(identity)
    finally:
        tracer.uninstall()
    assert cert.verdict == "PROVED"
    layers = tracer.layer_metrics()
    assert layers["lang.substitute_calls"] > 0
    assert layers["prover.synth_calls"] > 0


def test_the_pass_runner_reads_every_workload_report(tmp_path):
    """Every verdict of every workload reads back from the CLI's report.

    The pass runner finds each verdict, and each certificate, by a regex
    over the report lines; a line it no longer matched would count the
    identity as failed.
    """
    passrun = load("passrun")
    for name, workload in passrun.workloads.WORKLOADS.items():
        code, out = run_main(passrun.workloads.cli_argv(workload, 0, tmp_path / name))
        got = passrun.check(workload, out, code)
        assert got["attempted"] > 0, name
        assert got["failed"] == 0, name
        assert got["exit_ok"], name


def test_verify_line_layouts(tmp_path):
    """A line holds the verdict, the time, the certificate, then a note."""
    path = tmp_path / "laws.fib"
    path.write_text(
        "forall n: W(n+2) == p*W(n+1) - q*W(n)\nforall n: u(n+1)^2 - u(n)*u(n+2) == q^(n)\n",
        encoding="utf-8",
    )
    certs = tmp_path / "certs"
    argv = ["verify", "--cert-out", str(certs), "--max-order", "2", "--fuzz-after",
            "--trials", "3", str(path)]
    code, out = run_main(argv)
    assert code == 2
    proved, aborted, total = out.splitlines()
    head, cert = re.escape(str(path)), re.escape(str(certs / "laws"))
    assert re.fullmatch(rf"{head}:1: PROVED \(\d+ ms\) -> {cert}-001\.json fuzz=PASS\(3\)", proved)
    assert re.fullmatch(
        rf"{head}:2: ABORTED \(\d+ ms\) -> {cert}-002\.json "
        r"\(annihilator order 3 for index 'n' exceeds the cap 2\)",
        aborted,
    )
    assert total == "total: 2 identities, 1 proved, 0 refuted, 1 aborted"
    verify_line = load("passrun")._VERIFY_LINE
    for line, verdict, number in ((proved, "PROVED", 1), (aborted, "ABORTED", 2)):
        m = verify_line.match(line)
        assert m[3] == verdict
        assert m[4] == str(certs / f"laws-{number:03d}.json")


def test_no_function_reads_a_family_off_the_enum_class():
    """Code inside a function tests families against module globals (GEOQ).

    On CPython 3.11 `SequenceKind.GEOQ` is a class-attribute lookup through
    the Enum metaclass: about 140 ns a read against under 10 ns for a
    module global (3.11.7, x86-64).  The oracle once paid it on each of
    the 22,102 term reads of a benchmark pass.  Module-level tables such as
    SEEDS, and the GEOQ binding itself, read the class once, at import.
    """
    members = set(SequenceKind.__members__)
    found = set()
    for path in sorted((ROOT / "src" / "horaprove").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr in members
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "SequenceKind"
                    ):
                        found.add(f"{path.name}:{node.lineno} SequenceKind.{node.attr}")
    assert not found, sorted(found)


def test_every_module_parses_at_the_python_floor():
    """No module uses syntax newer than requires-python allows (match is
    3.10, except* 3.11): ast.parse at that feature_version rejects it."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert m, "pyproject.toml states no requires-python floor"
    floor = int(m[1]), int(m[2])
    for path in sorted((ROOT / "src" / "horaprove").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
