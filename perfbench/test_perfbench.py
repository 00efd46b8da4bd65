"""Checks of the benchmark itself: labels, determinism, tracing, contract.

Run from the root of a checkout (takes about half a minute):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speedref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from horaprove import fuzz, parse_file  # noqa: E402

ORACLE_SEEDS = (11, 12)


def _identities(name: str):
    text = workloads.input_path(name).read_text(encoding="utf-8")
    return parse_file(text).identities


@pytest.mark.parametrize("name", sorted({
    name for w in workloads.WORKLOADS.values() for name in w.files
}))
def test_labels_agree_with_the_fuzz_oracle(name):
    labels = workloads.expected_verdicts()[name]
    identities = _identities(name)
    assert sorted(labels) == [it.line for it in identities]
    for identity in identities:
        for seed in ORACLE_SEEDS:
            result = fuzz(identity, workloads.FUZZ_TRIALS, seed, workloads.FUZZ_RANGE)
            answer = "PASS" if result.ok else "COUNTEREXAMPLE"
            assert answer == workloads.FUZZ_ANSWER[labels[identity.line]], (name, identity.line)


def _pass(tmp_root: Path, name: str, trace: bool, n: int):
    work = tmp_root / name
    work.mkdir(exist_ok=True)
    return run.run_pass(ROOT, work, workloads.WORKLOADS[name], 3, trace, n)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced pass of every workload, plus a second
    untraced corpus pass."""
    tmp = tmp_path_factory.mktemp("passes")
    out = {}
    for name in workloads.WORKLOADS:
        out[name, False] = _pass(tmp, name, False, 1)
        out[name, True] = _pass(tmp, name, True, 2)
    out["corpus-again", False] = _pass(tmp, "corpus", False, 3)
    return out


def test_every_pass_is_correct(passes):
    for key, result in passes.items():
        assert result["failed"] == 0, key
        assert result["exit_ok"] and not result["crash"], (key, result["stderr"])


def test_two_passes_write_equal_certificates(passes):
    first, second = passes["corpus", False], passes["corpus-again", False]
    assert first["cert_bytes"] > 0
    assert first["cert_digest"] == second["cert_digest"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_verdict_or_certificate(passes, name):
    plain, traced = passes[name, False], passes[name, True]
    assert plain["verdicts"] == traced["verdicts"]
    assert plain["cert_digest"] == traced["cert_digest"]


def test_oracle_passes_repeat_the_same_work(passes):
    plain, traced = passes["oracle", False], passes["oracle", True]
    assert plain["stdout_bytes"] == traced["stdout_bytes"]
    assert plain["identity_full"] == traced["identity_full"]
    assert sum(plain["identity_full"]) == 19  # the PROVED identities run all trials


def test_predicted_layers_are_nonzero(passes):
    for metric, (_effect, names) in tracer.PREDICTIONS.items():
        for name in names:
            assert passes[name, True]["layers"][metric] > 0, (metric, name)


def test_spans_have_parents_and_self_times(passes):
    spans = passes["multi_index", True]["trace"]["spans"]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids or s["name"] == "cli.main" for s in spans)
    assert all(0 <= s["self_s"] <= s["end"] - s["start"] + 1e-6 for s in spans)
    requests = {s["request"] for s in spans if s["name"] == "prover.synth"}
    assert len(requests) == 5  # one request id per identity


def test_benchmark_json_matches_the_code(passes):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = passes["corpus", True]["layers"]
    names = [*layers, "trace.wall_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in names
    }
    assert set(tracer.PREDICTIONS) <= set(names)


def test_the_reference_kernel_is_fixed():
    # NOMINAL_S was measured on this kernel; a different kernel rescales
    # every reported time.
    assert speedref.kernel() == 768


def test_each_identity_is_scaled_by_the_kernel_times_around_it():
    n = speedref.NOMINAL_S
    timed = {"identity_s": [1.0, 1.0], "ref_start_s": [n, n], "ref_after_s": [n, 3 * n],
             "ref_end_s": [n]}
    scales, rest = run.pass_scales(timed)
    assert scales == pytest.approx([1.0, 0.5])
    assert rest == pytest.approx(5 / 7)  # all five kernel times, mean 7n/5
    traced = {**timed, "ref_after_s": [], "ref_end_s": [3 * n, n]}  # none between identities
    scales, rest = run.pass_scales(traced)
    assert scales == pytest.approx([2 / 3] * 2) and rest == pytest.approx(2 / 3)
    assert run.pass_scales(timed, scaled=False) == ([1.0, 1.0], 1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
