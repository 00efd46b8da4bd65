"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/passrun.py probe      import horaprove, print the clock
                                            and the reference-kernel times
    python3 perfbench/passrun.py JOB.json   run one workload pass

`horaprove` is imported first, so the monotonic clock read right after it
marks the end of set-up; the parent subtracts its own reading taken before
it started this process.  A pass calls `cli.main` in-process with output
captured, times every `prove` or `fuzz` call as bound in `cli` and notes
whether it ran its whole check (a `fuzz` call that finds a counterexample
stops early, at a trial that depends on the seed), then checks each verdict
against `expected.json` and reads back the certificates.  The reference
kernel of `speedref`, which gauges the host's speed, is timed right after
set-up, after each identity (in an untraced pass) and after the program.
The result goes to the JSON file named in the job.
"""

import time

import horaprove  # noqa: F401  (first: set-up ends when this returns)

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from horaprove import FuzzResult, cli  # noqa: E402

import speedref  # noqa: E402
import workloads  # noqa: E402

# Reference-kernel calls timed right before and right after the program runs.
REF_REPS = 4

_VERIFY_LINE = re.compile(r"^(.+):(\d+): (PROVED|REFUTED|ABORTED) \(\d+ ms\)(?: -> (\S+))?")
_FUZZ_LINE = re.compile(r"^(.+):(\d+): (PASS|COUNTEREXAMPLE)\b")


def _timed(fn, samples, full, refs):
    """Time each call; then, if `refs` is a list, time one reference kernel."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
        full.append(not isinstance(result, FuzzResult) or result.ok)
        if refs is not None:
            refs.extend(speedref.measure(1))
        return result

    return wrapper


def run_pass(job: dict) -> dict:
    workload = workloads.WORKLOADS[job["workload"]]
    speedref.kernel()  # untimed warm-up
    ref_start = speedref.measure(REF_REPS)
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    samples: list = []
    full: list = []
    # A traced pass times no kernel between identities: the tracer would
    # charge it to cli.main.
    refs = None if job["trace"] else []
    name = "prove" if workload.command == "verify" else "fuzz"
    original = getattr(cli, name)
    setattr(cli, name, _timed(original, samples, full, refs))
    argv = workloads.cli_argv(workload, job["seed"], Path(job["cert_dir"]))
    out, err = io.StringIO(), io.StringIO()
    crash = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash fails every identity of the pass
        code = None
        crash = traceback.format_exc()
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setattr(cli, name, original)
    if tracer is not None:
        tracer.uninstall()
    ref_end = speedref.measure(REF_REPS)

    result = {
        "ready": READY,
        "wall_s": wall,
        "ref_start_s": ref_start,
        "ref_after_s": refs or [],
        "ref_end_s": ref_end,
        "identity_s": samples,
        "identity_full": full,
        "rss_mb": rss_mb,
        "crash": crash,
        "stderr": err.getvalue(),
        "stdout_bytes": len(out.getvalue().encode("utf-8")),
    }
    result.update(check(workload, out.getvalue(), code))
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["trace"] = tracer.trace_dump()
    return result


def check(workload, stdout: str, code) -> dict:
    """Compare every reported verdict with the known answer.

    An identity counts as failed when its verdict is wrong, ABORTED,
    missing, or its certificate is missing or disagrees.
    """
    expected = workloads.expected_verdicts()
    want = {
        (name, line): verdict
        for name in workload.files
        for line, verdict in expected[name].items()
    }
    if workload.command == "fuzz":
        want = {key: workloads.FUZZ_ANSWER[v] for key, v in want.items()}
    pattern = _VERIFY_LINE if workload.command == "verify" else _FUZZ_LINE
    got = {}
    cert_bytes = 0
    digest = hashlib.sha256()
    for line in stdout.splitlines():
        m = pattern.match(line)
        if not m:
            continue
        key = (Path(m.group(1)).name, int(m.group(2)))
        verdict = m.group(3)
        if workload.command == "verify":
            cert_path = Path(m.group(4)) if m.group(4) else None
            if cert_path is None or not cert_path.is_file():
                verdict = "NO-CERTIFICATE"
            else:
                raw = cert_path.read_bytes()
                cert_bytes += len(raw)
                cert = json.loads(raw)
                if cert.get("verdict") != verdict:
                    verdict = "CERTIFICATE-DISAGREES"
                cert.pop("ms", None)
                digest.update(cert_path.name.encode() + b"\0")
                digest.update(json.dumps(cert, sort_keys=True).encode() + b"\0")
        got[key] = verdict
    failed = sum(1 for key, verdict in want.items() if got.get(key) != verdict)
    failed += sum(1 for key in got if key not in want)
    want_code = 1 if any(v in ("REFUTED", "COUNTEREXAMPLE") for v in want.values()) else 0
    return {
        "attempted": len(want),
        "failed": failed,
        "exit_ok": code == want_code,
        "verdicts": sorted([k[0], k[1], v] for k, v in got.items()),
        "cert_bytes": cert_bytes,
        "cert_digest": digest.hexdigest(),
    }


def main(argv) -> int:
    if argv[1:] == ["probe"]:
        speedref.kernel()  # untimed warm-up
        print(json.dumps({"ready": READY, "ref_start_s": speedref.measure(REF_REPS)}))
        return 0
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run_pass(job)
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
