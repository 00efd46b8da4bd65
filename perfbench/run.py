"""The horaprove benchmark: cold-process `verify` and `fuzz` passes.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a horaprove checkout; it imports the package from
`src/`.  Each pass runs `horaprove.cli.main` in a fresh interpreter, because
the term and slope caches in `sequences` are process-global and every CLI
call pays to fill them.  Passes repeat, closed loop, one at a time, until
`--seconds` is used up (at least five).  Every verdict is checked against
the known answer.

Every pass of a run repeats the same deterministic pieces (the oracle's
fuzz seed is `--seed` in every pass): one `prove` or `fuzz` call per
identity, and the rest of `cli.main` (parsing, certificate rendering and
writing, the report).  A timing takes each piece's median run-time over
the run's passes: `wall_s` sums every piece's median, and `identity_ms_*`
are the median and tail of the medians of the identities that run their
whole check (every `prove` call; the `fuzz` calls that pass all trials,
since a counterexample stops a call at a trial that depends on the seed).
On a shared host the machine's speed changes from one second to the next,
and by 30-60% for a minute or more at a time.  Every process therefore
times a fixed reference kernel (`speedref.py`) right after set-up, after
each identity and after the program, and every time the benchmark reports
is scaled by `speedref.NOMINAL_S` over the mean of the kernel times
measured next to it: it reads as it would at the speed at which the kernel
takes `NOMINAL_S`.  Within a run, a median over passes of each piece is
steadier than the median whole pass or any piece's fastest time (see
README.md).  `setup_s` is the median of several scaled set-ups.  The times
as measured, unscaled, are printed on a `#` line.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Scratch files live in
`.perfbench/` under the checkout; the spans of the last traced pass are
kept there as `trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedref
import workloads

HERE = Path(__file__).resolve().parent
PASS_SCRIPT = HERE / "passrun.py"
MIN_PASSES = 5
SETUP_PROBES = 7
PASS_TIMEOUT_S = 170

# identity_ms_tail is the highest of these percentiles with at least ten
# identities beyond it: p80 on corpus (57 identities).  The oracle's 19
# passing identities and multi_index's 5 are too few for a tail: there it is
# the slowest identity.
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "identity_ms_p50": "ms",
    "identity_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "output_kb": "kB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(root: Path, args: list) -> tuple:
    """Run passrun.py to completion; return (start clock, stdout)."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PASS_SCRIPT), *args],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass process failed ({proc.returncode}):\n{proc.stderr}")
    return start, proc.stdout


def probe_setup(root: Path) -> dict:
    start, out = _spawn(root, ["probe"])
    probe = json.loads(out)
    return {"setup_s": probe["ready"] - start, "ref_start_s": probe["ref_start_s"]}


def run_pass(root: Path, work: Path, workload, seed: int, trace: bool, n: int):
    cert_dir = work / f"certs-{n}"
    job = {
        "workload": workload.name,
        "trace": trace,
        "seed": seed,
        "cert_dir": str(cert_dir),
        "out": str(work / f"result-{n}.json"),
    }
    job_path = work / f"job-{n}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    start, _ = _spawn(root, [str(job_path)])
    result = json.loads(Path(job["out"]).read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - start
    shutil.rmtree(cert_dir, ignore_errors=True)
    return result


def percentile(samples: list, pct: float) -> float:
    """Nearest-rank percentile; 100 is the maximum."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    work = root / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_setup(root)  # untimed: the first import writes the bytecode caches
        began = time.monotonic()
        setups = [probe_setup(root) for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        n = 0
        while True:
            n += 1
            plain.append(run_pass(root, work, workload, seed, False, n))
            if trace:
                n += 1
                traced.append(run_pass(root, work, workload, seed, True, n))
            if len(plain) >= MIN_PASSES and time.monotonic() - began >= seconds:
                break
        if traced:
            dump = traced[-1].pop("trace")
            for result in traced[:-1]:
                result.pop("trace")
            trace_file = root / ".perfbench" / f"trace-{name}-{seed}.json"
            trace_file.write_text(json.dumps(dump), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, setups, plain, traced)


def speed_scale(ref_s: list, scaled: bool = True) -> float:
    """Factor that turns times measured next to the kernel times `ref_s` into
    times at nominal speed (1 when not `scaled`)."""
    return speedref.NOMINAL_S / statistics.mean(ref_s) if scaled else 1.0


def pass_scales(r: dict, scaled: bool = True) -> tuple:
    """(each identity's scale, the scale of the rest of the pass).

    An identity is scaled by the kernel times just before and just after
    it; the rest of the pass, spread over the whole pass, by all of them."""
    after = r["ref_after_s"]
    rest = speed_scale(r["ref_start_s"] + after + r["ref_end_s"], scaled)
    if not after:  # a traced pass
        return [rest] * len(r["identity_s"]), rest
    before = [statistics.mean(r["ref_start_s"]), *after[:-1]]
    return [speed_scale([b, a], scaled) for b, a in zip(before, after)], rest


def median_pieces(passes: list, scaled: bool = True) -> tuple:
    """(each identity's median time, the median rest of a pass), in seconds."""
    identity_times, rest_times = [], []
    for r in passes:
        scales, rest = pass_scales(r, scaled)
        identity_times.append([t * k for t, k in zip(r["identity_s"], scales)])
        own = r["wall_s"] - sum(r["identity_s"]) - sum(r["ref_after_s"])
        rest_times.append(own * rest)
    identities = [statistics.median(times) for times in zip(*identity_times)]
    return identities, statistics.median(rest_times)


def timings(setups: list, passes: list, scaled: bool = True) -> dict:
    """setup_s, wall_s and the identity times, scaled to nominal speed or not."""
    identities, rest = median_pieces(passes, scaled)
    full = passes[0]["identity_full"]
    samples = [t * 1000 for t, whole in zip(identities, full) if whole] or [0.0]
    return {
        "setup_s": statistics.median(
            p["setup_s"] * speed_scale(p["ref_start_s"], scaled) for p in setups
        ),
        "wall_s": sum(identities) + rest,
        "samples": samples,
    }


def summarize(workload, seed: int, setups: list, plain: list, traced: list) -> dict:
    passes = plain + traced
    setups = setups + passes
    scaled, raw = timings(setups, plain), timings(setups, plain, scaled=False)
    samples = scaled["samples"]
    pct = next((p for p in TAIL_LADDER if len(samples) * (1 - p / 100) >= 10), 100)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    digests = {r["cert_digest"] for r in passes}
    verdicts = {json.dumps(r["verdicts"]) for r in passes}
    problems = [r["crash"] or r["stderr"] for r in passes if r["crash"] or not r["exit_ok"]]
    if len(digests) > 1:
        problems.append("certificates differ between passes (ms dropped)")
    if len(verdicts) > 1:
        problems.append("verdicts differ between passes")
    cert_bytes = statistics.median(r["cert_bytes"] for r in plain)
    e2e = {
        "setup_s": scaled["setup_s"],
        "wall_s": scaled["wall_s"],
        "identity_ms_p50": statistics.median(samples),
        "identity_ms_tail": percentile(samples, pct),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "output_kb": statistics.median(r["cert_bytes"] + r["stdout_bytes"] for r in plain) / 1024,
    }
    summary = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "identity_samples": len(samples),
        "tail_percentile": pct,
        "beyond_tail": sum(1 for s in samples if s > e2e["identity_ms_tail"]),
        "cert_kb": cert_bytes / 1024,
        "ref_ms": 1000 * statistics.median(t for p in setups for t in p["ref_start_s"]),
        "unscaled": {
            "setup_s": raw["setup_s"],
            "wall_s": raw["wall_s"],
            "identity_ms_p50": statistics.median(raw["samples"]),
            "identity_ms_tail": percentile(raw["samples"], pct),
        },
        "failed_share": failed / attempted if attempted else 1.0,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems,
        "end_to_end": e2e,
    }
    if traced:
        layers = {}
        for key in traced[0]["layers"]:
            timed = layer_unit(key) == "s"
            layers[key] = statistics.median(
                r["layers"][key] * pass_scales(r, timed)[1] for r in traced
            )
        traced_wall = timings(setups, traced)["wall_s"]
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        summary["per_layer"] = layers
    return summary


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def report(summary: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    s = summary
    print(
        f"# workload {s['workload']} seed {s['seed']}: "
        f"{s['passes']} passes ({s['traced_passes']} traced), "
        f"python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    print(f"failed_share {s['failed_share']:.6f} ratio ({s['failed']} of {s['attempted']})")
    for problem in s["problems"][:5]:
        print("problem: " + problem.strip().replace("\n", "\n  "))
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in s["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in s["end_to_end"].items()}
        print(
            f"# identity_ms_tail is p{s['tail_percentile']} of {s['identity_samples']} "
            f"identities, {s['beyond_tail']} beyond it; "
            f"setup_s is the median of {s['setup_samples']}; "
            f"cert_kb {s['cert_kb']:.3f}"
        )
        print(
            f"# times are scaled to the reference kernel's {speedref.NOMINAL_S * 1000:g} ms; "
            f"it took {s['ref_ms']:.3f} ms (median); unscaled: "
            + ", ".join(f"{k} {v:.6g}" for k, v in s["unscaled"].items())
        )
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "horaprove" / "__init__.py").is_file():
        print(f"error: {root} holds no src/horaprove; run from a checkout root", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            summary = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            results.append((summary, report(summary, bool(args.trace))))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{s['workload']}.{k}": m for s, ms in results for k, m in ms.items()}
    print(json.dumps({
        "correct": all(s["correct"] for s, _ in results),
        "attempted": sum(s["attempted"] for s, _ in results),
        "failed": sum(s["failed"] for s, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
