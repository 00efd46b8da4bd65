"""Workload inputs and the verdicts they must produce.

Every workload is a list of `.fib` files plus the CLI command that runs
them.  `corpus` and `oracle` read the shipped corpus through
`horaprove.corpus_path`, so they always run what the package ships;
`multi_index` reads `workloads/multi_index.fib`.  The seed is the oracle's
fuzz seed, the same in every pass of a run, so each pass repeats the same
work; the `verify` workloads take no seed.

`expected.json` records the verdict of every identity by file and line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent / "workloads"

SHIPPED = ("paper.fib", "mutations.fib")
FUZZ_TRIALS = 200
FUZZ_RANGE = 9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "fuzz"
    files: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus", "verify", SHIPPED,
            "the shipped 57 identities, 19 proved and 38 refuted: many short proofs and "
            "the only refutation path",
        ),
        Workload(
            "multi_index", "verify", ("multi_index.fib",),
            "2- and 3-index laws up to 512 leaves: synthesis reruns on every subgoal and "
            "leaves multiply across indices",
        ),
        Workload(
            "oracle", "fuzz", SHIPPED,
            "the Fraction fuzz oracle over the corpus at 200 trials; shares only the "
            "parser with the prover",
        ),
    )
}

FUZZ_ANSWER = {"PROVED": "PASS", "REFUTED": "COUNTEREXAMPLE"}


def expected_verdicts() -> dict:
    """{file name: {line: verdict}} for every workload file."""
    raw = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return {name: {int(line): v for line, v in table.items()} for name, table in raw.items()}


def input_path(name: str) -> Path:
    """Path of a workload `.fib` file; imports `horaprove`."""
    from horaprove import corpus_path

    return corpus_path(name) if name in SHIPPED else HERE / name


def cli_argv(workload: Workload, seed: int, cert_dir: Path) -> list:
    """Arguments of one pass; every pass of a run gets the same ones."""
    files = [str(input_path(name)) for name in workload.files]
    if workload.command == "verify":
        return ["verify", "--cert-out", str(cert_dir), *files]
    return [
        "fuzz", "--seed", str(seed), "--trials", str(FUZZ_TRIALS),
        "--range", str(FUZZ_RANGE), *files,
    ]
