"""The benchmark's tracer and pass runner still find every name they use.

perfbench/tracer.py wraps program functions by name; a renamed function,
or work routed around it, would leave its layer reading 0 without any
error.  The module is loaded read-only: loading it wraps nothing, and a
test that installs it uninstalls it again.  perfbench/passrun.py times
`prove` and `fuzz` by rebinding them in `cli`, and reads
`horaprove.FuzzResult` and `horaprove.corpus_path`.
"""

import importlib.util
from pathlib import Path

import horaprove
from conftest import by_fragment
from horaprove import cli, corpus_path, parse_file, prove, prover

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
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


def test_ring_layers_stay_traceable():
    """Every ring product and sum goes through the wrapped callables.

    A private hot path around them would make the `ring.mul` and
    `ring.add` layers read 0, though the ring still does the work.
    """
    identity = parse_file(corpus_path("paper.fib").read_text()).identities[0]
    tracer = load_tracer().Tracer()
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
    tracer = load_tracer().Tracer()
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
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        cert = prove(identity)
    finally:
        tracer.uninstall()
    assert cert.verdict == "PROVED"
    layers = tracer.layer_metrics()
    assert layers["lang.substitute_calls"] > 0
    assert layers["prover.synth_calls"] > 0
