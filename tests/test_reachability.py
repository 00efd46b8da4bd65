"""Every function in src/horaprove has a program caller or a stated reason.

tests/reachability.py runs the command line over the shipped corpora and a
fixture for each error, bound and crash path under a profile hook, and
lists the defs that no run enters.  Each of them must be in ALLOWLIST with
one reason from REASONS.  A listed def that a run now enters must leave
the list, so the list cannot go stale.  Code that only unit tests call
belongs on the test side, not in the package; a function with a program
caller that no fixture reaches gets a fixture, not an entry.
"""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import horaprove
from horaprove.cfinite import GEOQ_BASE, ORDER_TWO_BASE, product, sum_annihilators
from horaprove.sequences import SequenceKind, slope_annihilator
from reachability import trace

ROOT = Path(__file__).resolve().parents[1]
HELPER = ROOT / "tests" / "reachability.py"

REASONS = {
    "cross-check": "an independent route that tests compare the prover against",
    "copy": "pickle, copy, immutability or repr support",
    "api": "named in horaprove.__all__, or a method of a class named there",
    "bench": "called by the benchmark in perfbench/",
    "item 6": "the closure algebra (ROADMAP item 6), kept while perfbench/tracer.TARGETS names it",
}

# module.qualified name -> reason; the module is the file's stem
ALLOWLIST = {
    "__init__.corpus_path": "api",
    "lang.parse_identity": "api",
    "lang.SeqTerm.__reduce__": "copy",
    "lang.SeqTerm.__repr__": "copy",
    "lang.NormalForm.__str__": "copy",
    "lang.NormalForm.__repr__": "copy",
    "prover.Certificate.witness": "api",
    "prover.Certificate.to_json_dict": "api",
    # records compare by value: every exported record class inherits these
    "ring.Record._key": "api",
    "ring.Record.__eq__": "api",
    "ring.Record.__hash__": "api",
    "ring.Record.__setattr__": "copy",
    "ring.Record.__reduce__": "copy",
    "ring.Record.__repr__": "copy",
    "ring.LaurentPoly.__init__": "api",
    "ring.LaurentPoly.__setattr__": "copy",
    "ring.LaurentPoly.__reduce__": "copy",
    "ring.LaurentPoly.terms": "bench",
    "ring.LaurentPoly.__rsub__": "api",
    # the ring's power operator: tests write q ** 3, and no src/ code calls it
    "ring.LaurentPoly.__pow__": "api",
    "ring.LaurentPoly.evaluate": "cross-check",
    "ring.LaurentPoly.__str__": "copy",
    "ring.LaurentPoly.__repr__": "copy",
    "sequences.numeric_term": "cross-check",
    "sequences.TermWindow.term_pair": "cross-check",  # the oracle calls each family's accessor
    "cfinite.Annihilator.__str__": "copy",
    "cfinite.Annihilator.__repr__": "copy",
    "cfinite.product": "item 6",
    "cfinite.sum_annihilators": "item 6",
    "sequences.slope_annihilator": "item 6",
    "linalg.mat_mul": "item 6",
    "linalg.mat_vec": "item 6",
    "linalg.kron": "item 6",
    "linalg.companion": "item 6",
    "linalg.charpoly": "item 6",
    "linalg._berkowitz": "item 6",
}

_LINE = re.compile(r"(\w+)\.py:\d+-\d+ (\S+)")


def traced_unentered() -> set:
    """The helper's unentered defs, from a fresh interpreter, as module.name keys."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HELPER)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, total = proc.stdout.splitlines()
    assert total.startswith("total: "), total
    found = set()
    for line in lines:
        m = _LINE.fullmatch(line)
        assert m, line
        found.add(f"{m[1]}.{m[2]}")
    return found


def exported(name: str) -> bool:
    """Whether module.function is in horaprove.__all__, or module.Class.method is
    the method that a class in horaprove.__all__ has, inherited or its own."""
    stem, *path = name.split(".")
    module = horaprove if stem == "__init__" else import_module(f"horaprove.{stem}")
    if len(path) == 1:
        (attr,) = path
        return attr in horaprove.__all__ and getattr(horaprove, attr) is getattr(module, attr)
    if len(path) != 2:
        return False
    owner, attr = path
    owner = getattr(module, owner, None)
    function = vars(owner).get(attr) if isinstance(owner, type) else None
    if function is None:
        return False
    for export in horaprove.__all__:
        cls = getattr(horaprove, export)
        if isinstance(cls, type):
            # the first class in the MRO that defines attr is the one lookup finds
            for klass in cls.__mro__:
                if attr in vars(klass):
                    if vars(klass)[attr] is function:
                        return True
                    break
    return False


def allowlist_faults(unentered: set, allowlist: dict) -> list:
    """Every way the traced set and the allowlist disagree, one line each."""
    faults = [
        f"{name} is never entered and not listed: give it a fixture, a reason or delete it"
        for name in sorted(unentered - allowlist.keys())
    ]
    faults += [
        f"{name} is listed but a run enters it, or it is gone: take it off the list"
        for name in sorted(allowlist.keys() - unentered)
    ]
    for name, reason in sorted(allowlist.items()):
        if reason not in REASONS:
            faults.append(f"{name}: {reason!r} is not one of {sorted(REASONS)}")
        elif reason == "api" and not exported(name):
            faults.append(f"{name}: listed as api, but horaprove.__all__ does not export it")
    return faults


def test_every_unentered_function_is_listed_with_its_reason():
    faults = allowlist_faults(traced_unentered(), ALLOWLIST)
    assert not faults, "\n".join(faults)


def _closure_algebra(_package, _work):
    product(ORDER_TWO_BASE, ORDER_TWO_BASE)  # a 4x4 Kronecker matrix: _berkowitz runs mat_vec
    sum_annihilators(ORDER_TWO_BASE, GEOQ_BASE)
    slope_annihilator.__wrapped__(SequenceKind.W, -2)  # uncached; a negative slope runs backward


def test_every_item_6_entry_is_entered_by_the_closure_algebra():
    item_6 = {name for name, reason in ALLOWLIST.items() if reason == "item 6"}
    _defs, missed = trace(_closure_algebra)
    missed = {f"{module[:-3]}.{name}" for module, name, _first, _last in missed}
    assert item_6 and not item_6 & missed, sorted(item_6 & missed)


class TestTheGateFails:
    def test_on_an_unlisted_unentered_function(self):
        (fault,) = allowlist_faults({"lang._times"}, {})
        assert fault.startswith("lang._times is never entered and not listed")

    def test_on_a_listed_function_that_is_entered(self):
        (fault,) = allowlist_faults(set(), {"ring.LaurentPoly.evaluate": "cross-check"})
        assert fault.startswith("ring.LaurentPoly.evaluate is listed but a run enters it")

    def test_on_an_api_entry_that_is_not_exported(self):
        for name in ("lang._times", "lang._Parser.expect", "lang.LinForm.plus", "prover.fuzz.x"):
            (fault,) = allowlist_faults({name}, {name: "api"})
            assert fault == f"{name}: listed as api, but horaprove.__all__ does not export it"

    def test_on_a_reason_outside_the_fixed_set(self):
        (fault,) = allowlist_faults({"lang.normalize"}, {"lang.normalize": "tests"})
        assert fault.startswith("lang.normalize: 'tests' is not one of")

    def test_not_on_exported_functions_and_methods(self):
        names = ("lang.normalize", "__init__.corpus_path", "ring.Record.__eq__",
                 "ring.LaurentPoly.is_unit", "prover.Certificate.witness")
        assert allowlist_faults(set(names), dict.fromkeys(names, "api")) == []
