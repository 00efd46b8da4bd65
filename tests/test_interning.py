"""Hash-consed atoms and the per-process caches built on them.

Every SeqTerm with a given kind and index form is one live object, so
equality and hashing are identity tests.  lang's intern table maps each
atom's order_key to a weak reference whose callback takes the entry out
when the atom dies.
An atom's image under substitute_index, the product of two leaf terms and
the text of a monomial's atoms are cached for the whole process, keyed by
atoms or terms.  Annihilator synthesis has two caches in cfinite, keyed by
ints that name no atom: goal_classes by a goal's frozenset of slope
patterns, and from_root_classes by a frozenset of root classes.  These
tests check that every cache is bounded, that the
atom-keyed ones hold no atom alive once cleared and the root-class ones
hold none at all, and that no certificate depends on what was proved
before it.
"""

import functools
import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import weakref
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import horaprove
from conftest import MULTI_INDEX, atoms_in
from horaprove import cfinite, corpus_path, lang, parse_file, parse_identity, prove, prover
from horaprove.lang import LinForm, SeqTerm, normalize
from horaprove.sequences import SequenceKind

def clear_atom_caches():
    """Clear the caches keyed by atoms or leaf terms; the root-class caches stay."""
    lang._substitute_atom.cache_clear()
    prover._term_product.cache_clear()
    lang._render_atoms.cache_clear()


def clear_root_class_caches():
    cfinite.goal_classes.cache_clear()
    cfinite.from_root_classes.cache_clear()


def cached_items(cache) -> list:
    """Every argument tuple and result an lru_cache holds: the collector's view of it."""
    return [item for item in gc.get_referents(cache) if isinstance(item, (tuple, frozenset))]


def holds_an_atom(value) -> bool:
    if isinstance(value, SeqTerm):
        return True
    if isinstance(value, (tuple, frozenset, list)):
        return any(holds_an_atom(item) for item in value)
    return False


class TestInterning:
    LAW = "forall m, n: W(m+n+1) == u(m+1)*W(n+1) - q*u(m)*W(n)"

    def test_two_parses_share_their_atoms(self):
        first, second = parse_identity(self.LAW), parse_identity(self.LAW)
        assert first is not second and first.rhs is not second.rhs
        pairs = list(zip(atoms_in(first), atoms_in(second), strict=True))
        assert len(pairs) == 5
        assert all(left is right for left, right in pairs)

    def test_one_index_under_each_kind_gives_distinct_atoms(self):
        index = LinForm.make({"n": 1}, 2)
        atoms = [SeqTerm(kind, index) for kind in SequenceKind]
        assert len({id(atom) for atom in atoms}) == len(SequenceKind)
        assert len({atom.order_key for atom in atoms}) == len(SequenceKind)
        assert [SeqTerm(kind, LinForm.make({"n": 1}, 2)) for kind in SequenceKind] == atoms
        for kind, atom in zip(SequenceKind, atoms):
            assert SeqTerm(kind, LinForm.make({"n": 1}, 2)) is atom

    def test_an_unreferenced_atom_leaves_the_table(self):
        key = (0, "W", ((("n", 1),), 987654))
        assert key not in lang._ATOMS

        def use_it():
            # parse the atom, then put it and its image at n = 0 in every cache
            identity = parse_identity("forall n: W(n+987654) == W(n+987654)")
            goal = normalize(identity.lhs)
            goal.substitute_index("n", 0)
            prover.annihilator_for(goal, "n")
            assert key in lang._ATOMS

        clear_root_class_caches()
        use_it()
        clear_atom_caches()
        gc.collect()
        assert key not in lang._ATOMS
        assert (0, "W", ((), 987654)) not in lang._ATOMS
        # the root-class caches kept what use_it put there, and did not pin the atom
        assert cfinite.goal_classes.cache_info().currsize == 1
        assert cfinite.from_root_classes.cache_info().currsize == 1

    def test_root_class_caches_hold_no_atom(self):
        for identity in all_identities():
            prove(identity)
        for cache in (cfinite.goal_classes, cfinite.from_root_classes):
            items = cached_items(cache)
            assert items and not any(holds_an_atom(item) for item in items)
        # the same walk finds the atoms an atom-keyed cache holds
        assert any(holds_an_atom(item) for item in cached_items(lang._substitute_atom))

    def test_sibling_subgoals_share_one_root_class_entry(self):
        clear_root_class_caches()
        goal = normalize(parse_identity("forall m, n: W(m+n+3)*V(2*n-m) == 0").lhs)
        for value in range(4):
            prover.annihilator_for(goal.substitute_index("m", value), "n")
        assert cfinite.goal_classes.cache_info()[:2] == (3, 1)  # hits, misses
        assert (frozenset({(0, (1, 2))}),) in cached_items(cfinite.goal_classes)


def horaprove_modules() -> list:
    names = (info.name for info in pkgutil.iter_modules(horaprove.__path__))
    return [importlib.import_module(f"horaprove.{name}") for name in names if name != "__main__"]


def module_caches() -> dict:
    """qualified name -> every lru_cache wrapper a module or its classes hold."""
    found = {}
    for module in horaprove_modules():
        spaces = [(module.__name__, vars(module))]
        spaces += [
            (f"{module.__name__}.{name}", vars(value))
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for prefix, space in spaces:
            for name, value in space.items():
                value = getattr(value, "__func__", value)  # a static or class method
                if isinstance(value, functools._lru_cache_wrapper):
                    found[f"{prefix}.{name}"] = value
    return found


def test_every_module_cache_is_bounded():
    caches = module_caches()
    # the walk sees the caches it guards
    assert {
        "horaprove.lang._substitute_atom",
        "horaprove.lang._render_atom",
        "horaprove.lang._render_atoms",
        "horaprove.prover._term_product",
        "horaprove.cfinite.goal_classes",
        "horaprove.cfinite.from_root_classes",
        "horaprove.sequences.symbolic_term",
    } <= caches.keys()
    sizes = {name: cache.cache_parameters()["maxsize"] for name, cache in caches.items()}
    assert [name for name, size in sizes.items() if size is None] == []
    # the intern table holds its atoms only weakly, and no dead atom's entry stays
    identity = parse_identity(TestInterning.LAW)
    gc.collect()
    refs = list(lang._ATOMS.items())
    assert len(refs) >= 5
    for key, ref in refs:
        assert isinstance(ref, weakref.ref) and ref.__callback__ is lang._drop_atom
        atom = ref()
        assert atom is not None and atom.order_key == key
    assert identity.lhs in [ref() for _key, ref in refs]


# index constants that no corpus and no other test uses, so every drawn atom is new
FRESH = 700_000
DRAWN_ATOMS = st.lists(
    st.tuples(
        st.sampled_from(list(SequenceKind)),
        st.dictionaries(st.sampled_from(("m", "n")), st.integers(-2, 2), max_size=2),
        st.integers(0, 20),
        st.booleans(),  # drop the atom
    ),
    min_size=1,
    max_size=12,
)


@given(DRAWN_ATOMS)
@settings(max_examples=60, deadline=None)
def test_the_table_survives_churn(drawn):
    gc.collect()
    start = len(lang._ATOMS)
    atoms, forms, dropped = {}, {}, {}  # order_key -> atom, (kind, index), drop it
    for kind, coeffs, const, drop in drawn:
        atom = SeqTerm(kind, LinForm.make(coeffs, FRESH + const))
        assert SeqTerm(kind, LinForm.make(coeffs, FRESH + const)) is atom
        key = atom.order_key
        atoms[key], forms[key] = atom, (kind, atom.index)
        dropped[key] = dropped.get(key, True) and drop  # one draw that keeps it keeps it
    refs = {key: lang._ATOMS[key] for key in atoms}
    kept = {key: atom for key, atom in atoms.items() if not dropped[key]}
    del atom
    atoms.clear()
    gc.collect()
    assert len(lang._ATOMS) == start + len(kept)
    again = []
    for key, (kind, index) in forms.items():
        atom = SeqTerm(kind, index)
        if key in kept:
            assert atom is kept[key]
        else:
            assert refs[key]() is None
            # the dead atom's callback, run late, leaves the newer atom's entry
            lang._drop_atom(refs[key])
            assert lang._ATOMS[key]() is atom
        again.append(atom)
    del atom
    again.clear()
    kept.clear()
    gc.collect()
    assert len(lang._ATOMS) == start


def test_the_removal_callback_reads_no_module_global(monkeypatch):
    """At interpreter exit lang's globals may be gone before its last atoms die."""
    errors = []
    monkeypatch.setattr(sys, "unraisablehook", errors.append)
    atom = SeqTerm(SequenceKind.W, LinForm.make({"n": 1}, FRESH + 99))
    key = atom.order_key
    table = lang._ATOMS
    monkeypatch.setattr(lang, "_ATOMS", None)
    del atom
    monkeypatch.undo()
    assert errors == [] and key not in table


def test_interpreter_exit_is_quiet():
    """A verify run over the shipped corpora refutes some laws and writes no error."""
    names = ("paper.fib", "mutations.fib", "horadam_extra.fib")
    corpora = [str(corpus_path(name)) for name in names]
    proc = subprocess.run(
        [sys.executable, "-m", "horaprove", "verify", *corpora],
        env=dict(os.environ, PYTHONPATH=str(Path(horaprove.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""


def all_identities() -> list:
    sources = [corpus_path(name) for name in ("paper.fib", "mutations.fib")]
    sources.append(MULTI_INDEX)
    found = []
    for source in sources:
        found += parse_file(source.read_text(encoding="utf-8")).identities
    return found


def certificate_text(identity) -> dict:
    doc = prove(identity).to_json_dict()
    doc.pop("ms")
    return doc


def test_certificates_do_not_depend_on_history():
    identities = all_identities()
    assert len(identities) == 19 + 38 + 5
    clear_atom_caches()
    clear_root_class_caches()
    cold = [certificate_text(identity) for identity in identities]
    for identity in reversed(identities):
        prove(identity)
    warm = [certificate_text(identity) for identity in identities]
    assert warm == cold
