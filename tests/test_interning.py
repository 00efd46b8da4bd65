"""Hash-consed atoms and the per-process caches built on them.

Every SeqTerm with a given kind and index form is one live object, held
weakly by lang's intern table, so equality and hashing are identity tests.
An atom's image under substitute_index, the product of two leaf terms and
the text of a monomial's atoms are cached for the whole process, keyed by
atoms or terms; root classes are cached by slope pattern, a key of ints
that names no atom.  These tests check that every cache is bounded, that
the atom-keyed ones hold no atom alive once cleared and the root-class
ones hold none at all, and that no certificate depends on what was proved
before it.
"""

import functools
import gc
import importlib
import pkgutil
import weakref

import horaprove
from conftest import MULTI_INDEX, atoms_in
from horaprove import corpus_path, lang, parse_file, parse_identity, prove, prover
from horaprove.lang import LinForm, SeqTerm, normalize
from horaprove.sequences import SequenceKind

def clear_atom_caches():
    """Clear the caches keyed by atoms or leaf terms; the root-class caches stay."""
    lang._substitute_atom.cache_clear()
    prover._term_product.cache_clear()
    lang._render_atoms.cache_clear()


def clear_root_class_caches():
    prover._pattern_classes.cache_clear()
    prover._goal_classes.cache_clear()


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
        assert prover._pattern_classes.cache_info().currsize == 1
        assert prover._goal_classes.cache_info().currsize == 1

    def test_root_class_caches_hold_no_atom(self):
        for identity in all_identities():
            prove(identity)
        for cache in (prover._pattern_classes, prover._goal_classes):
            items = cached_items(cache)
            assert items and not any(holds_an_atom(item) for item in items)
        # the same walk finds the atoms an atom-keyed cache holds
        assert any(holds_an_atom(item) for item in cached_items(lang._substitute_atom))

    def test_sibling_subgoals_share_one_root_class_entry(self):
        clear_root_class_caches()
        goal = normalize(parse_identity("forall m, n: W(m+n+3)*V(2*n-m) == 0").lhs)
        for value in range(4):
            prover.annihilator_for(goal.substitute_index("m", value), "n")
        assert prover._goal_classes.cache_info()[:2] == (3, 1)  # hits, misses
        assert prover._pattern_classes.cache_info()[:2] == (0, 1)
        assert (frozenset({(0, (1, 2))}),) in cached_items(prover._goal_classes)


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
        "horaprove.prover._pattern_classes",
        "horaprove.prover._goal_classes",
        "horaprove.prover._term_product",
        "horaprove.cfinite._from_class_set",
        "horaprove.sequences.symbolic_term",
    } <= caches.keys()
    sizes = {name: cache.cache_parameters()["maxsize"] for name, cache in caches.items()}
    assert [name for name, size in sizes.items() if size is None] == []
    assert isinstance(lang._ATOMS, weakref.WeakValueDictionary)


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
