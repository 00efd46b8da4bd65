"""Hash-consed atoms and the per-process caches built on them.

Every SeqTerm with a given kind and index form is one live object, held
weakly by lang's intern table, so equality and hashing are identity tests.
Per-atom elimination work (an atom's image under substitute_index, a
monomial's root classes along an index), the product of two leaf terms
and the text of a monomial's atoms are cached for the whole process; these
tests check that the caches are bounded, that they hold no atom alive
once cleared, and that no certificate depends on what was proved before
it.
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
    lang._substitute_atom.cache_clear()
    prover._monomial_classes.cache_clear()
    prover._term_product.cache_clear()
    lang._render_atoms.cache_clear()


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

        use_it()
        clear_atom_caches()
        gc.collect()
        assert key not in lang._ATOMS
        assert (0, "W", ((), 987654)) not in lang._ATOMS


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
        "horaprove.prover._monomial_classes",
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
    cold = [certificate_text(identity) for identity in identities]
    for identity in reversed(identities):
        prove(identity)
    warm = [certificate_text(identity) for identity in identities]
    assert warm == cold
