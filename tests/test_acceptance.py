"""Acceptance suite: the eight binding checks for this package.

Each test prints one PASS line when its criterion holds (visible under
pytest -s); a failed criterion fails its test.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from fractions import Fraction

from conftest import by_fragment, convolve, poly_divmod
from horaprove.cfinite import Annihilator, product
from horaprove.lang import identity_goal, parse_identity
from horaprove.prover import PROVED, REFUTED, annihilator_for, fuzz, prove
from horaprove.ring import one, q_power, symbol
from horaprove.sequences import SequenceKind, numeric_term, symbolic_term

p, a, b, q = symbol("p"), symbol("a"), symbol("b"), symbol("q")

ORACLE_SEED = 12

# (2.1): X(n+3) = (p^2-q)X(n+2) + (q^2-p^2 q)X(n+1) + q^3 X(n), ascending
CUBIC = (-(q ** 3), p * p * q - q * q, q - p * p, one())


def test_1_full_corpus_proved_quickly(corpus_identities):
    start = time.perf_counter()
    verdicts = [prove(idn).verdict for idn in corpus_identities]
    elapsed = time.perf_counter() - start
    assert len(verdicts) == 19
    assert all(v == PROVED for v in verdicts)
    assert elapsed < 10.0
    print(f"\nPASS 1: all 19 corpus identities PROVED in {elapsed:.2f}s (< 10s)")


def test_2_pair_product_recurrence_exact():
    for product_text in ("W(n)^2", "W(n)*V(n)", "u(n)*W(n+1)"):
        goal = identity_goal(parse_identity(f"forall n: {product_text} == 0"))
        got = annihilator_for(goal, "n")
        assert got.coeffs == CUBIC, product_text
    print("\nPASS 2: the prover's annihilator of W(n)^2, W(n)*V(n) and u(n)*W(n+1) is "
          f"the cubic {got.render()}, coefficient for coefficient")


def test_3_kronecker_product_factorization():
    base = Annihilator((q, -p, one()))
    kron = product(base, base)
    # multiply (x - q) by the cubic with plain convolution
    geo = (-q, one())
    assert kron.coeffs == convolve(geo, CUBIC)
    quot, rem = poly_divmod(kron.coeffs, geo)
    assert all(r.is_zero for r in rem) and tuple(quot) == CUBIC
    print("\nPASS 3: order-4 Kronecker product equals (x - q) times the cubic exactly")


def test_4_mutation_kill_rate(corpus_identities, mutant_identities):
    assert len(mutant_identities) == 2 * len(corpus_identities)
    killed = 0
    for mutant in mutant_identities:
        cert = prove(mutant)
        assert cert.verdict == REFUTED, mutant.source
        assert cert.witness is not None and not cert.witness.poly.is_zero, mutant.source
        killed += 1
    print(f"\nPASS 4: {killed}/{len(mutant_identities)} mutations REFUTED, "
          "each with a nonzero leaf polynomial (100% kill rate)")


def test_5_prover_oracle_agreement(corpus_identities, mutant_identities):
    for idn in corpus_identities:
        assert prove(idn).verdict == PROVED, idn.source
        result = fuzz(idn, trials=200, seed=ORACLE_SEED, value_range=9)
        assert result.ok, idn.source
    for mutant in mutant_identities:
        assert prove(mutant).verdict == REFUTED, mutant.source
        result = fuzz(mutant, trials=500, seed=ORACLE_SEED, value_range=9)
        assert result.counterexample is not None, mutant.source
    print("\nPASS 5: oracle agrees with every verdict "
          f"(19 PROVED x 200 trials pass, {len(mutant_identities)} REFUTED all "
          "falsified within 500 trials, seed fixed, range 9)")


def test_6_reflection_and_specialization():
    for k in range(1, 9):
        assert symbolic_term(SequenceKind.U, -k) == \
            -q_power(-k) * symbolic_term(SequenceKind.U, k)
    for k in range(-6, 7):
        specialized = symbolic_term(SequenceKind.W, k).pin_substitute({"a": 0, "b": 1})
        assert specialized == symbolic_term(SequenceKind.U, k)
    print("\nPASS 6: u(-k) = -q^(-k) u(k) for k in [1, 8] and the a:=0, b:=1 "
          "specialization of W equals u for k in [-6, 6], symbolically")


def test_7_multi_index_reduction_shape(corpus_identities):
    addition = by_fragment(corpus_identities, "W(m+n+1)")
    cert = prove(addition, elimination_order=["m", "n"])
    assert cert.verdict == PROVED
    root = cert.root
    assert root.index == "m" and root.order == 2
    assert len(root.subgoals) == 2
    # the two subgoals are the u-basis expansion laws, advanced to the
    # subgoal's instantiation value
    pattern0 = identity_goal(parse_identity(
        "forall n: W(n+1) == u(n+1)*W(1) - q*u(n)*W(0)"))
    pattern1 = identity_goal(parse_identity(
        "forall n: W(n+2) == u(n+1)*W(2) - q*u(n)*W(1)"))
    assert cert.root.subgoals[0][1].goal == pattern0
    assert cert.root.subgoals[1][1].goal == pattern1
    doc = cert.to_json_dict()
    assert doc["proof"]["order"] == 2

    cross = by_fragment(corpus_identities, "V(m+k)*W(n+k)")
    assert cross.index_vars == ("m", "n", "k")
    for order in itertools.permutations(("m", "n", "k")):
        assert prove(cross, elimination_order=list(order)).verdict == PROVED, order
    print("\nPASS 7: two-index addition law reduces at order 2 to the two "
          "expansion-law subgoals; three-index law PROVED under all 6 "
          "elimination orders")


def test_8_classical_spot_value(corpus_identities):
    asgn = {
        "p": Fraction(1), "q": Fraction(-1),
        "a": Fraction(0), "b": Fraction(1),
        "c": Fraction(0), "d": Fraction(0),
    }
    u = lambda k: numeric_term(SequenceKind.U, k, asgn)
    assert [u(k) for k in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    n = 2
    lhs = u(n + 1) * u(n + 2) * u(n + 6) - u(n + 3) ** 3
    rhs = numeric_term(SequenceKind.GEOQ, n, asgn) * u(n)
    assert u(n + 1) * u(n + 2) * u(n + 6) == 2 * 3 * 21
    assert u(n + 3) ** 3 == 125
    assert lhs == 1 and rhs == 1
    # and the corpus statement itself evaluates the same way
    pinned = by_fragment(corpus_identities, "u(n+1)*u(n+2)*u(n+6)")
    assert pinned.pin_map() == {"p": Fraction(1), "q": Fraction(-1)}
    print("\nPASS 8: at p=1, q=-1, n=2 the cubic window law reads "
          "2*3*21 - 125 = 1 on both sides via the recurrence oracle")
