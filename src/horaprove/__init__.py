"""Exact prover for identities among generalized Fibonacci sequences.

Identities over the Horadam family W(a,b; p,q), a second started copy V,
the fundamental solution u, and geometric q-powers are decided by a
recurrence argument: both sides of an identity satisfy a common linear
recurrence, built with one factor per conjugate class of the roots
alpha^i beta^j of its terms, so the identity holds for all integers iff
finitely many instances reduce to the zero polynomial.  Proofs are
emitted as machine-checkable JSON certificates and cross-checked by an
exact numeric oracle.
"""

from pathlib import Path

from .cfinite import Annihilator, OrderMismatchError
from .lang import (
    Identity,
    NonIntegerExponentError,
    NormalForm,
    ParseError,
    SlopeCapExceededError,
    SourceFile,
    UndeclaredIndexError,
    UnknownNameError,
    identity_goal,
    normalize,
    parse_file,
    parse_identity,
)
from .prover import (
    ABORTED,
    PROVED,
    REFUTED,
    Certificate,
    Counterexample,
    EliminationOrderError,
    FuzzResult,
    OrderCapExceededError,
    annihilator_for,
    fuzz,
    prove,
)
from .ring import (
    SYMBOLS,
    ExponentOverflowError,
    LaurentPoly,
    ZeroQError,
    from_int,
    one,
    q_power,
    symbol,
    zero,
)
from .sequences import SequenceKind, symbolic_term

__version__ = "0.1.0"


def corpus_path(name: str = "paper.fib") -> Path:
    """Filesystem path of a shipped corpus file."""
    return Path(__file__).parent / "corpus" / name


__all__ = [
    "ABORTED",
    "Annihilator",
    "Certificate",
    "Counterexample",
    "EliminationOrderError",
    "ExponentOverflowError",
    "FuzzResult",
    "Identity",
    "LaurentPoly",
    "NonIntegerExponentError",
    "NormalForm",
    "OrderCapExceededError",
    "OrderMismatchError",
    "PROVED",
    "ParseError",
    "REFUTED",
    "SYMBOLS",
    "SequenceKind",
    "SlopeCapExceededError",
    "SourceFile",
    "UndeclaredIndexError",
    "UnknownNameError",
    "ZeroQError",
    "annihilator_for",
    "corpus_path",
    "from_int",
    "fuzz",
    "identity_goal",
    "normalize",
    "one",
    "parse_file",
    "parse_identity",
    "prove",
    "q_power",
    "symbol",
    "symbolic_term",
    "zero",
    "__version__",
]
