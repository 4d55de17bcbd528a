"""Exception types shared across the package.

Two broad families matter to callers: ``InputError`` covers malformed
user input (files, flags), ``DomainError`` covers well-formed input that
falls outside a mathematical contract (inadmissible graph, evaluation
point past the convergence radius, bad parameters). The CLI maps these
to exit codes 2 and 1 respectively.
"""


class IharaError(Exception):
    """Base class for every error raised by this package."""


class InputError(IharaError):
    """Malformed user-supplied input."""


class MalformedLine(InputError):
    """Edge-list line with non-integer tokens or the wrong arity."""


class LoopEdge(InputError):
    """Edge-list line naming the same vertex twice."""


class EmptyEdgeList(InputError):
    """Edge-list input with no edges at all."""


class DomainError(IharaError):
    """Well-formed input outside an operation's domain."""


class NotAdmissible(DomainError):
    """Graph fails one or more admissibility conditions."""

    def __init__(self, violations=()):
        self.violations = tuple(violations)
        detail = ", ".join(v.value for v in self.violations) or "unknown"
        super().__init__(f"graph is not admissible: {detail}")


class OutOfDomain(DomainError):
    """Evaluation point outside [0, 1/lambda)."""


class InvalidParams(DomainError):
    """Entropy parameters violate their constraints."""


class InvalidDistribution(DomainError):
    """Probability vector with negative mass or wrong total."""


class NotInvertible(DomainError):
    """Series without a compositional inverse."""


class OrderMismatch(IharaError):
    """Arithmetic between series truncated at different orders."""


class NonzeroConstantTerm(IharaError):
    """exp() of a series whose constant coefficient is not zero."""


class InnerConstantNonzero(IharaError):
    """Composition with an inner series whose constant term is not zero."""


class InversePairMismatch(IharaError):
    """Group-law construction fed a (G, F) pair that is not inverse."""


class InsufficientTraces(IharaError):
    """Trace vector too short for the requested truncation order."""


class IncompletePrimeList(IharaError):
    """Euler product requested beyond the enumerated cycle length."""


class BudgetExceeded(IharaError):
    """Exhaustive search ran past its configured step budget."""


class NoConvergence(IharaError):
    """Power iteration failed to reach the requested residual."""


class SingularMatrix(IharaError):
    """Determinant vanished where the domain guard said it could not."""


class NegativeEntropyTerm(IharaError):
    """Per-event entropy term below zero by more than float dust."""
