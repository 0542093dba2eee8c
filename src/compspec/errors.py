"""Typed errors shared across the package.

Every mathematically meaningful failure gets its own class so callers (and
the CLI exit-code mapping) can distinguish usage mistakes from facts about
the input symbol.
"""


class CompspecError(Exception):
    """Base class for all package errors."""


class ExpressionSyntaxError(CompspecError):
    """Malformed symbol/interval text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConstantSymbolError(CompspecError):
    """The parsed map is constant; constant symbols are excluded."""


class DomainError(CompspecError):
    """A point lies outside the symbol's interval of definition."""


class OrbitEscape(CompspecError):
    """Iteration left the domain interval at the recorded step."""

    def __init__(self, step, point=None):
        super().__init__(f"orbit left the domain at step {step}")
        self.step = step
        self.point = point


class DegreeOverflow(CompspecError):
    """Composed polynomial degree exceeded the configured bound."""


class NotADiffeomorphism(CompspecError):
    """The proposed coordinate change is not an invertible analytic map."""


class ZeroLambda(CompspecError):
    """The eigenvalue parameter must be nonzero."""


class ResonantEigenvalue(CompspecError):
    """lambda equals multiplier**n, so the formal solution is not unique."""

    def __init__(self, order):
        super().__init__(f"eigenvalue resonates with multiplier power at order {order}")
        self.order = order


class NeutralOrSuperattracting(CompspecError):
    """Linearization requires a multiplier strictly between 0 and 1 in modulus."""


class CenterMismatch(CompspecError):
    """Series composition requires matching expansion centers."""


class BasinEscape(CompspecError):
    """The orbit failed to enter the trusted core: it used up the depth
    budget, or (``escaped``) it passed the escape bound first."""

    def __init__(self, depth, point=None, escaped=False):
        super().__init__(f"orbit passed the escape bound after {depth} steps"
                         if escaped else
                         f"orbit did not reach the core within {depth} steps")
        self.depth = depth
        self.point = point


class BranchDomain(CompspecError):
    """Point outside the region of the requested inverse branch."""


class ReflectedUncovered(CompspecError):
    """Mirror rule reflected to a point no other rule covers."""


class BudgetExceeded(CompspecError):
    """An elementary function's argument is too large in magnitude to
    evaluate within the time budget."""


class PrecisionLoss(CompspecError):
    """Error tracking exceeded tolerance: at the maximum precision, or
    earlier once doubling the precision no longer moves the residual."""


class HypothesisViolation(CompspecError):
    """A stated hypothesis (e.g. core invariance) fails for the given data."""


class InvarianceFailure(CompspecError):
    """A covering piece is not invariant; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnresolvedVerdict(CompspecError):
    """Classification cannot decide a branch (e.g. a multiplier enclosure
    still straddles modulus one after maximal refinement)."""
