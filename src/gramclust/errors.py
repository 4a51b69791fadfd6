"""Exception hierarchy shared by all gramclust modules."""


class GramclustError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GramclustError):
    """Input file could not be parsed into the expected matrices."""


class NotPSD(GramclustError):
    """Matrix failed the positive-semidefiniteness check."""


class NotCentered(GramclustError):
    """Matrix entries do not sum to zero within tolerance."""


class DegenerateB(GramclustError):
    """All Gram vectors of B coincide (R(B) = 0); the instance is trivial."""


class DimensionMismatch(GramclustError):
    """Vector or matrix dimensions are inconsistent."""


class LabelOutOfRange(GramclustError):
    """An assignment uses a label outside {0, ..., k-1}."""


class TooFewTrials(GramclustError):
    """Statistics requested from fewer than two trials."""


class TooLarge(GramclustError):
    """An enumeration would exceed its state cap, or a result the double range."""


class Infeasible(GramclustError):
    """The enclosing ball's weights fail its optimality certificate, or a
    gadget built on them leaves the bound it must meet.

    Raised for every B of rank above 10, a documented limit: the ball's
    iterative fallback there is too coarse to pass the certificate.  At
    rank 10 or below it indicates a bug in the enclosing-ball solver;
    surfaced, never repaired.
    """


class ZeroMass(GramclustError):
    """A probability distribution has an atom of zero mass where positive
    mass is required."""


class NotConvergedWarning(RuntimeWarning):
    """Iterative solver hit its cap with residual above tolerance.

    The result is still returned, flagged via ``converged=False``.
    """
