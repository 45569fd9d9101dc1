"""Exception taxonomy shared across the package.

Numeric preconditions raise ``NumericPrecondition`` subclasses so callers
(and the CLI exit-code mapping) can tell them apart from malformed inputs.
"""


class SpikedCovError(Exception):
    """Base class for all package errors."""


class InvalidSpec(SpikedCovError):
    """Model specification violates a construction invariant."""


class InvalidDims(SpikedCovError):
    """Dimension arguments are inconsistent (e.g. M >= n)."""


class ConfigInvalid(SpikedCovError):
    """Experiment or file configuration failed validation."""


class NumericPrecondition(SpikedCovError):
    """A numeric precondition of an operation does not hold."""


class NotSymmetric(NumericPrecondition):
    pass


class NoConvergence(NumericPrecondition):
    """Iterative solver exceeded its iteration budget."""


class DegenerateSVD(NumericPrecondition):
    pass


class NotInvertible(NumericPrecondition):
    """A shifted matrix l*I - M is not invertible (spike below bulk edge)."""


class DegenerateAlignment(NumericPrecondition):
    """The A-block of a sample eigenvector has (numerically) zero norm."""


class NotSeparated(NumericPrecondition):
    """Spikes are not separated at the requested index."""


class TiedEigenvalues(NumericPrecondition):
    pass


class SpikeAtOne(NumericPrecondition):
    """An operation requiring l > 1 received a spike at (or below) one."""


class InsideBulk(NumericPrecondition):
    """Stieltjes transform evaluated at a point not right of the bulk."""


class NoRoot(NumericPrecondition):
    """Root solver found no certified root (no convergence or non-finite map)."""


class SeriesDiverges(NumericPrecondition):
    """Series expansion attempted outside its convergence region."""


class IndexOutOfRange(SpikedCovError):
    pass
