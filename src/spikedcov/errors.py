"""Exception taxonomy shared across the package.

Every package error is one of two kinds. Malformed input of any sort (a
model spec, a dimension, an index, a flag, a config file or the
environment) raises ``ConfigInvalid``: the CLI exits 2. A numeric
precondition that does not hold raises a ``NumericPrecondition``
subclass: the CLI exits 3, and a replicate that raises one is flagged by
its subclass name, so those names are written into the outputs.
"""


class SpikedCovError(Exception):
    """Base class for all package errors."""


class ConfigInvalid(SpikedCovError):
    """Malformed input: a spec, dimension, index, flag, file or environment value."""


class NumericPrecondition(SpikedCovError):
    """A numeric precondition of an operation does not hold."""


class NotSymmetric(NumericPrecondition):
    pass


class NoConvergence(NumericPrecondition):
    """Iterative solver exceeded its iteration budget."""


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
