"""Exception hierarchy shared across the package.

Validation problems (shapes, values) derive from ``ValueError`` so that
callers who do not care about the distinction can catch the builtin.
Numerical degeneracies derive from ``ArithmeticError``; the command-line
front end maps the two families onto distinct exit codes.
"""


class DimensionError(ValueError):
    """Shapes or dimension lists are inconsistent with each other."""


class DataError(ValueError):
    """Input values are malformed: non-finite, unparseable, or empty."""


class DegeneracyError(ArithmeticError):
    """The problem instance is numerically degenerate."""


class RankDeficiencyError(DegeneracyError):
    """The block-diagonal covariance is singular and cannot be inverted."""


class DegenerateSetError(DegeneracyError):
    """One data set carries no usable variance at all."""


class UndefinedIscError(DegeneracyError):
    """Within-set variance is zero, so inter-set correlation is undefined."""
