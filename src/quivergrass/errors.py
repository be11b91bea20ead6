"""Exception types shared across the package."""


class QuivergrassError(Exception):
    """Base class for all errors raised by this package."""


class AdmissibilityError(QuivergrassError):
    """A relation generator has a term of length < 2."""


class LoewyBoundError(QuivergrassError):
    """Some path of length L+1 is not in the ideal span.

    Either the supplied nilpotency bound is too small or the ideal is not
    admissible.
    """


class TopNotSquarefreeError(QuivergrassError):
    """A top vertex is repeated where a squarefree top is required."""


class NotSubmoduleError(QuivergrassError):
    """A subspace of the radical of the projective cover is not stable
    under the algebra action."""


class NotOnChartError(QuivergrassError):
    """A coordinate tuple does not satisfy the chart equations."""


class RankError(QuivergrassError):
    """A generated submodule has the wrong codimension."""


class SkeletonMismatchError(QuivergrassError):
    """A path set is not a skeleton (or basis) of the module at hand."""


class OracleScaleError(QuivergrassError):
    """A brute-force enumeration would exceed the configured budget."""


class InputError(QuivergrassError):
    """Problem-text error carrying a source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ParseError(InputError):
    """Problem text does not match the grammar."""


class SemanticError(InputError):
    """Problem text is grammatical but names an unknown vertex or arrow,
    or composes arrows that do not meet."""
