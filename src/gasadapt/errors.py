"""Exception types shared across the package."""


class GasAdaptError(Exception):
    """Base class for all package-specific errors."""


class NonPositivePressure(GasAdaptError):
    """A pressure value dropped to zero or below where positivity is required."""


class SonicFlow(GasAdaptError):
    """The ram-pressure factor of the most detailed pipe model vanished."""


class DrainedPipe(GasAdaptError):
    """The pressure along a pipe would leave the positive domain."""


class UnsupportedModel(GasAdaptError):
    """No closed-form solution exists for the requested model level."""


class IncompatibleGrids(GasAdaptError):
    """Gridpoints of the target grid do not align with the source grid."""


class EmptyNetwork(GasAdaptError):
    """An aggregate over pipes was requested for a network without pipes."""


class InvalidGrid(GasAdaptError):
    """A pipe grid has a stepsize that is not positive and finite, or violates
    the multiple-of-4 interval requirement."""


class InfeasibleProblem(GasAdaptError):
    """The NLP solver declared the instance locally infeasible."""


class IterationLimit(GasAdaptError):
    """An iterative procedure hit its iteration cap without converging."""


class ParseError(GasAdaptError):
    """An input file could not be parsed."""


class ValidationError(GasAdaptError):
    """A loaded network or scenario violates structural invariants."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
