"""Adaptive model- and grid-error control for stationary gas network
operation-cost minimization.

The package couples a hierarchy of three stationary pipe-flow models with
implicit-Euler discretizations of varying stepsize, a posteriori error
estimators for both error sources, greedy bulk marking strategies, and an
interior-point NLP solver, so that networks are solved with the cheapest
model/grid combination that still meets a prescribed tolerance.

The package root defines only `__version__`; import from the modules, as in
`from gasadapt.controller import run`.
"""

__version__ = "0.1.0"
