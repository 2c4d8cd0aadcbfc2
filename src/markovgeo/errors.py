"""Exception hierarchy shared by all modules."""


class MarkovGeoError(Exception):
    """Base class for all library errors."""


class GraphError(MarkovGeoError):
    pass


class TooFewStates(GraphError):
    pass


class OutOfRangeState(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class NotStronglyConnected(GraphError):
    """Raised with a witness pair (x, y) admitting no directed path x -> y."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"no directed path from state {witness[0]} to state {witness[1]}")


class ParseError(MarkovGeoError):
    pass


class NoConvergence(MarkovGeoError):
    """A numerical routine did not reach its tolerance: the eigensolver or its
    Newton step failed, or left no strictly positive Perron vector or a
    Collatz-Wielandt bracket wider than spectral.BRACKET_TOL; the Euler residual
    of null_space_dimension exceeded its bound; or project_to_M underflowed to
    0 or left a reduced gradient not below PROJECTION_TOL."""


class NonpositiveScale(MarkovGeoError):
    pass


class GraphMismatch(MarkovGeoError):
    pass


class NotTransitionProbability(MarkovGeoError):
    pass


class NotInMtilde(MarkovGeoError):
    pass


class BoundaryFunction(MarkovGeoError):
    """An edge function with zero entries was passed where strict positivity is required."""


class GeneratorInvalid(MarkovGeoError):
    """A convex generator failed its registration checks."""


class UnobservedEdge(MarkovGeoError):
    def __init__(self, edges):
        self.edges = tuple(edges)
        super().__init__(f"edges never observed in trajectory: {self.edges}")


class UnvisitedState(MarkovGeoError):
    def __init__(self, states):
        self.states = tuple(states)
        super().__init__(f"states with no outgoing transition in trajectory: {self.states}")
