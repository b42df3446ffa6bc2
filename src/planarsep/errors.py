"""Exception types shared across the toolkit."""


class PlanarSepError(Exception):
    """Base class for all toolkit errors."""


class InconsistentRotation(PlanarSepError):
    """A dart in some rotation has no matching reverse dart."""


class NotConnected(PlanarSepError):
    """The graph is not connected."""


class EulerViolation(PlanarSepError):
    """n - m + f != 2 for the given rotation system."""


class NegativeWeight(PlanarSepError):
    """A weight list does not hold one non-negative int per vertex."""


class UnknownRoot(PlanarSepError):
    """BFS root is not a vertex of the graph."""


class NotSpanningTree(PlanarSepError):
    """The claimed tree does not span the graph."""


class EdgeInTree(PlanarSepError):
    """Fundamental cycle requested for a tree edge."""


class EdgeNotInCotree(PlanarSepError):
    """Fundamental cut requested for an edge outside the cotree."""


class NotProper(PlanarSepError):
    """Weight assignment violates the required properness bound."""


class DegenerateTotal(PlanarSepError):
    """Total weight is zero; every vertex set is vacuously balanced."""


class NoFace(PlanarSepError):
    """The graph has no edge, so its rotation system traces no face."""


class NotBiconnected(PlanarSepError):
    """A face boundary repeats a vertex, so the graph is not bi-connected."""


class BitBudgetExceeded(PlanarSepError):
    """A message exceeded the per-edge per-round bit budget."""

    def __init__(self, round_no, dart, bits, budget):
        super().__init__(
            f"round {round_no}: message on dart {dart} is {bits} bits, budget {budget}"
        )
        self.round_no = round_no
        self.dart = dart
        self.bits = bits
        self.budget = budget


class RoundLimitExceeded(PlanarSepError):
    """Simulation did not complete within max_rounds."""


class ConflictingRoot(PlanarSepError):
    """Two roots for one tree: a second BFS root was announced, or a part's
    given root is not the root of its given tree."""


class InvalidPartition(PlanarSepError):
    """A partition part is empty, missing vertices, or disconnected."""


class BadParams(PlanarSepError):
    """Generator parameters are out of the documented range."""


class InsufficientData(PlanarSepError):
    """Scaling report needs at least four sizes of one family."""
