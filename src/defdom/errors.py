"""Exception types shared across the package."""


class DefdomError(Exception):
    """Base class for all defdom errors."""


class ProperViolation(DefdomError):
    """One interval properly contains another.

    ``pair`` holds the 1-based input positions of the offending intervals,
    smaller index first.
    """

    def __init__(self, pair, message=None):
        self.pair = tuple(pair)
        super().__init__(message or f"interval {self.pair[0]} properly contains interval {self.pair[1]}")


class InvalidRanges(DefdomError):
    """A neighbor-range sequence is not a valid proper interval graph."""


class InvalidBubbles(DefdomError):
    """A bubble structure is malformed or does not define a valid graph."""


class TooLarge(DefdomError):
    """A size cap refused a request: the brute-force oracle's, or the cap on
    vertices expanded from a bubble model."""

    def __init__(self, n, cap, message=None):
        self.n = n
        self.cap = cap
        super().__init__(message or f"instance has {n} vertices, oracle cap is {cap}")


class Overflow(DefdomError):
    """An attack window was advanced past the last vertex (caller bug)."""


class BadParameters(DefdomError):
    """Invalid generator parameters."""


class FormatError(DefdomError):
    """An instance file failed to parse; ``offset`` is the byte position."""

    def __init__(self, offset, message):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")
