"""Exception hierarchy for the maniplexes package.

Every rejected input raises a subclass of :class:`ManiplexError` carrying the
first offending location in canonical scan order (lowest colour, then lowest
flag), so error messages are deterministic.
"""

from __future__ import annotations


class ManiplexError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(ManiplexError):
    """A flag index, colour, rank or size is outside its permitted range."""


class SizeMismatch(ManiplexError):
    """Matching rows have inconsistent lengths."""


class FixedPoint(ManiplexError):
    """A colour matching fixes a flag (matchings must be fixed-point-free)."""

    def __init__(self, colour: int, flag: int):
        self.colour = colour
        self.flag = flag
        super().__init__(f"colour {colour} fixes flag {flag}")


class NotInvolution(ManiplexError):
    """A colour matching is not an involution."""

    def __init__(self, colour: int, flag: int):
        self.colour = colour
        self.flag = flag
        super().__init__(
            f"colour {colour} is not an involution at flag {flag}"
        )


class MultiEdge(ManiplexError):
    """Two distinct colours join the same pair of flags."""

    def __init__(self, colour_a: int, colour_b: int, flag: int):
        self.colour_a = colour_a
        self.colour_b = colour_b
        self.flag = flag
        super().__init__(
            f"colours {colour_a} and {colour_b} agree at flag {flag}"
        )


class DisconnectedInput(ManiplexError):
    """An operation that needs a connected graph received a disconnected one."""


class Disconnected(DisconnectedInput):
    """A maniplex graph is disconnected; carries two separated flags."""

    def __init__(self, flag_a: int, flag_b: int):
        self.flag_a = flag_a
        self.flag_b = flag_b
        super().__init__(
            f"flags {flag_a} and {flag_b} lie in different components"
        )


class BadTwoFactor(ManiplexError):
    """Colours i and j with |i - j| > 1 do not commute at some flag."""

    def __init__(self, colour_i: int, colour_j: int, flag: int):
        self.colour_i = colour_i
        self.colour_j = colour_j
        self.flag = flag
        super().__init__(
            f"colours {colour_i},{colour_j} do not commute at flag {flag}"
        )


class RankOutOfRange(ManiplexError):
    """A rank argument does not name a face rank of this maniplex."""


class RankMismatch(ManiplexError):
    """Two maniplexes or posets of different ranks were combined."""


class PathUsesPivotColour(ManiplexError):
    """A path word contains a colour listed as a pivot."""


class NotAChain(ManiplexError):
    """A face set is not a chain (not pairwise incident)."""


class NotComparable(ManiplexError):
    """Two poset elements are not comparable where comparability is required."""


class NoFlagSets(ManiplexError):
    """A poset built without a maniplex was asked for a flag set."""


class NotAPolytope(ManiplexError):
    """A poset operation that requires polytopality found a violation."""


class BadParam(ManiplexError):
    """A generator parameter is invalid (e.g. polygon size below 2)."""


class DegenerateBasis(ManiplexError):
    """A lattice basis is singular or otherwise unusable."""


class BudgetExhausted(ManiplexError):
    """Random generation hit its retry budget without producing a valid graph."""


class ParseError(ManiplexError):
    """A file could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InconsistentVerdicts(ManiplexError):
    """Two computations of the same fact disagreed, such as the independent
    polytopality criteria (an internal invariant breach, never bad input)."""
