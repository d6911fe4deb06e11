"""Exception types shared across the package."""

from __future__ import annotations


class DepcalcError(Exception):
    """Base class for every error raised by depcalc."""


class CycleError(DepcalcError):
    """A relation pair would close into a cycle.

    Carries the first offending pair found, not an enumeration of all cycles.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"relation pair {pair} creates a cycle")


class ArityError(DepcalcError):
    """An argument list has the wrong length for the poset it pairs with."""


class SizeError(DepcalcError):
    """An input exceeds the enforced small-instance guard."""


class SizeMismatch(DepcalcError):
    """Posets of different sizes were combined where equal sizes are required."""


class PreconditionError(DepcalcError):
    """A documented precondition of an operation was violated."""


class MalformedExpression(DepcalcError):
    """An expression violates linearity, normal form, or the text syntax."""


class NotInclusion(DepcalcError):
    """No identity-on-elements inclusion exists between the given posets.

    The two posets are attached as ``source`` and ``target``; the message,
    which lists both relations, is built only when it is read.
    """

    def __init__(self, source, target):
        self.source = source
        self.target = target
        super().__init__(source, target)

    def __str__(self):
        return f"no identity-on-elements inclusion ({self.source!r} into {self.target!r})"


class NotExpressible(DepcalcError):
    """A poset required to be expressible contains a zig-zag.

    The witness quadruple is attached as ``obstruction``.
    """

    def __init__(self, obstruction):
        self.obstruction = obstruction
        super().__init__(f"poset is not expressible; obstruction {obstruction.elements}")


class InvalidDiagram(DepcalcError):
    """A string diagram is structurally inconsistent.

    A failure found at a stage carries that ``stage`` and the bare ``reason``;
    its message then reads ``stage N: reason``.
    """

    def __init__(self, reason: str, stage: int | None = None):
        self.reason = reason
        self.stage = stage
        super().__init__(reason if stage is None else f"stage {stage}: {reason}")


class MissingAssignment(DepcalcError):
    """A decoration does not cover every generator used by a diagram."""


class InvalidPaths(DepcalcError):
    """A path-shaped morphism is not a disjoint union of composable paths."""


class InvalidExtension(DepcalcError):
    """A sequence is not a linear extension of the poset it should extend."""
