"""Exception hierarchy shared by all rwalk modules.

Everything derives from RwalkError so callers (notably the CLI) can map
failure classes onto exit codes without enumerating every subtype.
"""


class RwalkError(Exception):
    pass


class IndexOutOfRange(RwalkError):
    """Element index not valid for a finite group."""


class GroupMismatch(RwalkError):
    """Operation combining laws or tables over different groups."""


class WindowExceeded(RwalkError):
    """Evaluation point escaped a truncation window."""


class ExponentOverflow(RwalkError, OverflowError):
    """theta.x magnitude beyond the exp() guard (|arg| > 700)."""


class DegenerateSupport(RwalkError):
    """Origin not interior to the support hull: no interior minimizer."""


class NotIrreducible(RwalkError):
    """Support does not generate the whole group as a closed semigroup."""


class NotNormalized(RwalkError):
    """Supplied (exponential, R) pair does not tilt to a probability law."""


class HorizonTooLarge(RwalkError):
    """Requested return-series horizon beyond the per-dimension cap."""


class InsufficientData(RwalkError):
    """Too few nonzero series terms to estimate the spectral radius."""


class SpecFileError(RwalkError):
    """Walk-spec file rejected; message carries line/field location."""

    def __init__(self, message: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line
