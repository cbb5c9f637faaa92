"""Exception taxonomy shared by all modules.

Each class marks one infeasibility mode so the CLI can map failures to
stable exit codes (``cli.main``; the codes are listed in the ``cli`` module
docstring).
"""


class DfsSenseError(Exception):
    """Base class for all library-specific failures."""


class NoSignalComponent(DfsSenseError):
    """The signal profile lies entirely inside the noise span; nothing is sensable."""


class Unreachable(DfsSenseError):
    """A requested target (spin average, eigenvalue, field value) is outside the reachable range."""


class Degenerate(DfsSenseError):
    """A construction collapsed to fewer effective levels than it requires."""


class TooLarge(DfsSenseError):
    """An explicit enumeration would exceed the configured size guard."""


class NotLinear(DfsSenseError):
    """An operation valid only for uniformly spaced spectra got a non-uniform one."""


class InvalidState(DfsSenseError):
    """A density matrix failed Hermiticity, trace, or positivity checks."""


class InsufficientTime(DfsSenseError):
    """The total time budget cannot accommodate a single protocol round."""


class ScenarioError(DfsSenseError):
    """A scenario document failed schema validation.

    ``path`` holds a JSON-pointer-like key path (e.g. "prior.width") so the
    CLI can print where the document is wrong.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NumericFailure(DfsSenseError):
    """A computation produced non-finite values or failed to converge."""
