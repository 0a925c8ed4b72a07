"""Exception types shared across the library.

Every error that a caller can trigger by violating a documented
precondition gets its own class, so callers (and the CLI) can map
violations to exit codes without parsing messages.
"""


class AffineTreesError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(AffineTreesError):
    """Sign determination did not separate a sum from zero within the
    refinement budget.  Cannot happen for a genuinely nonzero value."""


class ResultTooLarge(AffineTreesError):
    """An exact result has more digits than the interpreter writes as text
    (``sys.get_int_max_str_digits()``), or an iterated action's point has
    more exponential-sum terms than ``act`` allows."""


class DimensionMismatch(AffineTreesError, ValueError):
    """Operands have incompatible sizes."""


class NotUpperTriangular(AffineTreesError, ValueError):
    pass


class NotStrictUpper(AffineTreesError, ValueError):
    pass


class NotUnitriangular(AffineTreesError, ValueError):
    pass


class NotAffineForm(AffineTreesError, ValueError):
    """Matrix is not upper triangular with a 1 in the bottom-right corner."""


class IdentityInput(AffineTreesError, ValueError):
    """Predicate is undefined for the trivial element."""


class ZeroInput(AffineTreesError, ValueError):
    """Operation is undefined for the zero element."""


class NotInverseClosed(AffineTreesError, ValueError):
    """Generating set must contain the inverse of each generator."""


class IndexSpaceMismatch(AffineTreesError, ValueError):
    """Lexicographic values live in different index spaces."""


class ZeroComparand(AffineTreesError, ValueError):
    """Archimedean comparison against the zero element is undefined."""


class StructureMismatch(AffineTreesError, ValueError):
    """Wreath-product operands belong to different group structures."""


class EmptyLevels(AffineTreesError, ValueError):
    """An iterated wreath construction needs at least one level."""


class TooManyLevels(AffineTreesError, ValueError):
    """An iterated wreath construction has more levels than
    ``wreath.MAX_WREATH_LEVELS``."""


class ConfigInvalid(AffineTreesError, ValueError):
    """Verification suite configuration failed validation."""


class NotInvertible(AffineTreesError, ValueError):
    """A diagonal entry has no inverse in the entry ring."""
