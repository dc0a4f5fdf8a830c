"""Exception hierarchy.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code mapping) can tell them apart without string
matching.
"""


class KphallError(Exception):
    """Base class for all library errors."""


class ValidationError(KphallError):
    """An instance failed structural validation."""


class NotUniformError(ValidationError):
    """An edge does not have exactly k vertices."""


class NotPartiteError(ValidationError):
    """An edge has zero or several vertices in some part."""


class DuplicateLabelError(ValidationError):
    """The same vertex label was declared more than once."""


class IsolatedVertexError(ValidationError):
    """Strict mode: a declared vertex lies in no edge."""


class WrongArityError(KphallError):
    """A neighborhood query must name exactly k-1 vertices."""


class SamePartError(KphallError):
    """A neighborhood query may touch each part at most once."""


class NotPerfectPrefixMatchingError(KphallError):
    """The given matching is not a perfect matching of the prefix subhypergraph."""


class TooLargeError(KphallError):
    """Instance exceeds an exhaustive-search guard; pass force=True to override."""


class ParseError(KphallError):
    """Instance document is not valid JSON."""


class SchemaError(KphallError):
    """Instance document does not follow the file schema."""


class UnknownFixtureError(KphallError, KeyError):
    """No bundled fixture with that name."""


class RetryExhaustedError(KphallError):
    """Planted generator failed its own uniqueness check (a bug)."""
