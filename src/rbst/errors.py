"""Exception types shared across the package."""


class RbstError(Exception):
    """Base class for all library errors."""


class NotFoundError(RbstError):
    """Requested block label does not exist."""


class InvalidBlockError(RbstError):
    """Block violates its local invariants (key order, capacity, slot count)."""


class AccountingError(RbstError):
    """Pin/release bookkeeping was violated by the caller."""


class CorruptionError(RbstError):
    """The store would end up in an inconsistent state: an algorithm bug or a bad loaded image."""


class FormatError(RbstError):
    """An image file is malformed; the message names the offending field or label."""


class DuplicateKeyError(RbstError):
    """Insert of a key that is already present."""


class MissingKeyError(RbstError):
    """Delete of a key that is not present."""


class InvalidRangeError(RbstError):
    """Range query with lo > hi."""


class InvalidRankError(RbstError):
    """Order-statistic rank outside 1..n, or a rank walk that wrong slot weights exhaust."""


class InvalidPermutationError(RbstError):
    """Explicit priority assignment is not a bijection onto 1..n."""


class EnumerationLimitError(RbstError):
    """Exact enumeration requested above the feasible key count."""


class ConfigError(RbstError):
    """Benchmark configuration is degenerate for the requested experiment."""
