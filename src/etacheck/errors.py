"""Exception hierarchy shared by all modules."""


class EtacheckError(Exception):
    """Base class for every error raised by this package."""


class SpecError(EtacheckError):
    """Bad input: malformed family spec, violated precondition, unusable arguments."""


class SearchExhaustedError(SpecError):
    """A bounded search ran out of room; the instance needs larger bounds or a larger level."""


class ContractError(EtacheckError):
    """An internal invariant failed (a non-monic basis, closure stall, runaway support).

    Seeing this means either a genuine bug or an instance outside the method's
    guarantees; it is never a routine "no result" outcome.
    """
