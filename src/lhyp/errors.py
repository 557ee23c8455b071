"""Shared exception types, and the quoting of input in their messages.

``quoted`` caps the text that an error line echoes, and ``int_token``
is the one reader of an int token from an input file.
"""


class InputError(ValueError):
    """Malformed or incompatible input data (bad file, wrong rank, unknown point)."""


class ConstructionError(RuntimeError):
    """A construction postcondition failed; carries diagnostics in args."""


def quoted(text: str) -> str:
    """text as ``%r`` shows it, or its first 40 characters and its length
    when longer, so that an error line echoing it stays short."""
    if len(text) <= 40:
        return repr(text)
    return "%r... (%d characters)" % (text[:40], len(text))


def int_token(text: str, what: str) -> int:
    """int(text), or an InputError reading ``bad <what> <quoted text>``."""
    try:
        return int(text)
    except ValueError:
        raise InputError("bad %s %s" % (what, quoted(text))) from None
