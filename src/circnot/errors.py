"""Exception hierarchy with stable error codes, and the line and quoting helpers of its messages."""

from __future__ import annotations

# longest token or line a message quotes whole
QUOTE_CAP = 64


def quote(token: str) -> str:
    """``repr`` of a token, or of its first ``QUOTE_CAP`` characters and its length."""
    if len(token) <= QUOTE_CAP:
        return repr(token)
    return f"{token[:QUOTE_CAP]!r}... ({len(token)} chars)"


def quote_int(n: int) -> str:
    """A number whole up to ``QUOTE_CAP`` digits, else its first digits and digit count.

    A longer number is measured by integer arithmetic, not formatted whole:
    past 4,300 digits ``str`` refuses it.
    """
    if -(10**QUOTE_CAP) < n < 10**QUOTE_CAP:
        return str(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    # 2**(bits - 1) <= n, so the estimate is the digit count or one short
    digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1
    while 10**digits <= n:
        digits += 1
    while 10 ** (digits - 1) > n:
        digits -= 1
    shown = QUOTE_CAP - len(sign)
    return f"{sign}{n // 10 ** (digits - shown)}... ({digits} digits)"


# most wires a message names
WIRES_SHOWN = 16


def wire_list(wires) -> str:
    """A list of wires as ``[0, 1]``, or its first ``WIRES_SHOWN`` and the count."""
    shown = ", ".join(str(w) for w in wires[:WIRES_SHOWN])
    more = f", ...] ({len(wires)} wires)" if len(wires) > WIRES_SHOWN else "]"
    return f"[{shown}{more}"


def clean_lines(text: str):
    """``(line number, line)`` of every line with text left once ``#`` comments are stripped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


class CircnotError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str = "", **details):
        super().__init__(message or self.code)
        self.details = details


class CircuitSyntaxError(CircnotError):
    code = "syntax-error"

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}", line=line)
        self.line = line


class FileNotFound(CircnotError):
    code = "file-not-found"


class UnreadableFile(CircnotError):
    """An input path that is not a readable file of UTF-8 text."""

    code = "unreadable-file"


class WrongCircuitKind(CircnotError):
    """A command got a linear circuit where it needs a circular one, or back."""

    code = "wrong-circuit-kind"


class ControlEqualsTarget(CircnotError):
    code = "control-equals-target"


class WireOutOfRange(CircnotError):
    code = "wire-out-of-range"


class EmptyWire(CircnotError):
    """A circular wire carries no gate symbol; segmentation is undefined."""

    code = "empty-wire"

    def __init__(self, wires, join_record=None):
        self.wires = tuple(sorted(wires))  # all of them; the message names at most ``WIRES_SHOWN``
        super().__init__(f"wires without gate symbols: {wire_list(self.wires)}")
        self.join_record = join_record


class EmptyCutSet(CircnotError):
    code = "empty-cut-set"


class DuplicateCut(CircnotError):
    code = "duplicate-cut"


class UnknownGap(CircnotError):
    code = "unknown-gap"

    @classmethod
    def least(cls, gaps) -> "UnknownGap":
        """The error naming the least of ``gaps``, none of which the circuit has."""
        gap = min(gaps)
        return cls(f"wire {quote_int(gap.wire)} gap {quote_int(gap.index)} does not exist")


class NoRadialCut(CircnotError):
    """No angular slot is cut on every wire, so no valid circuit results."""

    code = "no-radial-cut"

    def __init__(self, message: str, missing_by_slot=None):
        super().__init__(message)
        # slot index -> wires lacking a cut in the gap spanning that slot
        self.missing_by_slot = missing_by_slot or {}


class UnknownGate(CircnotError):
    code = "unknown-gate"


class NotAdjacent(CircnotError):
    code = "not-adjacent"


class UnpinnedSelector(CircnotError):
    code = "unpinned-selector"


class Inconsistent(CircnotError):
    code = "inconsistent"


class BudgetTooSmall(CircnotError):
    code = "budget-too-small"


class SearchTooLarge(CircnotError):
    """A cut search would build more candidates than its limit allows."""

    code = "search-too-large"


class CountMismatch(CircnotError):
    code = "count-mismatch"


class InvalidAncillaConfig(CircnotError):
    code = "invalid-ancilla-config"
