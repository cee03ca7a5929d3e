"""Exception types shared across the package.

Every failure that a caller may want to distinguish gets its own class;
witness data (a vertex, a point pair, an axiom number) rides on the
exception so verifiers can report exactly what broke.
"""

from __future__ import annotations


class DsrgError(Exception):
    """Base class for all library errors."""


class NotPrimePowerError(DsrgError):
    """q is not p^e for a single prime p, or q < 2."""


class TooLargeError(DsrgError):
    """Input exceeds a hard size cap (field order, verification size)."""


class OutOfBudgetError(DsrgError):
    """Construction would exceed a fixed size guard, or a search its node budget."""


class NoParallelClassesError(DsrgError):
    """Operation needs parallel classes but the structure has none."""


class BadClassCountError(DsrgError):
    """Requested number of parallel classes is out of range."""


class NoAntiFlagsError(DsrgError):
    """Structure has no non-incident point-block pair to build on."""


class NotPartitionStructureError(DsrgError):
    """Structure is not a plain partition (blocks must equal groups)."""


class PreconditionFailedError(DsrgError):
    """A construction hypothesis does not hold for the given structure."""


class NotPartialGeometryError(DsrgError):
    """Structure violates a partial-geometry axiom.

    axiom is 1, 2 or 3; witness identifies the offending block, point,
    point pair or anti-flag.
    """

    def __init__(self, axiom: int, witness, message: str):
        super().__init__(f"axiom {axiom} fails: {message} (witness {witness!r})")
        self.axiom = axiom
        self.witness = witness


class NotGroupDivisibleError(DsrgError):
    """Structure violates the group-divisible pair conditions."""

    def __init__(self, witness, message: str):
        super().__init__(f"{message} (witness {witness!r})")
        self.witness = witness


class NotTwoDesignError(DsrgError):
    """Structure is not a 2-design (block size, replication or pair count varies)."""

    def __init__(self, witness, message: str):
        super().__init__(f"{message} (witness {witness!r})")
        self.witness = witness


class NotRegularError(DsrgError):
    """Some vertex has in- or out-degree different from the rest."""

    def __init__(self, vertex: int, message: str):
        super().__init__(f"{message} (vertex {vertex})")
        self.vertex = vertex


class NonConstantError(DsrgError):
    """One of t, lambda, mu is not constant over its entry class."""

    def __init__(self, which: str, witness, message: str):
        super().__init__(f"{which} not constant: {message} (witness {witness!r})")
        self.which = which
        self.witness = witness


class DegenerateError(DsrgError):
    """Graph is complete or empty, so lambda or mu is unconstrained."""


class TNotMuError(DsrgError):
    """The multiple construction needs t = mu."""


class NotDsrgError(DsrgError):
    """Input graph failed verification where a verified graph was required."""


class UnbuildableError(DsrgError):
    """Family parameters admit a formula evaluation but no construction here."""


class NotFeasibleError(DsrgError):
    """Parameter tuple admits no integer spectrum.

    reason is one of: delta_not_positive (delta^2 <= 0),
    delta_not_integer, multiplicity_not_integer, multiplicity_negative.
    The halves (lambda-mu +- delta)/2 are always integers, since delta^2
    = (mu-lambda)^2 + 4(t-mu) makes delta = lambda-mu (mod 2).
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class SizeMismatchError(DsrgError):
    """Two graphs (or a graph and a mapping) disagree on vertex count."""


class FormatError(DsrgError):
    """A graph or structure file does not parse; carries a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
