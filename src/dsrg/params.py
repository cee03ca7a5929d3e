"""Exact integer arithmetic on DSRG parameter tuples.

A (v, k, t, lambda, mu) tuple is admissible only if it satisfies the
basic identities every directed strongly regular graph obeys.  The
spectrum of such a graph has the eigenvalues k, (lam-mu+d)/2 and
(lam-mu-d)/2 with d = sqrt((mu-lam)^2 + 4(t-mu)), with multiplicities
1, m1 and m2.  For 0 < t < k the eigenvalues are integers and the
multiplicities integral and nonnegative (Duval 1988).  When d^2 is no
positive square the two eigenvalues other than k are conjugate
(irrational or non-real), so a rational characteristic polynomial gives
them equal multiplicities (v-1)/2.  Then trace A = 0 forces 2k = v-1 and
lambda = mu-1, and trace A^2 = tv forces t = k(k+1-2mu), a multiple of
k: the conference graphs at t = k and the doubly regular tournaments at
t = 0.  feasibility accepts such a tuple without an integer spectrum.
It also checks two more of Duval's conditions: for 0 < k < v-1 the
complement J - I - A is a DSRG, so its tuple must pass the basic
identities, and for 0 < t < k lambda, mu and mu - lambda are bounded by
t and k - t.
Everything here is computed exactly in Python integers; there is no
floating point anywhere: DsrgParams and feasibility refuse an entry that
is not an int (a float such as 36.0, or a bool) with a TypeError, and
feasibility refuses an entry of absolute value MAX_ENTRY or more with
TooLargeError, before any detail is formatted.  DsrgParams, which has no
such bound, writes an int too long for str by its bit length, in its
identity details, in str() and in the messages of spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import NotFeasibleError, TooLargeError

# feasibility refuses an entry this large or larger: its details stay far
# below Python's 4300-digit limit on int-to-str conversion
MAX_ENTRY = 10 ** 1000

_NAMES = ("v", "k", "t", "lambda", "mu")


def _check_ints(named: Iterable[tuple[str, object]]) -> None:
    """TypeError naming the first (name, value) whose value is not an int;
    a bool is not one."""
    for name, value in named:
        if type(value) is not int:
            raise TypeError(f"{name} = {value!r} is not an int")


def _decimal(x: int) -> str:
    """str(x), or, for an int too long for the interpreter's limit on
    int-to-str conversion, its bit length: '<14618-bit int>'."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


def _entries(values: Iterable[int]) -> str:
    """The tuple of values, written as a tuple of _decimal strings."""
    return f"({', '.join(map(_decimal, values))})"


def _identities(v: int, k: int, t: int, lam: int,
                mu: int) -> list[tuple[str, bool, Callable[[], str]]]:
    """(name, holds, detail) of each basic identity of a DSRG tuple, in check order.

    detail() formats the message; it is called only when it is shown, so
    a tuple of huge integers costs no decimal conversion when it holds.
    An int too long to convert is written by its bit length (_decimal).
    """
    lhs, rhs = k * (k + mu - lam), t + (v - 1) * mu
    return [("nonnegative", min(v, k, t, lam, mu) >= 0,
             lambda: f"entries {_entries((v, k, t, lam, mu))}"),
            ("degree_bounds", 0 <= t <= k < v,
             lambda: f"need 0 <= t={_decimal(t)} <= k={_decimal(k)} < v={_decimal(v)}"),
            ("lambda_below_k", lam < k, lambda: f"need lambda={_decimal(lam)} < k={_decimal(k)}"),
            ("degree_identity", lhs == rhs,
             lambda: f"k(k+mu-lambda)={_decimal(lhs)} vs t+(v-1)mu={_decimal(rhs)}")]


@dataclass(frozen=True)
class DsrgParams:
    """Validated DSRG parameter tuple (v, k, t, lam, mu)."""

    v: int
    k: int
    t: int
    lam: int
    mu: int

    def __post_init__(self):
        _check_ints(zip(_NAMES, self.tuple()))
        for name, holds, detail in _identities(*self.tuple()):
            if not holds:
                raise ValueError(f"{name} fails: {detail()}")

    def tuple(self) -> tuple[int, int, int, int, int]:
        return (self.v, self.k, self.t, self.lam, self.mu)

    def scaled(self, m: int) -> "DsrgParams":
        """Coordinatewise multiple; valid whenever t = mu and m >= 1."""
        return DsrgParams(m * self.v, m * self.k, m * self.t, m * self.lam, m * self.mu)

    def __str__(self) -> str:
        return _entries(self.tuple())


@dataclass(frozen=True)
class Spectrum:
    """Integer eigenvalues theta0 > theta1 > theta2 with multiplicities 1, m1, m2."""

    theta0: int
    theta1: int
    theta2: int
    delta: int
    m0: int
    m1: int
    m2: int

    def __post_init__(self):
        if self.m0 != 1:
            raise ValueError("theta0 = k always has multiplicity 1")
        if self.theta1 <= self.theta2:
            raise ValueError("need theta1 > theta2")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.theta0 + self.theta1 * self.m1 + self.theta2 * self.m2 != 0:
            raise ValueError("trace of the adjacency matrix must vanish")


def _raw_spectrum(v: int, k: int, t: int, lam: int, mu: int) -> Spectrum:
    disc = (mu - lam) ** 2 + 4 * (t - mu)
    if disc <= 0:
        raise NotFeasibleError("delta_not_positive", f"delta^2={_decimal(disc)}")
    delta = math.isqrt(disc)
    if delta * delta != disc:
        raise NotFeasibleError("delta_not_integer", f"delta^2={_decimal(disc)}")
    theta1 = (lam - mu + delta) // 2
    theta2 = (lam - mu - delta) // 2
    num = -(k + theta2 * (v - 1))
    m1, rem = divmod(num, delta)
    if rem:
        raise NotFeasibleError("multiplicity_not_integer",
                               f"multiplicity {_decimal(num)}/{_decimal(delta)} is not integral")
    m2 = v - 1 - m1
    if m1 < 0 or m2 < 0:
        raise NotFeasibleError("multiplicity_negative",
                               f"multiplicities {_entries((m1, m2))} must be nonnegative")
    return Spectrum(k, theta1, theta2, delta, 1, m1, m2)


def spectrum(p: DsrgParams) -> Spectrum:
    """Exact integer spectrum of a DSRG parameter tuple.

    Raises NotFeasibleError with reason delta_not_positive,
    delta_not_integer, multiplicity_not_integer or multiplicity_negative
    when no integer spectrum exists.  The halves need no check:
    delta^2 = (mu-lambda)^2 + 4(t-mu) makes delta = lambda-mu (mod 2), so
    theta1, theta2 = (lambda-mu +- delta)/2 are integers.  Nor does m2,
    once m1 = -(k + theta2(v-1))/delta is integral: m2 = (k +
    theta1(v-1))/delta, so m1 + m2 = (theta1-theta2)(v-1)/delta = v-1,
    and m2 = v-1-m1 is integral too; the multiplicities sum to v.
    """
    return _raw_spectrum(*p.tuple())


@dataclass(frozen=True)
class FeasibilityCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of every necessary-condition check on a raw parameter tuple.

    Passing all checks never claims a graph exists; failing any one
    proves it does not.
    """

    params: tuple[int, int, int, int, int]
    checks: tuple[FeasibilityCheck, ...]
    spectrum: Spectrum | None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> FeasibilityCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None


def feasibility(v: int, k: int, t: int, lam: int, mu: int) -> FeasibilityReport:
    """Run all parameter invariants plus spectrum integrality on a raw tuple.

    integer_spectrum passes on an integer spectrum, and on a delta^2
    that is no positive square when 2k = v-1, lambda = mu-1 and
    t = k(k+1-2mu); its detail then says so, and spectrum is None.
    An entry that is not an int is a TypeError, and one of absolute value
    MAX_ENTRY or more a TooLargeError, both naming the first such entry.
    """
    _check_ints(zip(_NAMES, (v, k, t, lam, mu)))
    for name, x in zip(_NAMES, (v, k, t, lam, mu)):
        if abs(x) >= MAX_ENTRY:
            raise TooLargeError(f"{name} has {x.bit_length()} bits; entries must be "
                                f"below 10**1000 in absolute value")
    checks: list[FeasibilityCheck] = []
    spec: Spectrum | None = None
    try:
        spec = _raw_spectrum(v, k, t, lam, mu)
        checks.append(FeasibilityCheck("integer_spectrum", True,
                                       f"theta=({spec.theta0},{spec.theta1},{spec.theta2}) "
                                       f"mult=({spec.m0},{spec.m1},{spec.m2})"))
    except NotFeasibleError as exc:
        detail = f"{exc.reason}: {exc}"
        conjugate = (exc.reason in ("delta_not_positive", "delta_not_integer")
                     and 2 * k == v - 1 and lam == mu - 1 and t == k * (k + 1 - 2 * mu))
        if conjugate:
            detail = f"conjugate eigenvalues, 2k = v-1, lambda = mu-1, t = k(k+1-2mu): {detail}"
        checks.append(FeasibilityCheck("integer_spectrum", conjugate, detail))
    checks += [FeasibilityCheck(name, holds, detail())
               for name, holds, detail in _identities(v, k, t, lam, mu)]
    checks += [_complement(v, k, t, lam, mu), _duval_bounds(k, t, lam, mu)]
    return FeasibilityReport((v, k, t, lam, mu), tuple(checks), spec)


def _complement(v: int, k: int, t: int, lam: int, mu: int) -> FeasibilityCheck:
    """For 0 < k < v-1, J - I - A is a DSRG (v, v-k-1, v-2k+t-1, v-2k+mu-2,
    v-2k+lambda) (Duval 1988), so that tuple must pass the basic identities."""
    if not 0 < k < v - 1:
        return FeasibilityCheck("complement", True, f"not checked: need 0 < k={k} < v-1={v - 1}")
    c = (v, v - k - 1, v - 2 * k + t - 1, v - 2 * k + mu - 2, v - 2 * k + lam)
    for name, holds, detail in _identities(*c):
        if not holds:
            return FeasibilityCheck("complement", False, f"complement {c}: {name} fails: {detail()}")
    return FeasibilityCheck("complement", True, f"complement {c}")


def _duval_bounds(k: int, t: int, lam: int, mu: int) -> FeasibilityCheck:
    """For 0 < t < k: 0 <= lambda < t, 0 < mu <= t and
    -2(k-t-1) <= mu-lambda <= 2(k-t) (Duval 1988)."""
    if not 0 < t < k:
        return FeasibilityCheck("duval_bounds", True, f"not checked: need 0 < t={t} < k={k}")
    for holds, detail in ((0 <= lam < t, f"need 0 <= lambda={lam} < t={t}"),
                          (0 < mu <= t, f"need 0 < mu={mu} <= t={t}"),
                          (-2 * (k - t - 1) <= mu - lam <= 2 * (k - t),
                           f"need -2(k-t-1)={-2 * (k - t - 1)} <= mu-lambda={mu - lam} "
                           f"<= 2(k-t)={2 * (k - t)}")):
        if not holds:
            return FeasibilityCheck("duval_bounds", False, detail)
    return FeasibilityCheck("duval_bounds", True, "0 <= lambda < t, 0 < mu <= t, "
                            "-2(k-t-1) <= mu-lambda <= 2(k-t)")
