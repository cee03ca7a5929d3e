"""Construction families: the registry, closed-form parameters and builders.

Each family names one way of producing a DSRG from an incidence
structure, with the parameters the construction is proven to realize.
A family is a frozen dataclass whose int fields are its parameters;
FAMILIES maps each family name to its class and is the only list of
families, so the CLI derives its flags and usage errors from it.
expected_params evaluates the closed form exactly (Python integers
never wrap, so there is no overflow to report).  The pencil-type
families share one closed form, the anti-flag parameters of a partial
geometry pg(kappa, rho, tau): ap-pencils is pg(q, l, l-1), transversal
is ap-pencils with l = q, affine-resolvable is pg(s, l, l-1) scaled by
m, and gdd is pg(q, l, l-1) scaled by m * q^(l-2).  Each has t = mu,
so the scaled tuple is again a DSRG tuple.  build_digraph performs
the construction when one is available and raises UnbuildableError for
parameter choices that only make sense as formula evaluations;
catalog_instances is the catalog's instance grid, sized by expected_params.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from itertools import chain, count, takewhile
from typing import ClassVar, Union

from .digraph import (
    MAX_VERIFY_ORDER,
    Digraph,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_partition_spiked,
    duval_multiple,
)
from .errors import NotPrimePowerError, TooLargeError, UnbuildableError
from .ffield import _factor_prime_power
from .incidence import (
    DEFAULT_BLOCK_BUDGET,
    DesignParams,
    IncidenceStructure,
    _power_exceeds,
    build_affine_plane,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_structure,
    restrict_parallel_classes,
)
from .params import DsrgParams, _check_ints


FLAG_NAMES = {"lam": "lambda"}   # spec field -> its describe key and CLI flag


class Family:
    """Base of the family specs: frozen dataclasses of int fields, checked
    on construction to be ints (TypeError naming the first that is not,
    a bool or float included), then against the least values `minima`
    lists in field order."""

    name: ClassVar[str]
    minima: ClassVar[dict[str, int]] = {}

    def __post_init__(self):
        _check_ints(vars(self).items())
        if any(getattr(self, f) < lo for f, lo in self.minima.items()):
            bounds = ", ".join(f"{f} >= {lo}" for f, lo in self.minima.items())
            raise ValueError(f"need {bounds}, got {self}")

    def describe(self) -> str:
        """`field=value` pairs joined by ';', fields left at their default omitted."""
        return ";".join(f"{FLAG_NAMES.get(f.name, f.name)}={getattr(self, f.name)}"
                        for f in fields(self) if getattr(self, f.name) != f.default)


@dataclass(frozen=True)
class Gdd(Family):
    """Transversal blocks of l groups of size q; forward rule; m-fold multiple."""

    l: int
    q: int
    m: int = 1
    name: ClassVar[str] = "gdd"
    minima: ClassVar[dict[str, int]] = {"l": 2, "q": 2, "m": 1}


@dataclass(frozen=True)
class PgAntiflag(Family):
    """Anti-flags of a partial geometry pg(kappa, rho, tau); forward rule."""

    kappa: int
    rho: int
    tau: int
    name: ClassVar[str] = "pg-antiflag"

    def __post_init__(self):
        super().__post_init__()
        if self.kappa < 2 or self.rho < 2:
            raise ValueError(f"need kappa, rho >= 2, got {self}")
        if not 1 <= self.tau <= min(self.kappa, self.rho):
            raise ValueError(f"need 1 <= tau <= min(kappa, rho), got {self}")
        if ((self.kappa - 1) * (self.rho - 1)) % self.tau:
            raise ValueError(f"tau must divide (kappa-1)(rho-1), got {self}")


@dataclass(frozen=True)
class ApPencils(Family):
    """Lines of l parallel classes of the affine plane of order q; forward rule."""

    q: int
    l: int
    name: ClassVar[str] = "ap-pencils"
    minima: ClassVar[dict[str, int]] = {"q": 2, "l": 2}


@dataclass(frozen=True)
class Transversal(Family):
    """All q parallel classes of one group splitting: the transversal design TD(q, q)."""

    q: int
    name: ClassVar[str] = "transversal"
    minima: ClassVar[dict[str, int]] = {"q": 2}

    @property
    def l(self) -> int:
        """The pencil count: transversal q is ap-pencils with l = q."""
        return self.q


@dataclass(frozen=True)
class Partition(Family):
    """l disjoint q-sets as blocks; forward rule."""

    q: int
    l: int
    name: ClassVar[str] = "partition"
    minima: ClassVar[dict[str, int]] = {"q": 1, "l": 3}


@dataclass(frozen=True)
class PartitionSpiked(Partition):
    """Partition blocks with the extra same-block edges; t != mu."""

    name: ClassVar[str] = "partition-spiked"


@dataclass(frozen=True)
class AffineResolvable(Family):
    """l parallel classes of an affine resolvable design with s blocks per
    class and non-parallel intersection m; forward rule."""

    m: int
    s: int
    l: int
    name: ClassVar[str] = "affine-resolvable"
    minima: ClassVar[dict[str, int]] = {"m": 1, "s": 2, "l": 2}


@dataclass(frozen=True)
class TwoDesignBack(Family):
    """Anti-flags of a 2-(v, b, k, r, lambda) design, backward rule."""

    v: int
    b: int
    k: int
    r: int
    lam: int
    name: ClassVar[str] = "2design-back"

    def __post_init__(self):
        super().__post_init__()
        if not self.v > self.k >= 2:
            raise ValueError(f"need v > k >= 2, got {self}")
        try:
            DesignParams(self.v, self.b, self.k, self.r, self.lam)
        except ValueError:
            raise ValueError(f"2-design identities fail for {self}") from None
        if self.b + self.lam <= 2 * self.r:
            raise ValueError(f"need b + lambda > 2r, got {self}")


@dataclass(frozen=True)
class TwoDesignBackLoopy(TwoDesignBack):
    """Backward rule plus same-point edges between distinct blocks; t != mu."""

    name: ClassVar[str] = "2design-back-loopy"


FAMILIES = {cls.name: cls for cls in (Gdd, PgAntiflag, ApPencils, Transversal, Partition,
                                      PartitionSpiked, AffineResolvable, TwoDesignBack,
                                      TwoDesignBackLoopy)}

FamilySpec = Union[tuple(FAMILIES.values())]


def _pg(kappa: int, rho: int, tau: int) -> DsrgParams:
    """The anti-flag parameters of pg(kappa, rho, tau), spec checks left out."""
    ratio = (kappa - 1) * (rho - 1) // tau
    k = kappa * rho * ratio
    return DsrgParams(k * (1 + ratio), k, kappa * rho - tau,
                      (kappa - 1) * (rho - 1), kappa * rho - tau)


def expected_params(spec: FamilySpec) -> DsrgParams:
    """Evaluate the family's closed-form parameter tuple exactly."""
    match spec:
        case Gdd(l=l, q=q, m=m):
            return _pg(q, l, l - 1).scaled(m * q ** (l - 2))
        case PgAntiflag(kappa=kappa, rho=rho, tau=tau):
            return _pg(kappa, rho, tau)
        case ApPencils(q=q, l=l) | Transversal(q=q, l=l):
            return _pg(q, l, l - 1)
        case PartitionSpiked(q=q, l=l):
            return DsrgParams(q * l * (l - 1), 2 * q * (l - 1) - 1,
                              q * l - 1, q * l - 2, 2 * q)
        case Partition(q=q, l=l):
            return DsrgParams(q * l * (l - 1), q * (l - 1), q, 0, q)
        case TwoDesignBackLoopy(v=v, b=b, k=k, r=r, lam=lam):
            return DsrgParams(v * (b - r),
                              k * (b - r) + (b - r - 1),
                              k * (r - lam) + (b - r - 1),
                              k * (r - lam) + (b - r - 2),
                              (k + 1) * (r - lam))
        case TwoDesignBack(v=v, b=b, k=k, r=r, lam=lam):
            return DsrgParams(v * (b - r), k * (b - r),
                              k * (r - lam), (k - 1) * (r - lam), k * (r - lam))
        case AffineResolvable(m=m, s=s, l=l):
            return _pg(s, l, l - 1).scaled(m)
    raise TypeError(f"unknown family spec {spec!r}")


FANO_DESIGN_TUPLE = (7, 7, 3, 3, 1)


def _power_exponent(m: int, s: int) -> int | None:
    """e with m = s^e, or None."""
    e = 0
    while m > 1:
        if m % s:
            return None
        m //= s
        e += 1
    return e


def build_structure(spec: FamilySpec):
    """Base incidence structure of a buildable family (multiples excluded).

    pg-antiflag has no generic partial-geometry source and is formula
    only; ap-pencils needs a prime-power q with at most q+1 pencils;
    affine-resolvable needs m to be a power of s, its hyperplane-design
    source; the 2-design families are built from the 7-point plane only.
    A gdd or partition within its size guard is held to the verification
    cap before it is built, since its blocks or points are fewer than its
    vertices.
    """
    match spec:
        case Gdd(l=l, q=q):
            if not _power_exceeds(q, l, DEFAULT_BLOCK_BUDGET):
                _check_cap(spec)
            return build_gdd(l, q)
        case PgAntiflag():
            raise UnbuildableError("no generic partial-geometry construction; "
                                   "use ap-pencils or transversal")
        case ApPencils(q=q, l=l) | Transversal(q=q, l=l):
            if l > q + 1:
                raise UnbuildableError(f"the affine plane of order {q} has only "
                                       f"{q + 1} parallel classes, asked for {l}")
            return restrict_parallel_classes(build_affine_plane(q), l)
        case Partition(q=q, l=l):
            if q * l <= DEFAULT_BLOCK_BUDGET:
                _check_cap(spec)
            return build_partition_structure(q, l)
        case AffineResolvable(m=m, s=s, l=l):
            e = _power_exponent(m, s)
            if e is None:
                raise UnbuildableError(f"intersection {m} is not a power of {s}; "
                                       "no hyperplane-design source")
            design = build_hyperplane_design(s, e + 2)
            if l > len(design.parallel_classes):
                raise UnbuildableError(f"design has {len(design.parallel_classes)} "
                                       f"parallel classes, asked for {l}")
            return restrict_parallel_classes(design, l)
        case TwoDesignBack():
            if astuple(spec) != FANO_DESIGN_TUPLE:
                raise UnbuildableError("only the 7-point plane is bundled "
                                       "as a 2-design source")
            return build_fano()
    raise TypeError(f"unknown family spec {spec!r}")


def build_digraph(spec: FamilySpec) -> Digraph:
    """Construct the family instance, or raise UnbuildableError.

    The structure's size guards are checked first; a graph above the
    verification cap raises TooLargeError before any arc is wired.
    """
    return _wire_spec(spec, build_structure(spec))


def _check_cap(spec: FamilySpec) -> None:
    """TooLargeError if spec's graph has more vertices than the verification cap."""
    v = expected_params(spec).v
    if v > MAX_VERIFY_ORDER:
        raise TooLargeError(f"{spec.name} {spec.describe()} has {v} vertices, "
                            f"above the verification cap {MAX_VERIFY_ORDER}")


def _wire_spec(spec: FamilySpec, structure: IncidenceStructure) -> Digraph:
    """The graph of spec on build_structure(spec)'s output, TooLargeError first."""
    _check_cap(spec)
    match spec:
        case Gdd(m=m):
            d = build_antiflag_forward(structure)
            return d if m == 1 else duval_multiple(d, m)
        case PartitionSpiked():
            return build_partition_spiked(structure)
        case TwoDesignBackLoopy():
            return build_antiflag_backward_loopy(structure)
        case TwoDesignBack():
            return build_antiflag_backward(structure)
        case _:
            return build_antiflag_forward(structure)


def _is_prime_power(q: int) -> bool:
    try:
        _factor_prime_power(q)
        return True
    except NotPrimePowerError:
        return False


def catalog_instances(max_order: int) -> list[tuple[FamilySpec, bool]]:
    """Deterministic instance grid; the bool marks formula-only rows.  Orders
    grow along every axis, so a line of specs ends at its first spec with
    more than max_order vertices, and a grid of lines at its first empty line."""
    def fits(spec: FamilySpec) -> bool:
        return expected_params(spec).v <= max_order

    def grid(line) -> list[FamilySpec]:
        fitting = (list(takewhile(fits, line(q))) for q in count(2))
        return list(chain.from_iterable(takewhile(bool, fitting)))

    # the affine plane of order 2 has only 3 pencils; the closed
    # form still evaluates for l up to 8, so those go formula-only
    pencils = grid(lambda q: (ApPencils(q, l) for l in range(2, 9 if q == 2 else q + 2)))
    cells = [*(cls(q, l) for q in (1, 2, 3) for l in (3, 4) for cls in (Partition, PartitionSpiked)),
             *(AffineResolvable(2, 2, l) for l in range(2, 8)),
             TwoDesignBack(*FANO_DESIGN_TUPLE), TwoDesignBackLoopy(*FANO_DESIGN_TUPLE)]
    return ([(spec, False) for spec in grid(lambda q: (Gdd(l, q) for l in count(2)))]
            + [(spec, spec.l > spec.q + 1) for spec in pencils if _is_prime_power(spec.q)]
            + [(spec, False) for spec in takewhile(fits, map(Transversal, count(2)))
               if _is_prime_power(spec.q)]
            + [(spec, False) for spec in cells if fits(spec)])
