"""Directed strongly regular graphs from anti-flags of finite incidence
structures: exact constructions, verification, spectra, and isomorphism."""

from .errors import (
    BadClassCountError,
    DegenerateError,
    DsrgError,
    FormatError,
    NoAntiFlagsError,
    NoParallelClassesError,
    NonConstantError,
    NotDsrgError,
    NotFeasibleError,
    NotGroupDivisibleError,
    NotPartialGeometryError,
    NotPartitionStructureError,
    NotPrimePowerError,
    NotRegularError,
    NotTwoDesignError,
    OutOfBudgetError,
    PreconditionFailedError,
    SizeMismatchError,
    TNotMuError,
    TooLargeError,
    UnbuildableError,
)
from .ffield import FiniteField, make_field
from .incidence import (
    AntiFlag,
    DEFAULT_BLOCK_BUDGET,
    DesignParams,
    GddParams,
    IncidenceStructure,
    PgParams,
    anti_flags,
    build_affine_plane,
    build_fano,
    build_gdd,
    build_hyperplane_design,
    build_partition_structure,
    dual,
    duality_mapping,
    from_json,
    restrict_parallel_classes,
    to_json,
    verify_2design,
    verify_gdd,
    verify_pg,
)
from .params import (
    DsrgParams,
    FeasibilityCheck,
    FeasibilityReport,
    Spectrum,
    feasibility,
    spectrum,
)
from .digraph import (
    Digraph,
    build_antiflag_backward,
    build_antiflag_backward_loopy,
    build_antiflag_forward,
    build_partition_spiked,
    duval_multiple,
    verify_dsrg,
)
from .families import (
    AffineResolvable,
    ApPencils,
    FamilySpec,
    Gdd,
    Partition,
    PartitionSpiked,
    PgAntiflag,
    Transversal,
    TwoDesignBack,
    TwoDesignBackLoopy,
    build_digraph,
    expected_params,
)
from .iso import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    ISOMORPHIC,
    NOT_ISOMORPHIC,
    IsoResult,
    apply_mapping,
    are_isomorphic,
    canonical_form,
    verify_mapping,
)
from .fixtures import bundled_iso_fixture, grid_two_pencil_structure, k33_edge_structure

__version__ = "0.1.0"
