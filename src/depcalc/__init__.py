"""depcalc: a dependence calculus on finite posets.

Recognize and decompose series-parallel (expressible) posets, derive and
check duoidal structure maps between them, compose posets operadically and
reconstruct arbitrary posets as intersections of expressible covers, evaluate
tropical critical-path schedules, multiply finite polynomial functors, and
decorate layered string diagrams over any dependence algebra.
"""

from .errors import (
    ArityError,
    CycleError,
    DepcalcError,
    InvalidDiagram,
    InvalidExtension,
    InvalidPaths,
    MalformedExpression,
    MissingAssignment,
    NotExpressible,
    NotInclusion,
    PreconditionError,
    SizeError,
    SizeMismatch,
)
from .expression import (
    Expression,
    Otimes,
    Tri,
    UNIT,
    Unit,
    Var,
    evaluate,
    format_expression,
    normalize,
    ox,
    parse_expression,
    tri,
)
from .expressible import ZIGZAG, Obstruction, decompose, find_z, is_expressible
from .operad import (
    act,
    expressible_covers,
    incomparability_witness,
    intersect,
    mu,
    terminal_cover_factorization,
    unit,
)
from .poset import (
    FinitePoset,
    antichain,
    chain,
    connected_components,
    disjoint_union,
    empty,
    enumerate_posets,
    from_pairs,
    induced,
    is_inclusion,
    join,
    linear_extension,
    linear_extensions,
    singleton,
    substitute,
    transitive_reduction,
)
from .polynomial import (
    FinitePolynomial,
    PolyMorphism,
    PolySignature,
    boxtimes_poly,
    comparitor,
    compose,
    dirichlet,
    interchanger,
    is_valid_morphism,
    poly,
    signature,
)
from .structure_maps import (
    Compose,
    Equiv,
    InterchangerSubst,
    OtimesPar,
    Proof,
    TriPar,
    derive_structure_map,
    format_proof,
    proof_source,
    proof_target,
    verify_proof,
)
from .tropical import Runtime, Schedule, as_runtime, boxtimes, check_interchange, schedule
from .diagram import (
    Decoration,
    GenCell,
    GenInstance,
    IdCell,
    LawCheck,
    PartialPolygraph,
    PolynomialAlgebra,
    StageFailure,
    StringDiagram,
    SwapCell,
    TropicalAlgebra,
    check_decoration_laws,
    compose_diagrams,
    decorate,
    diagram_realizing,
    edge_poset,
    layout_dag,
    make_polygraph,
    path_decoration,
    tensor_diagrams,
    total_polygraph,
    validate_diagram,
)

__version__ = "0.1.0"
