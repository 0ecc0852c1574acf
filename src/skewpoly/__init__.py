"""Exact skew polynomial arithmetic over concrete division rings.

The package implements iterated (commuting-variable) skew polynomial
rings over the rationals, the rational function field Q(x) and the rational
quaternions, together with evaluation homomorphisms at automorphic tuples,
a Combinatorial Nullstellensatz witness search, and the constructive
monicization / Noether-normalization steps.
"""

from .errors import (
    ArityMismatch,
    BoundViolated,
    CertificateFailed,
    ConfigError,
    DivisionByZero,
    ExhaustedCandidates,
    IncompatibleMaps,
    NoWitnessFound,
    NotARoot,
    NotAWitness,
    NotInF,
    ParseError,
    RingMismatch,
    SearchExhausted,
    SkewError,
    TwistMismatch,
    UnknownScalarLiteral,
    UnknownVariable,
    UnsupportedRing,
    VariantMismatch,
    ZeroPolynomial,
)
from .scalars import (
    DOMAINS,
    HQ,
    Q,
    QX,
    Quaternion,
    Rational,
    RationalFunction,
    Scalar,
    are_conjugate,
)
from .maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DdxDer,
    IdentityAut,
    InnerAut,
    InnerDer,
    LinComb,
    QDiffDer,
    QShiftAut,
    RingMap,
    ZeroDer,
    central_fixed_stream,
    in_fixed_subfield,
    inner_aut,
    lin_comb,
    q_shift,
    zero_der,
)
from .ore import (
    OreRing,
    SkewPoly,
    Variable,
    evaluation_context,
    reinterpret,
)
from .evaluation import (
    AutomorphicTuple,
    certify_tuple,
    evaluate,
    mix_derivations,
    mix_elements,
)
from .nullstellensatz import (
    EvaluationSet,
    cns_witness,
    formal_substitute,
    gordon_motzkin_check,
    make_evaluation_set,
    validate_sets,
)
from .normalize import (
    MonicRelation,
    NormalizationResult,
    NormalizationStep,
    Substitution,
    divmod_by_monic,
    find_nonvanishing_point,
    monicize,
    normalize,
    normalize_step,
)
from .parser import parse_expr, parse_scalar
from .config import load_ring, ring_from_data, ring_to_data

__version__ = "0.1.0"
