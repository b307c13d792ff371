"""Exact continuous-logic toolkit for finite metric structures.

Core pipeline: exact rational arithmetic -> moduli of uniform continuity
and their envelopes -> a formula DSL with canonical moduli -> finite
validated structures -> exact evaluation -> a countable dense family of
modulus-respecting basic formulas -> back-and-forth pseudo-distances,
Scott rank, and the threshold fixpoint operator.
"""

from .evaluation import Evaluator
from .family import (
    ApproximationResult,
    FamilyEnumerator,
    enumerate_family,
    family_stack,
    lattice_approximate,
    respects_weak_modulus,
)
from .moduli import (
    CappedLinear,
    Compose,
    EnvelopeTable,
    Linear,
    MaxOf,
    Modulus,
    ModulusWindowError,
    PiecewiseConcave,
    PolyhedralMax,
    SumWeakModulus,
    Zero,
    check_modulus,
    induced_connective_modulus,
    induced_modulus_exact,
    largest_modulus_below,
    linear_upper_row,
    pi_fold,
    weak_modulus,
)
from .parser import (
    ParseError,
    parse_formula,
    parse_modulus,
    parse_term,
    print_formula,
    print_modulus,
    print_term,
)
from .rationals import RatGrid, format_rational, parse_rational
from .scott import BFEngine, EngineConfig, EquivalenceReport, FixpointTrace, RankReport
from .segments import SegmentConnective, make_segment, segment_norm_bound
from .structures import (
    PreStructure,
    StructureFormatError,
    StructureInvalid,
    Violation,
    automorphisms,
    dump_structure,
    load_structure,
    loads_structure,
    validate,
)
from .syntax import (
    Atomic,
    ConstF,
    Formula,
    Inf,
    MaxF,
    MinF,
    PwlF,
    SegF,
    Signature,
    Sup,
    basic_atomics,
    canonical_modulus,
    formula_free_vars,
    is_basic,
)

__version__ = "0.1.0"
