"""Sparse calculus of stable word permutations.

The package provides finitely-supported permutations of arity-m words over
{1..n} with tensor and identity-padding operations, the layered flow psi,
stability certificates, a closed-form classifier for transpositions of
three-letter words with per-case witness points, an exhaustive verifier, and
a command-line front end.
"""

from .perm_core import (
    DEFAULT_SUPPORT_BUDGET,
    BudgetExceededError,
    ParseError,
    TuplePerm,
    Word,
    all_words,
    check_word,
    format_word,
    lex_rank,
    lex_unrank,
    parse_cycles,
    parse_word,
    relabel_word,
)
from .psi_flow import psi_apply, psi_levels, psi_materialize
from .stability import (
    DEFAULT_H_MAX,
    StabilityVerdict,
    definitional_prefix_check,
    exact_rank_for_stable,
    rank_one_check,
    search_with_exact_rank,
    stability_search,
)
from .transposition3 import (
    Branch,
    CaseTag,
    Classification,
    Transposition3,
    Witness,
    WitnessReport,
    WitnessResult,
    classification_to_json,
    classify,
    reverse,
    witness_points,
    witness_report,
)
from .verify import (
    InstanceResult,
    VerificationReport,
    emit_report,
    enumerate_transpositions,
    verify_theorem,
)

__version__ = "0.1.0"
