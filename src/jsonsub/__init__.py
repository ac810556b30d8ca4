"""Decision procedure for inclusion between JSON Schema documents.

The package answers "is every instance of schema A also an instance of
schema B" for a Draft-06 subset, by refuting the conjunction of A with
the negation of B.  When refutation alone cannot settle the question, a
bottom-up generator either produces a concrete counterexample or proves
that none exists.
"""

from .compat import parse_schema
from .engine import (
    EquivalenceResult,
    InclusionResult,
    OracleOutcome,
    UniverseParams,
    check_equivalence,
    check_equivalence_terms,
    check_inclusion,
    check_inclusion_terms,
    compile_validator,
    derive_universe,
    iter_universe,
    load_document,
    oracle_included,
    satisfies,
    satisfies_value,
)
from .errors import (
    BudgetExceeded,
    JsonSubError,
    MalformedSchema,
    UnresolvableRef,
    UnsupportedFeature,
    UnsupportedKeyword,
    UnsupportedRegexFeature,
    UniverseTooLarge,
)
from .norm import DEFAULT_MAX_STEPS, DEFAULT_TIMEOUT, Stats
from .values import dump_json, parse_json

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_TIMEOUT",
    "EquivalenceResult",
    "InclusionResult",
    "JsonSubError",
    "MalformedSchema",
    "OracleOutcome",
    "Stats",
    "UniverseParams",
    "UnresolvableRef",
    "UnsupportedFeature",
    "UnsupportedKeyword",
    "UnsupportedRegexFeature",
    "UniverseTooLarge",
    "check_equivalence",
    "check_equivalence_terms",
    "check_inclusion",
    "check_inclusion_terms",
    "compile_validator",
    "derive_universe",
    "dump_json",
    "iter_universe",
    "load_document",
    "oracle_included",
    "parse_json",
    "parse_schema",
    "satisfies",
    "satisfies_value",
]
