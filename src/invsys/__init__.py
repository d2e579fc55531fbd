"""Exact computation in inverse systems of free Z/m-modules built from level trees.

The library models coherent families over the tree-indexed system whose
level-i module is freely generated by pairs ``(node at level i, l > i)`` and
whose connecting maps send ``(eta, l)`` at level j to
``(eta|i, l) - (eta|i, j)``.  It decides equivalence modulo coboundaries by a
certified branch-peeling decomposition and cross-checks every evaluation with
an independent matrix oracle at finite truncation.
"""

from .coherent import (
    Coboundary,
    Planted,
    branch_generator,
    check_coherence,
    check_eq_recurrences,
    coboundary,
    default_horizon,
    normalize_cobounded,
    planted,
    restriction_stability,
    zero_element,
)
from .decomp import (
    Decomposition,
    EquivalenceWitness,
    decompose,
    equiv_decide,
    extract_branch,
    quotient_card_report,
    refine_nonzero,
    support_bound,
    witness_equivalence,
)
from .freemod import ModuleElement, apply_hom, generator, module_element
from .ring import Ring, RingElem
from .system import SchemaError, System
from .tree import (
    COUNTABLY_INFINITE,
    Branch,
    DecreasingSeqTree,
    DisjointBranchesTree,
    FiniteSupportTree,
    NoBranchError,
    Node,
    Tree,
)

__all__ = [
    "Branch",
    "Coboundary",
    "COUNTABLY_INFINITE",
    "DecreasingSeqTree",
    "Decomposition",
    "DisjointBranchesTree",
    "EquivalenceWitness",
    "FiniteSupportTree",
    "FULL",
    "IndexSet",
    "ModuleElement",
    "NoBranchError",
    "Node",
    "Planted",
    "Ring",
    "RingElem",
    "SchemaError",
    "System",
    "TailSet",
    "Tree",
    "TruncatedSystem",
    "apply_hom",
    "below",
    "branch_generator",
    "check_coherence",
    "check_eq_recurrences",
    "coboundary",
    "decompose",
    "default_horizon",
    "equiv_decide",
    "extract_branch",
    "generator",
    "ind_omega",
    "index_set",
    "module_element",
    "normalize_cobounded",
    "planted",
    "quotient_card_report",
    "refine_nonzero",
    "restriction_stability",
    "singleton",
    "support_bound",
    "tail",
    "tailset",
    "truncate",
    "universe_for",
    "witness_equivalence",
    "zero_element",
]

# Names resolved on first access (PEP 562), so that importing the package or
# its symbolic commands does not import the oracle or the index sets, which
# they never use.
_ORACLE_NAMES = frozenset({"TruncatedSystem", "truncate", "universe_for"})
_INDEXSET_NAMES = frozenset({"FULL", "IndexSet", "TailSet", "below", "ind_omega",
                             "index_set", "singleton", "tail", "tailset"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle as module
    elif name in _INDEXSET_NAMES:
        from . import indexset as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES, *_INDEXSET_NAMES})
