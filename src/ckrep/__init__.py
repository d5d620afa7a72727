"""Permutative representations of Cuntz-Krieger algebras.

Word calculus over a 0/1 transition matrix, branching function systems
with honest finite truncations, matrix realizations with exact phases,
and classification/decomposition of the cyclic representation classes.

The package imports its submodules on first use (PEP 562): `import ckrep`
loads none of them, and `ckrep.<name>` loads only the module that defines
the name.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("branching", "cli", "cycles", "phases", "readback", "realization", "reps", "words")

_EXPORTS = {
    "branching": """BranchingError BranchingSystem ComponentSkeleton MatrixMismatchError
        ValidationReport Violation build_chain_system build_cycle_system direct_sum dump_bfs
        find_components load_bfs shift_bfs standard_bfs truncated_from_rules validate_bfs""",
    "cycles": "ACycleSet PSpecSummary a_cycle_set phi_map",
    "phases": "ONE Phase PhaseError RootSum phases_equal",
    "readback": "decomposition_from_json",
    "realization": "GPReport MatrixRealization realize state_value",
    "reps": """Decomposition FiniteClass INFINITY IntegralClass OpaqueTailClass RepClass RepError
        TailClass class_literal cross_check_standard decompose decompose_shift
        decompose_standard decomposition_json equivalent expand_irreducible finite_class
        gp_vector_check integral_class is_irreducible parse_class_literal tail_class
        twist_by_gauge""",
    "words": """CkError TailWord TransitionMatrix Word WordError canonical_rotation
        enumerate_cyclic_classes format_tail format_word is_admissible is_cyclically_admissible
        is_periodic parse_tail parse_word power primitive_root pspec_summary tail_canonical
        validate_matrix words_equivalent_infinite""",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})
