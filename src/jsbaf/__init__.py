"""Structured argumentation over joint-support bipolar argumentation frameworks.

The package builds arguments from strict and defeasible rules over a
propositional base logic, translates them into frameworks whose supports
record strict-rule applications, computes admissible, preferred and
grounded labelings, and checks the rationality postulates (closure,
direct and indirect consistency, non-interference) on concrete and
randomly generated instances.
"""

from .arguments import (
    Argument,
    BuildResult,
    ad_sub,
    build_arguments,
    c_sub,
    def_rules,
    defeats,
    ewl_leq,
    framework_from_system,
    gen_rebuts,
    is_strict,
    preferred_conclusions,
    sub_args,
    undercuts,
)
from .errors import (
    EvaluationError,
    InstanceError,
    JsbafError,
    ParseError,
    ResourceLimitError,
)
from .formulas import (
    And,
    Formula,
    Not,
    Var,
    atoms,
    big_conj,
    entails,
    format_formula,
    is_neg_complement,
    parse_formula,
    satisfiable,
    satisfies,
    syn_disjoint,
)
from .framework import (
    IN,
    OUT,
    UNDEC,
    Jsbaf,
    Labeling,
    enumerate_admissible,
    enumerate_preferred,
    is_admissible,
    legally_in,
    legally_out,
    legally_undec,
    sim_labeling,
    strict_args,
    validate_jsbaf,
)
from .grounded import from_jsbaf, grounded_construction, grounded_labeling
from .postulates import (
    PostulateReport,
    check_closure,
    check_direct_consistency,
    check_indirect_consistency,
    check_non_interference,
    cl_closure,
    non_triviality_witness,
    restrict_conclusions,
)
from .system import (
    ArgumentationSystem,
    DefeasibleRule,
    StrictRule,
    atoms_of_system,
    make_system,
    systems_syn_disjoint,
    union_systems,
    validate_system,
)

__version__ = "0.1.0"
