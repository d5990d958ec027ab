"""Boolean algebra of patterns with order-independent matching semantics.

The package covers the full pipeline: matching as complete derivation sets
(`syntax`), linearity/determinism and wellformedness (`wellformed`), a small
term language with default clauses and definition calls, with one
reduction rule that the step relation and the evaluation machine share
(`semantics`), optional typing (`typecheck`), normalization to
a normalized disjunctive form (`normalize`), overlap deciding (`overlap`),
compilation to decision trees (`compiler`), exhaustiveness checking
(`exhaustiveness`), and brute-force oracles with property suites
(`oracle`, `suites`).  Overlap and exhaustiveness ask one question of the
source patterns, whether some value matches a boolean combination of them,
and read the answer off one reduced decision diagram over occurrences
(`diagram`), so neither `patc check` nor the compiler normalizes:
only `patc norm` and the worked matrix definitions (`embed_case`,
`wf_matrix`) do.  One pass over a pattern gives its linearity and
determinism (`pattern_facts`), and a case's overlapping clauses are found
by splitting them on their heads (`overlapping_pairs`).
Values are expressions: `Value` is the one node for ground data, matched
by patterns and produced by evaluation.  The `patc` command line fronts
it.
"""

from .syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Mapping,
    Neg,
    Or,
    Pattern,
    SoundnessError,
    Value,
    Var,
    Wild,
    fv_even,
    fv_odd,
    is_proper,
    map_vars,
    match_neg,
    match_pos,
    pattern_equiv_bounded,
    subst_equiv,
)
from .normalize import Ndnf, NegConj, PosConj, dnf, nnf, to_ndnf
from .overlap import decide, disjoint
from .wellformed import (
    PatternFacts,
    WfReport,
    deterministic,
    linear_neg,
    linear_pos,
    pattern_facts,
    wf_expr,
    wf_matrix,
)
from .semantics import (
    Call,
    Clause,
    ECase,
    ECtor,
    EVar,
    contract,
    eval,
    expr_equiv_bounded,
    step,
)
from .typecheck import DataDecls, Named, type_expr, type_pattern
from .compiler import (
    ClauseMatrix,
    CompileError,
    DecisionTree,
    Leaf,
    MatrixRow,
    Switch,
    compile_case,
    default_matrix,
    default_rows,
    embed_case,
    eval_tree,
    head_ctors,
    specialize,
    specialize_each,
)
from .exhaustiveness import exhaustive, overlapping_pairs, useful_witness
from ._lazy import ORACLE_NAMES as _ORACLE, __getattr__

__all__ = [name for name in dir() if not name.startswith("_")] + list(_ORACLE)
