"""Boolean algebra of patterns with order-independent matching semantics.

The package covers the full pipeline: matching as complete derivation sets
(`syntax`), linearity/determinism and wellformedness (`wellformed`), a small
term language with default clauses and definition calls and its one
interpreter (`semantics`), optional typing (`typecheck`), normalization to
a normalized disjunctive form (`normalize`), overlap deciding (`overlap`),
compilation to decision trees (`compiler`), exhaustiveness checking
(`exhaustiveness`), and brute-force oracles with property suites
(`oracle`, `suites`).  Compilation and exhaustiveness share one matrix
core: `specialize_rows`, `default_rows` and `column_heads` over
`MatrixRow`s.  The `patc` command line fronts it.
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
from .normalize import Ndnf, NegConj, PosConj, UnsatConj, dnf, nnf, to_ndnf
from .overlap import decide, disjoint
from .wellformed import WfReport, deterministic, linear_neg, linear_pos, wf_expr, wf_matrix
from .semantics import (
    Call,
    Clause,
    ECase,
    ECtor,
    EVar,
    apply_subst,
    eval,
    expr_equiv_bounded,
    step,
)
from .typecheck import Bool, DataDecls, Named, Pair, Sum, type_expr, type_pattern
from .compiler import (
    ClauseMatrix,
    CompileError,
    DecisionTree,
    FreshSupply,
    Leaf,
    MatrixRow,
    Switch,
    column_heads,
    compile,
    compile_case,
    default_matrix,
    default_rows,
    embed_case,
    eval_tree,
    head_ctors,
    specialize,
    specialize_rows,
    step_matrix,
)
from .exhaustiveness import exhaustive, useful
from .oracle import differential_compile_check, enumerate_values, gen_pattern

__all__ = [name for name in dir() if not name.startswith("_")]
