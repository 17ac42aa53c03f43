(** EXPLAIN for compiled {!Algebra} plans: render an operator tree with
    cold (structure, arity, stored cardinalities) and hot (measured row
    flow and wall time from an {!Algebra.profile}) annotations.

    Cold, a node line shows the operator, its own argument (join keys,
    projection columns, selection condition, scanned relation), the
    output arity when the instance's schema determines it, and for base
    scans the stored cardinality:

    {v
    project[1] arity=1
      join[1=0] arity=4
        scan[magic_T__bf] arity=1 rows=1
        scan[G] arity=2 rows=3
    v}

    Hot — after evaluating the plan under a profile — each executed
    node additionally reports [rows_out]/[rows_in] (summed across
    executions), [execs], the out/in selectivity, and self/total wall
    milliseconds. Operators the evaluator fuses away (projections run
    inside a join's probe loop, complements probed against a join's
    dedup set) carry no measurements of their own: their work is
    reported in the fusing parent's self time
    (see {!Algebra.profile}). Every join, semijoin and antijoin that
    ran a hash join — fused or not — ends with [memo=M/N]: [M] of its
    [N] executions probed a memoized index of a stored relation
    (see {!Algebra.profile_memo}). *)

(** [text ?inst ?profile e] is the annotated tree, one node per line,
    children indented two spaces, in operand order. *)
val text : ?inst:Instance.t -> ?profile:Algebra.profile -> Algebra.expr -> string

(** [json ?inst ?profile e] is the same tree as JSON: per node ["op"],
    optional ["detail"], ["arity"], ["rows"] (stored cardinality, scans
    only), ["profile"] ([execs], [rows_in], [rows_out], [self_ns],
    [total_ns], optional [selectivity]), ["memo"] ([runs], [memo_runs];
    hash-join nodes only), and ["children"]. *)
val json :
  ?inst:Instance.t -> ?profile:Algebra.profile -> Algebra.expr ->
  Observe.Json.t
