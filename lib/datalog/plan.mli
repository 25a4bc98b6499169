(** Compiled rule plans: the join kernel's fast path.

    A rule body is compiled once per delta-focus position into an
    ordered array of ops over a slot-numbered environment (a fixed
    [Term.t array] replacing the string-keyed substitution maps of the
    interpreted path). Compilation runs the same greedy literal
    ordering as {!Eval.solve_body} — evaluability and scores are
    identical, so compiled and interpreted evaluation visit literals in
    the same order — but pays it once per (rule, focus) instead of once
    per fixpoint round. Positive literals become indexed lookups with
    precomputed key extractors against the signature indexes of
    {!Relation}; comparisons, negations, assignments and aggregates
    become residual filter/bind steps.

    Plans are cached globally, keyed by (rule, focus).
    This is the only production join kernel; the interpreted naive
    evaluator ({!Naive}) is the reference oracle it is tested against
    (see [test/test_differential.ml]). *)

type t
(** A compiled plan for one rule and one optional focus position. *)

val compile : Logic.Rule.t -> focus:int option -> t
(** Compile without consulting the cache. Raises [Invalid_argument] if
    the body is not range-restricted (same condition as
    {!Eval.solve_body}, detected at compile time). *)

val lookup : ?stats:Eval.stats -> Logic.Rule.t -> focus:int option -> t
(** Cached compile. Increments [stats.plan_cache_hits] on a hit. *)

val streamable : t -> bool
(** Whether {!run_stream}'s [emit] may insert into the plan's head
    relation while the plan executes: true unless the plan full-scans
    its own head predicate (mutating a hash table under iteration) or
    contains an aggregate (whose subquery re-enters the interpreter
    over the database). Keyed scans and delta scans iterate immutable
    snapshots, so they tolerate concurrent insertion. *)

val parallel_safe : t -> bool
(** Whether the plan may execute concurrently on several domains
    against a fixed database: true unless it contains an aggregate
    (whose subquery re-enters the interpreter, which builds indexes
    lazily). Probed-index warm-up is handled separately by {!warm}. *)

val reads_own_head : t -> bool
(** Whether a non-focus scan of the plan reads its own head predicate.
    {!Seminaive} buffers such plans instead of streaming them, so that
    one execution's emissions are never visible to its own probes —
    the property that makes partitioned-parallel execution
    ({!Parexec}) bit-identical to sequential execution. *)

val warm : db:Database.t -> t -> unit
(** Build and catch up every index the plan probes
    ({!Relation.warm_exact}), so concurrent executions of the plan are
    read-only on [db]. Call on the coordinating domain before handing
    the plan to workers. *)

val partition_column : t -> int option
(** The delta-scan column to hash-partition delta rows by — the first
    column the scan binds. [None] when the plan has no delta scan or
    the scan binds nothing (the caller falls back to whole-row
    hashing). *)

val run_stream :
  ?stats:Eval.stats ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  ?delta_rows:Tuple.Packed.t list ->
  t ->
  emit:(Tuple.Packed.t -> unit) ->
  int
(** Like {!run_rows} but hands each packed row to [emit] as it is
    derived (returning the suppression count), so a caller cleared by
    {!streamable} can absorb rows without buffering them first. *)

val run_rows :
  ?stats:Eval.stats ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  ?delta_rows:Tuple.Packed.t list ->
  t ->
  Tuple.Packed.t list * int
(** Execute a plan: every derivable head instance, as a packed row that
    reuses the intern ids already tracked by the executor, so absorbing
    a row into a relation re-interns nothing. The skolem depth guard
    applies before packing: heads deeper than [max_term_depth] are
    counted in the returned suppression count, not interned, not
    returned. [delta_rows] feeds the focus scan of a plan compiled with
    a focus; {!Seminaive} keeps each round's delta as per-predicate row
    lists, already deduplicated by their insertion into the model. A
    focus plan run without rows, or with none, returns before running
    any op; a plan without focus ignores [delta_rows]. *)

val cache_size : unit -> int
val clear_cache : unit -> unit
