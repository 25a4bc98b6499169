(** Engine facade: stratified materialization by compiled semi-naive
    evaluation, automatic fallback to the well-founded semantics,
    incremental maintenance, durability, and conjunctive querying of
    materialized databases.

    This is the single deductive engine the mediator architecture calls
    for ("the mediator needs only a single GCM engine", Section 2). It
    has one bottom-up evaluator ({!Seminaive} over compiled {!Plan}s);
    the naive interpreter {!Naive} is the reference oracle the tests
    check it against, and no production path calls it. *)

type durability = {
  fs : Codec.fs;  (** where checkpoint and WAL live (see {!Codec.real_fs}) *)
  wal_max_bytes : int;
      (** rotation threshold: after a maintenance batch pushes the WAL
          past this size, the maintained state is checkpointed and the
          log compacted to a bare header *)
}
(** Durability configuration: a checkpoint file plus a write-ahead log
    of maintenance batches, both under one {!Codec.fs}. See DESIGN.md
    §14 for the atomicity argument. *)

val durability : ?wal_max_bytes:int -> dir:string -> unit -> durability
(** Durability rooted at directory [dir] (created on demand).
    [wal_max_bytes] defaults to 1_000_000. *)

val checkpoint_file : string
(** ["checkpoint.kind"] — path of the snapshot, relative to the
    durability [fs] root. *)

val wal_file : string
(** ["wal.kind"] — path of the write-ahead log, relative to the
    durability [fs] root. *)

type config = {
  max_term_depth : int;
      (** skolem guard: derived facts containing terms nested deeper
          than this are suppressed (domain-map assertions create
          placeholder objects [f_{C,r,D}(x)]; the bound keeps chained
          assertions terminating) *)
  max_rounds : int;
  domains : int;
      (** domains for parallel evaluation: [0] (the default) reads
          [KIND_DOMAINS] from the environment (see {!Pool.env_domains}),
          [1] forces sequential evaluation, [n > 1] evaluates delta
          batches on a shared [n]-lane domain pool. Parallel and
          sequential evaluation produce identical databases and
          identical report counters (see DESIGN.md §13); only
          [domains_used] / [parallel_batches] differ. *)
  durability : durability option;
      (** when set, {!materialize} writes a checkpoint of the stratified
          result (and compacts the WAL), {!maintain} appends each batch
          to the WAL {e before} applying it (fsync'd — crash recovery
          lands on exactly the pre- or post-batch database), and
          {!recover} rebuilds the materialization from checkpoint +
          log suffix. [None] (the default) falls back to the
          [KIND_DURABLE_DIR] environment variable, read once; unset
          means durability off. The well-founded fallback path never
          checkpoints (snapshots encode two-valued databases only). *)
}

val default_config : config

exception Undefined_atoms of int
(** Raised by {!materialize} when the well-founded fallback leaves atoms
    undefined: a materialized database cannot represent three-valued
    results — use {!Wellfounded.compute} directly for those programs. *)

type report = {
  stratified : bool;
  strata : int;
  rounds : int;
  derived : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
      (** join steps answered by probing a signature index rather than
          scanning the extent *)
  plan_cache_hits : int;
      (** compiled-plan lookups answered from the global plan cache *)
  strata_skipped : int;
      (** maintenance only: strata left untouched because no dependency
          changed extent (0 for a full materialization) *)
  delta_facts : int;
      (** maintenance only: net facts added + removed by the delta *)
  domains_used : int;
      (** lanes of the domain pool engaged for this evaluation (1 =
          sequential) *)
  parallel_batches : int;
      (** delta batches fanned out across the pool (0 = everything ran
          sequentially, e.g. deltas below the {!Parexec.min_rows}
          threshold) *)
  checkpoint_ms : float;
      (** wall time spent writing a checkpoint this call (0.0 when
          durability is off or nothing was checkpointed) *)
  recovery_ms : float;
      (** {!recover} only: wall time for snapshot read + WAL replay *)
  wal_bytes : int;
      (** size of the write-ahead log after this call (0 when
          durability is off) *)
}

val empty_report : report

val materialize :
  ?config:config -> ?report:report ref -> Program.t -> Database.t -> Database.t
(** [materialize p edb] computes the least (or well-founded) model of
    [p] over [edb] and returns it as a fresh database containing EDB and
    IDB facts. [edb] is not mutated. Ground facts contained in [p]
    itself are added first. *)

val maintain :
  ?config:config ->
  ?report:report ref ->
  Program.t ->
  Database.t ->
  Maintain.delta ->
  (Maintain.report, string) result
(** Incremental view maintenance: absorb a batch of EDB insertions and
    deletions into an already-materialized stratified database,
    re-evaluating only the strata whose dependencies changed (see
    {!Maintain}): deltas propagate through stratified negation, and a
    stratum aggregating over a changed predicate is rebuilt from the
    maintained strata below it. The database is mutated.
    [Error] if the program is unstratified or a delta fact is
    non-ground. For repeated deltas keep a {!Maintain.t} handle
    instead — this entry point re-adopts the database on every call.

    With durability configured, the batch is appended to the WAL and
    fsync'd {e before} it is applied (write-ahead), and the log is
    rotated into a fresh checkpoint once it exceeds
    [durability.wal_max_bytes]. *)

val recover :
  ?config:config ->
  ?report:report ref ->
  Program.t ->
  (Database.t option, string) result
(** Rebuild the materialization of [p] from the configured durability
    directory: read the checkpoint, then replay the WAL suffix through
    incremental maintenance (cost proportional to the log, not the
    database). [Ok None] when no checkpoint exists (cold-start — call
    {!materialize}). A torn WAL tail is dropped: by the write-ahead
    ordering it belongs to a batch that was never applied. [Error] if
    no durability is configured, a file is unreadable mid-stream, or
    [p] no longer stratifies over the snapshot. The report's
    [recovery_ms] / [wal_bytes] fields are filled; [strata] / [rounds] /
    [derived] echo the checkpoint's saved counters. *)

val query :
  ?stats:Eval.stats -> Database.t -> Logic.Literal.t list -> Logic.Subst.t list
(** Solve a conjunctive query (with negation-as-absence, comparisons and
    aggregates) against a materialized database: every substitution,
    restricted to the variables the body binds, that satisfies it.

    The path follows the body's shape. A body of one literal is an
    index lookup, and runs on {!Eval.solve_body}: there the
    interpreter is faster than compiling a plan (on the scale-12
    default neuro federation, [?- X : purkinje_cell.] takes about
    24 µs interpreted against 39 µs through a plan). A body of two or
    more literals is compiled with {!Plan.compile} into a plan whose
    head is the variables the body binds, and its distinct head rows
    become the answers; on the same federation the benchmark's
    multi-literal reads run 2–12x faster (315 → 35 µs on the spine
    diameter read) and allocate up to ten times less. Both paths use
    the same greedy literal order and return the same set of
    substitutions. A body that is not range-restricted raises
    [Invalid_argument] on either path; the plan path raises at compile
    time, before reading any fact. *)

val answers : Database.t -> Logic.Atom.t -> Tuple.t list
(** Instances of an atom pattern in the database, as bound argument
    tuples. *)

val holds : Database.t -> Logic.Atom.t -> bool
(** [holds db a] — [a] may contain variables; true iff some instance is
    in [db]. *)
