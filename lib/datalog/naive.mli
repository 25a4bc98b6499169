(** Naive bottom-up evaluation: re-derive everything from scratch each
    round until fixpoint, through the interpreted {!Eval.derive}.

    This is the engine's reference oracle, not a production path: no
    library module calls it. Tests and the engine ablation bench (A1 in
    DESIGN.md) compare the compiled semi-naive evaluator ({!Engine},
    {!Seminaive}, {!Maintain}) against it; it shares no code with the
    compiled join kernel ({!Plan}). *)

type outcome = {
  rounds : int;
  derived : int;          (** new facts added over the run *)
  skolems_suppressed : int; (** derivations dropped by the depth bound *)
}

val run :
  ?stats:Eval.stats ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  neg:Database.t ->
  Logic.Rule.t list ->
  Database.t ->
  outcome
(** Evaluate the rules against (and into) [db], with negation and
    aggregation reading [neg]. Mutates [db]. Raises [Failure] when
    [max_rounds] is exceeded (runaway recursion through skolems). *)

val materialize : ?max_term_depth:int -> Program.t -> Database.t -> Database.t
(** [materialize p edb] is the stratified model of [p] over [edb]: the
    program's ground facts are loaded into a copy of [edb], then {!run}
    evaluates each stratum of {!Stratify.rules_by_stratum} bottom up,
    with negation reading the database being built. [edb] is not
    mutated. Raises [Invalid_argument] when [p] is not stratified (the
    well-founded oracle lives in the tests). [max_term_depth] defaults
    to 8, as in {!Engine.default_config}. *)
