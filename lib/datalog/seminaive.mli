(** Semi-naive bottom-up evaluation: after the first round, each rule is
    re-evaluated once per positive body literal with that literal
    focused on the delta (facts new in the previous round), so unchanged
    joins are never recomputed. Every rule runs as a compiled {!Plan};
    this is the engine's only bottom-up evaluator, checked against the
    naive reference oracle {!Naive}.

    The round loop ({!propagate}) is shared with incremental
    maintenance ({!Maintain}), which seeds it with the rows a base
    update added or removed instead of a first full round. *)

type outcome = {
  rounds : int;
  derived : int;
  skolems_suppressed : int;
}

val run :
  ?stats:Eval.stats ->
  ?pool:Pool.t ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  neg:Database.t ->
  Logic.Rule.t list ->
  Database.t ->
  outcome
(** Same contract as {!Naive.run}. Mutates [db]. [pool] fans each
    round's big-enough delta batches out across a domain pool
    ({!Parexec}) — results and outcome counters are identical with and
    without it. *)

(** {1 The round loop} *)

type delta = (string, Tuple.Packed.t list ref) Hashtbl.t
(** A round's delta: rows per predicate. A row enters the delta exactly
    when the caller's [accept] took it, so the delta needs no
    deduplication of its own. *)

type step
(** One rule evaluated with one optional focus literal, its plan
    resolved once. *)

val step : ?stats:Eval.stats -> Logic.Rule.t -> focus:int option -> step
(** Resolve a (rule, focus) evaluation to its cached {!Plan}; the focus
    must index a positive body literal. *)

val focus_steps : ?stats:Eval.stats -> Logic.Rule.t -> step list
(** One step per positive body literal of the rule. *)

val head : step -> string
(** The step's head predicate: the delta bucket its accepted rows join. *)

val round :
  ?stats:Eval.stats ->
  ?pool:Pool.t ->
  max_term_depth:int ->
  db:Database.t ->
  neg:Database.t ->
  accept:(step -> Tuple.Packed.t -> bool) ->
  from:delta ->
  into:delta ->
  step list ->
  int
(** Run every step once — unfocused steps in full, focused ones over
    [from]'s rows for their focus predicate, skipping those with none —
    and add each derived head row that [accept step] takes to [into].
    [accept step] is resolved once per step and call, before any step
    runs, and may insert into [db]. Returns the number of heads deeper than [max_term_depth]
    suppressed. *)

val propagate :
  ?stats:Eval.stats ->
  ?pool:Pool.t ->
  max_term_depth:int ->
  max_rounds:int ->
  db:Database.t ->
  neg:Database.t ->
  accept:(step -> Tuple.Packed.t -> bool) ->
  step list ->
  delta ->
  int * int
(** {!round} from the given delta, then from what each round accepted,
    until a round accepts nothing; [accept] is resolved once for all
    rounds;
    returns (rounds run, heads suppressed). Raises [Failure] when the
    delta is still non-empty after [max_rounds] rounds. *)
