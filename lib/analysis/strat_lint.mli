(** Pass 2 — stratification analysis.

    Renders the offending cycle {!Datalog.Stratify.negative_cycle}
    finds through the dependency graph — the path a reader can follow
    to see why the program destratifies — and flags the rules that sit
    on it.

    Codes:
    - {b negative-cycle}: a dependency cycle through at least one
      negated or aggregated edge, rendered as
      [p -¬-> q -> r -> p]. Severity is [Warning] when
      [fallback_ok] (the engine will fall back to the well-founded
      semantics, as the paper's Sec. 3 (SEM) permits), [Error]
      otherwise.
    - {b unmaintainable-rule} (warning): a rule on such a cycle —
      programs containing it cannot be incrementally maintained
      ({!Datalog.Maintain.init} refuses unstratified programs), so
      every source update triggers a full rebuild. *)

val pp_cycle : Format.formatter -> Datalog.Stratify.edge list -> unit
(** [p -¬-> q -> p]. *)

val lint :
  ?fallback_ok:bool ->
  ?loc:(int -> Logic.Rule.t -> Diagnostic.location) ->
  Datalog.Program.t ->
  Diagnostic.t list
(** [fallback_ok] defaults to [true]: {!Datalog.Engine.materialize}
    always falls back to the well-founded semantics on an unstratified
    program; [false] is for callers that require stratification
    ([kindctl lint --strict]).
    [loc] maps a rule index and rule to its diagnostic location
    (default: no source position). *)
