(** Pass 6 — type/domain inference ({!Absint} over the compiled
    program).

    Infers per-predicate argument domains (constant sets / domain-map
    concept cones, widened to ⊤ at a size cap) and flags rules that
    provably derive nothing:

    - {b empty-join} (warning): a join variable whose occurrences have
      disjoint argument domains, or a constant argument outside the
      predicate's column domain;
    - {b dead-rule} (warning): a body predicate proved unpopulatable,
      or a ground comparison that can never hold.

    Both verdicts are exactly the ones {!Absint.prune} acts on, so a
    flagged rule is also one the pruned program drops. Open predicates (declared relations, predicates
    the caller knows are populated externally) must be passed through
    [assume_nonempty] — they are treated as ⊤ rows and never cause a
    verdict. *)

val lint :
  ?cones:Absint.cones ->
  ?cap:int ->
  ?assume_nonempty:(string -> bool) ->
  ?edb:Datalog.Database.t ->
  ?loc:(int -> Logic.Rule.t -> Diagnostic.location) ->
  Logic.Rule.t list ->
  Diagnostic.t list

val domains :
  ?cones:Absint.cones ->
  ?cap:int ->
  ?assume_nonempty:(string -> bool) ->
  ?edb:Datalog.Database.t ->
  Logic.Rule.t list ->
  (string * string) list
(** The stable abstract row of each head predicate, rendered — the
    inspection half used by [kindctl provenance --domains]-style
    tooling and the tests. *)
