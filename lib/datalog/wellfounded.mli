(** Well-founded semantics via Van Gelder's alternating fixpoint.

    The GCM extension mechanism requires "Datalog with well-founded
    negation", which expresses exactly FO(LFP) on ordered structures
    (Section 3, (EXPR)/(SEM) of the paper). Stratified programs get
    identical results from {!Engine.materialize}; this module exists for
    programs where negation is entangled with recursion, such as
    nonmonotonic inheritance over a registered domain map (Section 4,
    "if we want to specify that it only projects to the latter").

    Aggregates are treated like negation: each alternating step
    evaluates them against the fixed candidate model of the previous
    step.

    {b The read-set argument.} One step is Γ(I), the least model with
    negated and aggregate literals read from a fixed interpretation I.
    Γ reads I only through the {e read-set} N: the predicates that some
    rule uses under negation or aggregation ({!Logic.Rule.body_predicates}).
    So the iteration x₀ = ∅, x₍ₖ₊₁₎ = Γ(xₖ) stops at the first k where
    xₖ agrees on N with
    - xₖ₋₁: then Γ(xₖ) = xₖ, the model is total and xₖ is it;
    - xₖ₋₂: then the sequence cycles between xₖ₋₁ and xₖ; the even
      iterate holds the true facts, the odd one the non-false facts.

    Only N's relations are compared, on packed rows
    ({!Database.equal_on}), and [undefined] is built only when the two
    sides differ. When Γ(∅) derives no fact of N — as on the default
    neuro federation — one Γ application suffices. This never performs
    more Γ applications than iterating Γ∘Γ until both whole databases
    repeat, and returns the same model. *)

type model = {
  true_facts : Database.t;   (** facts true in the well-founded model *)
  undefined : Database.t;    (** facts with truth value "undefined" *)
  alternations : int;
      (** number of Γ applications performed: 1 when Γ(∅) already
          agrees with ∅ on the read-set, k when the iteration stopped
          at xₖ *)
}

val compute :
  ?stats:Eval.stats ->
  ?pool:Pool.t ->
  ?max_term_depth:int ->
  ?max_rounds:int ->
  Program.t ->
  Database.t ->
  model
(** [compute p edb] returns the well-founded model of [p] over the
    extensional database [edb] (which is not mutated). [true_facts]
    includes the EDB. [pool] parallelizes the semi-naive rounds inside
    each Γ application (see {!Seminaive.run}); the alternation itself
    is inherently sequential. *)

val is_total : model -> bool
(** [true] iff nothing is undefined — e.g. always for stratified
    programs. *)
