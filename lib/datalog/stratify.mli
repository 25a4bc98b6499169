(** Predicate-level stratification.

    A program is stratified when no predicate depends on itself through
    negation or aggregation. Stratified programs are evaluated stratum
    by stratum; non-stratified programs fall back to the well-founded
    semantics ({!Wellfounded}), which is the semantics the paper
    requires of the GCM rule language (Section 3, (SEM)). *)

type edge = {
  from_pred : string;  (** the head predicate *)
  to_pred : string;    (** a predicate its body reads *)
  nonmono : bool;      (** read through negation or aggregation *)
}

val dependency_edges : Program.t -> edge list

val negative_cycle : Program.t -> edge list option
(** A shortest dependency cycle through at least one nonmonotonic edge,
    as consecutive edges starting with that edge (the last edge returns
    to the first edge's source); [None] iff the program is stratified. *)

type outcome =
  | Stratified of string list list
      (** predicate strata, bottom (stratum 0) first; every predicate of
          the program appears in exactly one stratum *)
  | Unstratified of string list
      (** the predicates of {!negative_cycle}'s cycle, sorted *)

val stratify : Program.t -> outcome

val is_stratified : Program.t -> bool

val rules_by_stratum :
  Program.t -> (Logic.Rule.t list list, string list) result
(** Rules grouped by the stratum of their head predicate, bottom first;
    [Error cycle] when the program is not stratified, with [cycle] as
    in {!Unstratified}. *)
