module Rule = Logic.Rule
module D = Diagnostic

let pass = "types"

let default_loc i r =
  D.Rule { index = i; text = Rule.to_string r; pos = None }

let diag_of_verdict ~loc i r = function
  | Absint.Live -> []
  | Absint.Dead reason ->
    let code =
      match reason with
      | Absint.Disjoint_var _ | Absint.Foreign_const _ -> "empty-join"
      | Absint.Empty_pred _ | Absint.False_cmp _ -> "dead-rule"
    in
    [
      D.make ~severity:D.Warning ~pass ~code ~location:(loc i r)
        (Printf.sprintf "rule can never fire: %s"
           (Absint.describe_reason reason))
        ~hint:
          "the head stays unpopulated no matter what the sources push; \
           delete the rule or fix the join";
    ]

let lint ?cones ?cap ?assume_nonempty ?edb ?(loc = default_loc) rules =
  match Absint.emptiness ?cones ?cap ?assume_nonempty ?edb rules with
  | { Absint.verdicts; _ } ->
    List.concat (List.mapi (fun i (r, v) -> diag_of_verdict ~loc i r v)
                   (List.combine rules verdicts))
  | exception Absint.Diverged -> []

(* Argument-domain report for tooling: the stable abstract row of each
   head predicate, rendered. *)
let domains ?cones ?cap ?assume_nonempty ?edb rules =
  match Absint.emptiness ?cones ?cap ?assume_nonempty ?edb rules with
  | { Absint.value_of; _ } ->
    List.sort_uniq String.compare (List.map Rule.head_pred rules)
    |> List.map (fun p ->
           (p, Format.asprintf "%a" Absint.pp_pred_dom (value_of p)))
  | exception Absint.Diverged -> []
