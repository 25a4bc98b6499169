module Stratify = Datalog.Stratify
module Program = Datalog.Program
module Rule = Logic.Rule
module D = Diagnostic

let pass = "stratification"

let pp_cycle ppf cycle =
  List.iteri
    (fun i (e : Stratify.edge) ->
      if i = 0 then Format.pp_print_string ppf e.Stratify.from_pred;
      Format.fprintf ppf " -%s-> %s"
        (if e.Stratify.nonmono then "¬" else "")
        e.Stratify.to_pred)
    cycle

let default_loc i r =
  D.Rule { index = i; text = Rule.to_string r; pos = None }

let lint ?(fallback_ok = true) ?(loc = default_loc) p =
  match Stratify.negative_cycle p with
  | None -> []
  | Some cycle ->
    let first = List.hd cycle in
    let cycle_preds =
      List.map (fun (e : Stratify.edge) -> e.Stratify.from_pred) cycle
    in
    let on_cycle q = List.mem q cycle_preds in
    let cycle_edge (q, nonmono) =
      List.exists
        (fun (e : Stratify.edge) ->
          String.equal e.Stratify.to_pred q && e.Stratify.nonmono = nonmono)
        cycle
    in
    let head =
      D.make
        ~severity:(if fallback_ok then D.Warning else D.Error)
        ~pass ~code:"negative-cycle"
        ~location:
          (D.Edge
             {
               src = first.Stratify.from_pred;
               dst = first.Stratify.to_pred;
               label = "¬";
             })
        (Format.asprintf
           "predicates depend on themselves through negation/aggregation: %a"
           pp_cycle cycle)
        ~hint:
          (if fallback_ok then
             "the engine falls back to the well-founded semantics; \
              incremental maintenance and the result cache are disabled \
              for this program"
           else
             "break the cycle (move the negated predicate to a lower \
              stratum) or allow the well-founded fallback")
    in
    let rule_diags =
      List.concat
        (List.mapi
           (fun i (r : Rule.t) ->
             if
               on_cycle (Rule.head_pred r)
               && List.exists cycle_edge (Rule.body_predicates r)
             then
               [
                 D.make ~severity:D.Warning ~pass ~code:"unmaintainable-rule"
                   ~location:(loc i r)
                   (Format.asprintf
                      "this rule closes the nonmonotonic cycle %a; \
                       Datalog.Maintain refuses the program, so every \
                       update becomes a full rebuild"
                      pp_cycle cycle);
               ]
             else [])
           (Program.rules p))
    in
    head :: rule_diags
