type model = {
  true_facts : Database.t;
  undefined : Database.t;
  alternations : int;
}

(* Γ(I): least model of the program with negative/aggregate literals
   evaluated against the fixed interpretation I. Monotone decreasing in
   I, so Γ∘Γ is monotone increasing and the even iterates converge to
   the set of well-founded-true facts while the odd iterates converge to
   the non-false facts. *)
let gamma ?stats ?pool ?max_term_depth ?max_rounds rules edb i =
  let db = Database.copy edb in
  ignore
    (Seminaive.run ?stats ?pool ?max_term_depth ?max_rounds ~neg:i
       rules db);
  db

(* The read-set N: Γ reads its interpretation only through the
   predicates some rule uses under negation or aggregation, so two
   interpretations that agree on N have the same Γ image. *)
let read_set rules =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (p, nonmono) -> if nonmono then Some p else None)
        (Logic.Rule.body_predicates r))
    rules
  |> List.sort_uniq String.compare

(* Facts of [over] missing from [under], per relation on packed rows. *)
let difference over under =
  let d = Database.create () in
  List.iter
    (fun p ->
      let keep =
        match Database.relation_opt under p with
        | Some r -> fun row -> not (Relation.mem_packed r row)
        | None -> fun _ -> true
      in
      Relation.iter_packed
        (fun row ->
          if keep row then ignore (Relation.add_packed (Database.relation d p) row))
        (Database.relation over p))
    (Database.predicates over);
  d

let compute ?stats ?pool ?max_term_depth ?max_rounds p edb =
  let rules = Program.rules p in
  let reads = read_set rules in
  let k = ref 0 in
  (* x₍ₖ₊₁₎ = Γ(xₖ) from x₀ = ∅. Once xₖ agrees with xₖ₋₁ on N, Γ has a
     fixpoint and the model is total; once it agrees with xₖ₋₂, the
     sequence cycles between xₖ₋₁ and xₖ, and the even one holds the
     true facts, the odd one the non-false facts. *)
  let rec iterate prev2 prev =
    incr k;
    let cur =
      gamma ?stats ?pool ?max_term_depth ?max_rounds rules edb prev
    in
    if Database.equal_on reads cur prev then (cur, cur)
    else
      match prev2 with
      | Some p2 when Database.equal_on reads cur p2 ->
        if !k mod 2 = 0 then (cur, prev) else (prev, cur)
      | _ -> iterate (Some prev) cur
  in
  let under, over = iterate None (Database.create ()) in
  let undefined =
    if under == over then Database.create () else difference over under
  in
  { true_facts = under; undefined; alternations = !k }

let is_total m = Database.cardinal m.undefined = 0
