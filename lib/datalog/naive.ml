module Atom = Logic.Atom

type outcome = { rounds : int; derived : int; skolems_suppressed : int }

let too_deep max_term_depth (a : Atom.t) =
  List.exists (fun t -> Logic.Term.depth t > max_term_depth) a.Atom.args

let run ?stats ?(max_term_depth = 8) ?(max_rounds = 100_000) ~neg rules db =
  let rounds = ref 0 in
  let derived = ref 0 in
  let suppressed = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    if !rounds > max_rounds then
      failwith "Naive.run: max_rounds exceeded (diverging program?)";
    changed := false;
    List.iter
      (fun r ->
        let heads = Eval.derive ?stats ~db ~neg r in
        List.iter
          (fun a ->
            if too_deep max_term_depth a then incr suppressed
            else if Database.add_fact db a then begin
              incr derived;
              changed := true
            end)
          heads)
      rules
  done;
  { rounds = !rounds; derived = !derived; skolems_suppressed = !suppressed }

let materialize ?max_term_depth p edb =
  let facts, p = Program.split_facts p in
  match Stratify.rules_by_stratum p with
  | Error cycle ->
    invalid_arg
      ("Naive.materialize: not stratified (cycle through "
      ^ String.concat ", " cycle ^ ")")
  | Ok strata ->
    let db = Database.copy edb in
    List.iter (fun f -> ignore (Database.add_fact db f)) facts;
    List.iter (fun rules -> ignore (run ?max_term_depth ~neg:db rules db)) strata;
    db
