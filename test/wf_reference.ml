(* Reference well-founded semantics: Van Gelder's alternating fixpoint
   iterated as Γ∘Γ until both whole databases repeat, compared fact by
   fact, with each Γ step run by the naive interpreter
   ([Datalog.Naive.run]), so the reference shares no code with the
   compiled kernel it checks. The oracle that
   [Datalog.Wellfounded.compute] and the engine's well-founded fallback
   are checked against (test_wellfounded.ml, test_differential.ml); it
   lives here, not in the library, because nothing but the tests runs
   it. *)

module Database = Datalog.Database

type model = {
  true_facts : Database.t;
  undefined : Database.t;
  alternations : int;  (* Γ applications performed *)
}

let gamma rules edb i =
  let db = Database.copy edb in
  ignore (Datalog.Naive.run ~neg:i rules db);
  db

let db_subset a b =
  List.for_all (fun f -> Database.mem b f) (Database.all_facts a)

let db_equal a b = Database.cardinal a = Database.cardinal b && db_subset a b

let compute p edb =
  let rules = Datalog.Program.rules p in
  let alternations = ref 0 in
  let step i =
    incr alternations;
    gamma rules edb i
  in
  (* invariant: under ⊆ true facts ⊆ over *)
  let rec iterate under over =
    let under' = step over in
    let over' = step under' in
    if db_equal under under' && db_equal over over' then (under', over')
    else iterate under' over'
  in
  let over0 = step (Database.create ()) in
  let under0 = step over0 in
  let under, over =
    if db_equal under0 over0 then (under0, over0) else iterate under0 over0
  in
  let undefined = Database.create () in
  List.iter
    (fun f ->
      if not (Database.mem under f) then ignore (Database.add_fact undefined f))
    (Database.all_facts over);
  { true_facts = under; undefined; alternations = !alternations }
