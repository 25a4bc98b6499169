(* Differential test of the query path: Engine.query (compiled plans
   for bodies of two or more literals) must return the same set of
   substitutions as the interpreter, Eval.solve_body, on generated
   programs and queries and on the benchmark's mediator reads. *)

open Logic
module Database = Datalog.Database
module Engine = Datalog.Engine
module Eval = Datalog.Eval

(* A substitution set as sorted, deduplicated binding strings. *)
let answer_set ss =
  List.map
    (fun s ->
      String.concat ","
        (List.map
           (fun (x, t) -> x ^ "=" ^ Term.to_string t)
           (List.sort compare (Subst.bindings s))))
    ss
  |> List.sort_uniq compare

let interpreted db lits = answer_set (Eval.solve_body ~db ~neg:db lits)

let same db lits = answer_set (Engine.query db lits) = interpreted db lits

let preds = Test_differential.edb_preds

(* 1–3 positive atoms, then optionally a negation, a comparison, an
   assignment and a count aggregate, all safe by construction: tests
   read only variables the positive atoms bind. *)
let gen_query st ~idb =
  let pick = Test_differential.pick and const = Test_differential.const in
  let var_pool = [ "A"; "B"; "C"; "D" ] in
  let maybe pct = Random.State.int st 100 < pct in
  let positives =
    List.init
      (1 + Random.State.int st 3)
      (fun _ ->
        let name, ar = pick st (preds @ idb) in
        Literal.pos name
          (List.init ar (fun _ ->
               if maybe 20 then const st else Term.var (pick st var_pool))))
  in
  let bound =
    List.sort_uniq compare (List.concat_map Literal.binds positives)
  in
  let bound_or_const () =
    if bound <> [] && maybe 80 then Term.var (pick st bound) else const st
  in
  let negation =
    if maybe 40 then
      let name, ar = pick st (preds @ idb) in
      [ Literal.neg name (List.init ar (fun _ -> bound_or_const ())) ]
    else []
  in
  let comparison =
    if maybe 40 then
      let op = pick st Literal.[ Lt; Le; Gt; Ge; Ne; Eq ] in
      [ Literal.cmp op (bound_or_const ()) (bound_or_const ()) ]
    else []
  in
  let aggregate =
    if maybe 35 then
      let name, ar = pick st (preds @ idb) in
      let share = bound <> [] && ar >= 2 && maybe 50 in
      let group = if share then Term.var (pick st bound) else Term.var "GB" in
      [
        Literal.count ~target:(Term.var "GA")
          ~group_by:(if ar >= 2 then [ group ] else [])
          ~result:(Term.var "N")
          [
            Atom.make name
              (List.init ar (fun k ->
                   if k = 0 then Term.var "GA" else if k = 1 then group else const st));
          ];
      ]
    else []
  in
  let assignment =
    if aggregate <> [] && maybe 60 then
      [
        Literal.assign (Term.var "M")
          (Literal.Bin (Literal.Add, Literal.Leaf (Term.var "N"), Literal.Leaf (Term.int 1)));
        Literal.cmp Literal.Gt (Term.var "M") (Term.int (1 + Random.State.int st 3));
      ]
    else if maybe 20 then
      (* arithmetic over symbols evaluates to nothing on both paths *)
      [
        Literal.assign (Term.var "M")
          (Literal.Bin (Literal.Add, Literal.Leaf (bound_or_const ()), Literal.Leaf (Term.int 1)));
      ]
    else []
  in
  let body = positives @ negation @ comparison @ aggregate @ assignment in
  (* shuffle: the greedy order, not the written one, must decide *)
  List.map (fun l -> (Random.State.bits st, l)) body
  |> List.sort compare |> List.map snd

let show_query lits = String.concat ", " (List.map Literal.to_string lits)

let prop_generated =
  QCheck.Test.make ~name:"Engine.query == Eval.solve_body on generated programs"
    ~count:150 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rules, idb = Test_differential.gen_rules st in
      let edb = Database.of_facts (Test_differential.gen_edb st) in
      let db = Engine.materialize (Datalog.Program.make_exn rules) edb in
      List.for_all
        (fun _ ->
          let q = gen_query st ~idb in
          same db q
          || QCheck.Test.fail_reportf "seed %d: %s" seed (show_query q))
        (List.init 8 Fun.id))

(* The six read templates of perfbench/common.ml with every parameter
   they are dealt, on the default federation. *)
let template_queries =
  List.map (Printf.sprintf "?- X : spine, X[diameter ->> D], D > %.1f.")
    [ 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]
  @ List.map
      (Printf.sprintf
         "?- X : 'NCMIR.protein_amount', X[location ->> %s], X[protein_name ->> P], X[amount ->> A].")
      [ "purkinje_cell"; "dendrite"; "branch"; "spine"; "soma" ]
  @ List.map
      (Printf.sprintf
         "?- X : neurotransmission, X[organism ->> \"%s\"], X[receiving_compartment ->> C].")
      [ "rat"; "mouse" ]
  @ List.map (Printf.sprintf "?- X : %s.")
      [ "purkinje_cell"; "dendrite"; "spine"; "soma"; "pyramidal_cell" ]
  @ List.map
      (Printf.sprintf "?- X : 'SYNAPSE.dendrite_measure', X[branch_order ->> B], B > %d.")
      [ 0; 1; 2; 3 ]
  @ List.map (Printf.sprintf "?- X : 'NCMIR.protein', X[ion_bound ->> %s], X[name ->> N].")
      [ "calcium"; "none" ]

let templates () =
  let m = Neuro.Sources.standard_mediator Neuro.Sources.default_params in
  let db = Mediation.Mediator.materialize m in
  let sg = Mediation.Mediator.signature m in
  let nonempty = ref 0 in
  List.iter
    (fun text ->
      match Flogic.Fl_parser.parse_query ~signature:sg text with
      | Error e -> Alcotest.failf "%s: %s" text e
      | Ok lits ->
        let body = List.concat_map (Flogic.Compile.body_literals sg) lits in
        let expected = interpreted db body in
        if expected <> [] then incr nonempty;
        Alcotest.(check (list string)) text expected
          (answer_set (Engine.query db body)))
    template_queries;
  Alcotest.(check bool) "most templates have answers" true
    (!nonempty * 2 > List.length template_queries)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* A body the plan compiler rejects raises as the interpreter does — it
   is never silently handed to the interpreter instead. *)
let rejected () =
  let v = Term.var and s = Term.sym in
  let db = Database.of_facts [ Atom.make "p" [ s "a" ]; Atom.make "q" [ s "b" ] ] in
  let unsafe = [ Literal.pos "p" [ v "X" ]; Literal.neg "q" [ v "Y" ] ] in
  let raises f =
    match f () with
    | exception Invalid_argument m ->
      Alcotest.(check bool) ("names the cause: " ^ m) true
        (contains m "range-restricted")
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () -> Eval.solve_body ~db ~neg:db unsafe);
  raises (fun () -> Engine.query db unsafe);
  (* the plan path rejects at compile time, before reading any fact *)
  raises (fun () -> Engine.query (Database.create ()) unsafe)

(* A body that binds no variable compiles to a plan with an empty
   head: one empty substitution when it holds, none when it fails. *)
let ground_bodies () =
  let s = Term.sym in
  let db = Database.of_facts [ Atom.make "p" [ s "a" ]; Atom.make "q" [ s "b" ] ] in
  let holds = [ Literal.pos "p" [ s "a" ]; Literal.pos "q" [ s "b" ] ] in
  let fails = [ Literal.pos "p" [ s "a" ]; Literal.neg "q" [ s "b" ] ] in
  Alcotest.(check (list string)) "holds" [ "" ] (answer_set (Engine.query db holds));
  Alcotest.(check int) "one answer" 1 (List.length (Engine.query db holds));
  Alcotest.(check (list string)) "fails" [] (answer_set (Engine.query db fails));
  Alcotest.(check bool) "same as the interpreter" true (same db holds && same db fails)

let qcheck_seed = Test_properties.qcheck_seed

let suites =
  [
    ( "query path",
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| qcheck_seed |])
        prop_generated
      :: [
           Alcotest.test_case "perfbench templates == interpreter" `Quick
             templates;
           Alcotest.test_case "rejected bodies raise" `Quick rejected;
           Alcotest.test_case "ground bodies" `Quick ground_bodies;
         ] );
  ]
