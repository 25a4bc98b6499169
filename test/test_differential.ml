(* Differential testing of the evaluator against its reference oracle:
   on randomly generated safe stratified programs with random EDBs, the
   compiled semi-naive engine and incremental maintenance must compute
   the model of the naive interpreter (Datalog.Naive.materialize, which
   shares no code with the compiled join kernel) —

     Naive == Seminaive == Maintain.init,

   and incremental maintenance must be invisible:

     init + apply(delta)            == materialize(updated EDB)
     one-fact-at-a-time deltas      == one batch delta
     init(half) + extend_rules(rest) == init(whole program)

   with a top-down (tabled) spot-check against the materialized model
   on the supported fragment. Deltas deliberately include facts on
   rule-defined predicates (base assertion / base retraction — the
   mediator's update path) and deletions of absent facts, so the
   agreement also pins the documented retract-and-rederive semantics.

   The run is deterministic: case [i] uses seed [base*10_000 + i] where
   [base] comes from KIND_DIFF_SEED (default 0), so a failure report
   ("seed N: ...") reproduces by running the suite with the same
   environment. KIND_DIFF_CASES overrides the case count. *)

open Logic
module Engine = Datalog.Engine
module Naive = Datalog.Naive
module Maintain = Datalog.Maintain
module Database = Datalog.Database
module Program = Datalog.Program
module Topdown = Datalog.Topdown
module Tuple = Datalog.Tuple

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let cases = max 200 (env_int "KIND_DIFF_CASES" 220)
let base_seed = env_int "KIND_DIFF_SEED" 0

(* ------------------------------------------------------------------ *)
(* Program / EDB / delta generator                                     *)

let edb_preds = [ ("e0", 2); ("e1", 2); ("e2", 1) ]

let const st = Term.sym (Printf.sprintf "k%d" (Random.State.int st 6))

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let ground_atom st (name, arity) =
  Atom.make name (List.init arity (fun _ -> const st))

(* Rules for [p_i] may read EDB predicates and [p_0..p_i] positively
   (so same-layer recursion happens) and EDB predicates and strictly
   lower [p_j] under negation or aggregation — stratified by
   construction. Safety by construction too: head and negated-literal
   variables are drawn from the variables of the positive body
   literals (plus an aggregate's result variable). With [unstratified],
   negation may read any predicate, so negation entangles with
   recursion, and aggregates read only EDB predicates (an aggregate
   inside a negative cycle would make Γ non-antimonotone, and the
   alternating fixpoint need not converge). *)
let gen_rules ?(unstratified = false) st =
  let var_pool = [ "A"; "B"; "C"; "D" ] in
  let nidb = 4 + Random.State.int st 3 in
  let idb =
    List.init nidb (fun i ->
        (Printf.sprintf "p%d" i, 1 + Random.State.int st 2))
  in
  let rule_for i (h, ha) =
    let pos_pool = edb_preds @ List.filteri (fun j _ -> j <= i) idb in
    let lower = edb_preds @ List.filteri (fun j _ -> j < i) idb in
    let neg_pool = if unstratified then edb_preds @ idb else lower in
    let agg_pool = if unstratified then edb_preds else lower in
    let positives =
      List.init
        (1 + Random.State.int st 2)
        (fun _ ->
          let name, ar = pick st pos_pool in
          Atom.make name
            (List.init ar (fun _ ->
                 if Random.State.int st 100 < 20 then const st
                 else Term.var (pick st var_pool))))
    in
    (* Sometimes a count aggregate over a strictly-lower predicate:
       [N = count{GA [GB]; q(GA,GB)}]. The result variable feeds the
       head / negation pool; a grouped aggregate yields one binding of
       N per group value, an ungrouped one a single total. Aggregates
       also exercise the compiled path's non-streaming plan shape. *)
    let aggregates =
      if Random.State.int st 100 < 25 then
        let name, ar = pick st agg_pool in
        let grouped = ar >= 2 && Random.State.int st 2 = 0 in
        let args =
          List.init ar (fun k ->
              if k = 0 then Term.var "GA"
              else if k = 1 && grouped then Term.var "GB"
              else if Random.State.int st 100 < 30 then const st
              else Term.var (Printf.sprintf "G%d" k))
        in
        [
          Literal.count ~target:(Term.var "GA")
            ~group_by:(if grouped then [ Term.var "GB" ] else [])
            ~result:(Term.var "N")
            [ Atom.make name args ];
        ]
      else []
    in
    let pv =
      List.sort_uniq compare
        (List.concat_map Atom.vars positives
        @ if aggregates <> [] then [ "N" ] else [])
    in
    let bound_or_const () =
      if pv <> [] && Random.State.int st 100 < 80 then
        Term.var (pick st pv)
      else const st
    in
    let negatives =
      if Random.State.int st 100 < 40 then
        let name, ar = pick st neg_pool in
        [ Literal.neg name (List.init ar (fun _ -> bound_or_const ())) ]
      else []
    in
    Rule.make
      (Atom.make h (List.init ha (fun _ -> bound_or_const ())))
      (List.map (fun (a : Atom.t) -> Literal.pos a.Atom.pred a.Atom.args)
         positives
      @ negatives @ aggregates)
  in
  let rules =
    List.concat
      (List.mapi
         (fun i p ->
           List.init (1 + Random.State.int st 2) (fun _ -> rule_for i p))
         idb)
  in
  (rules, idb)

let gen_edb st =
  List.concat_map
    (fun p -> List.init (6 + Random.State.int st 10) (fun _ -> ground_atom st p))
    edb_preds

(* A delta mixing EDB insertions, deletions of existing and of absent
   facts, and (sometimes) base facts on rule-defined predicates. *)
let gen_delta st ~edb_facts ~idb =
  let additions =
    List.init
      (2 + Random.State.int st 6)
      (fun _ -> ground_atom st (pick st edb_preds))
    @
    if Random.State.int st 100 < 35 then
      List.init (1 + Random.State.int st 2) (fun _ ->
          ground_atom st (pick st idb))
    else []
  in
  let deletions =
    List.filter (fun _ -> Random.State.int st 100 < 15) edb_facts
    @ [ ground_atom st (pick st edb_preds) ]
    @
    if Random.State.int st 100 < 25 then [ ground_atom st (pick st idb) ]
    else []
  in
  Maintain.delta ~additions ~deletions ()

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let facts_str db =
  List.sort compare (List.map Atom.to_string (Database.all_facts db))

let check_same ctx a b =
  Alcotest.(check (list string)) ctx (facts_str a) (facts_str b)

let updated_edb edb (d : Maintain.delta) =
  let e = Database.copy edb in
  List.iter (fun f -> ignore (Database.remove_fact e f)) d.Maintain.deletions;
  List.iter (fun f -> ignore (Database.add_fact e f)) d.Maintain.additions;
  e

let run_case seed =
  let st = Random.State.make [| seed |] in
  let rules, idb = gen_rules st in
  let p = Program.make_exn rules in
  let edb_facts = gen_edb st in
  let edb = Database.of_facts edb_facts in
  let ctx what = Printf.sprintf "seed %d: %s" seed what in
  let fail_on_error what = function
    | Ok x -> x
    | Error e -> Alcotest.failf "seed %d: %s: %s" seed what e
  in
  (* strategies agree on the initial model *)
  let full = Engine.materialize p edb in
  (* counter sanity for the Atomic.t stats: two identical runs must
     report identical counters (a leaked shared counter would
     accumulate across runs), and the parallel-only counters must stay
     at their sequential values without a pool *)
  let counted () =
    let rep = ref Engine.empty_report in
    ignore (Engine.materialize ~report:rep p edb);
    !rep
  in
  let r1 = counted () and r2 = counted () in
  Alcotest.(check (list int))
    (ctx "counters deterministic across runs")
    [ r1.Engine.derived; r1.Engine.joins; r1.Engine.tuples_scanned;
      r1.Engine.index_hits; r1.Engine.rounds ]
    [ r2.Engine.derived; r2.Engine.joins; r2.Engine.tuples_scanned;
      r2.Engine.index_hits; r2.Engine.rounds ];
  if Kind.Pool.env_domains () <= 1 then begin
    Alcotest.(check int) (ctx "sequential: domains_used = 1") 1
      r1.Engine.domains_used;
    Alcotest.(check int) (ctx "sequential: parallel_batches = 0") 0
      r1.Engine.parallel_batches
  end;
  check_same (ctx "naive == seminaive") (Naive.materialize p edb) full;
  let fresh () = fail_on_error "Maintain.init" (Maintain.init p edb) in
  let h = fresh () in
  check_same (ctx "Maintain.init == materialize") (Maintain.db h) full;
  (* a batch delta equals re-materializing the updated EDB *)
  let d = gen_delta st ~edb_facts ~idb in
  let edb' = updated_edb edb d in
  let full' = Engine.materialize p edb' in
  check_same (ctx "naive == seminaive on the updated EDB")
    (Naive.materialize p edb') full';
  let rep = fail_on_error "apply batch" (Maintain.apply h d) in
  check_same (ctx "batch delta == re-materialize") (Maintain.db h) full';
  (* only a changed aggregate input rebuilds a stratum: negation
     propagates its deltas *)
  let aggregates (r : Rule.t) =
    List.exists (function Literal.Agg _ -> true | _ -> false) r.Rule.body
  in
  if not (List.exists aggregates rules) then
    Alcotest.(check int)
      (ctx "no aggregate: recomputed = 0")
      0 rep.Maintain.recomputed;
  (* one-fact-at-a-time deltas land in the same state *)
  let h1 = fresh () in
  List.iter
    (fun f ->
      ignore
        (fail_on_error "apply single deletion"
           (Maintain.apply h1 (Maintain.delta ~deletions:[ f ] ()))))
    d.Maintain.deletions;
  List.iter
    (fun f ->
      ignore
        (fail_on_error "apply single addition"
           (Maintain.apply h1 (Maintain.delta ~additions:[ f ] ()))))
    d.Maintain.additions;
  check_same (ctx "one-by-one == batch") (Maintain.db h1) (Maintain.db h);
  (* growing the program incrementally equals starting with all of it *)
  let k = List.length rules / 2 in
  let first = List.filteri (fun i _ -> i < k) rules in
  let rest = List.filteri (fun i _ -> i >= k) rules in
  let h2 =
    fail_on_error "init on first half" (Maintain.init (Program.make_exn first) edb)
  in
  ignore (fail_on_error "extend_rules" (Maintain.extend_rules h2 rest));
  check_same (ctx "extend_rules == whole program") (Maintain.db h2) full;
  ignore (fail_on_error "apply after extend" (Maintain.apply h2 d));
  check_same (ctx "delta after extend == re-materialize") (Maintain.db h2) full';
  (* the static cardinality analysis is sound on the initial model:
     every predicate's actual extent lies in its inferred interval *)
  let res = Analysis.Card.analyze ~edb rules in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      Hashtbl.replace counts a.Atom.pred
        (1 + Option.value (Hashtbl.find_opt counts a.Atom.pred) ~default:0))
    (Database.all_facts full);
  Hashtbl.iter
    (fun pred n ->
      let iv = Analysis.Card.card res pred in
      if not (Analysis.Card.contains iv n) then
        Alcotest.failf "seed %d: %s has %d tuples, outside inferred %s" seed
          pred n
          (Format.asprintf "%a" Analysis.Card.pp_interval iv))
    counts;
  (* top-down spot check: tabled answers on one derived predicate *)
  try
    let name, ar = List.nth idb (seed mod List.length idb) in
    let goal =
      Atom.make name (List.init ar (fun i -> Term.var (Printf.sprintf "Q%d" i)))
    in
    let td = List.sort Tuple.compare (Topdown.solve p edb goal) in
    let bu = List.sort Tuple.compare (Engine.answers full goal) in
    let show ts =
      List.map (fun t -> String.concat "," (List.map Term.to_string t)) ts
    in
    Alcotest.(check (list string))
      (ctx "topdown == bottom-up")
      (show bu) (show td)
  with Topdown.Unsupported _ -> ()

let differential () =
  for i = 0 to cases - 1 do
    run_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Regression: the well-founded fallback must fill the engine report
   (counters shared with the stratified path went missing once). *)

let wf_report () =
  let v = Term.var and s = Term.sym in
  let p =
    Program.make_exn
      [
        Rule.make
          (Atom.make "win" [ v "X" ])
          [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ];
      ]
  in
  let edb =
    Database.of_facts
      [ Atom.make "move" [ s "a"; s "b" ]; Atom.make "move" [ s "b"; s "c" ] ]
  in
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p edb in
  Alcotest.(check bool) "fell back to well-founded" false !rep.Engine.stratified;
  Alcotest.(check bool) "win(b) holds" true
    (Database.mem db (Atom.make "win" [ s "b" ]));
  Alcotest.(check bool) "win(a) refuted" false
    (Database.mem db (Atom.make "win" [ s "a" ]));
  Alcotest.(check bool) "joins counted" true (!rep.Engine.joins > 0);
  Alcotest.(check bool) "tuples_scanned counted" true
    (!rep.Engine.tuples_scanned > 0);
  Alcotest.(check bool) "derived counted" true (!rep.Engine.derived >= 1);
  Alcotest.(check bool) "rounds counted" true (!rep.Engine.rounds > 0);
  (* the fallback's model is the reference well-founded model, which
     runs the naive interpreter, not the compiled kernel *)
  check_same "wf: materialize == reference"
    (Wf_reference.compute p edb).Wf_reference.true_facts db

(* ------------------------------------------------------------------ *)
(* The kernel counters: compiled runs answer joins through the plan
   cache and index probes. *)

let kernel_counters () =
  let v = Term.var and s = Term.sym in
  let p =
    Program.make_exn
      (Rule.make
         (Atom.make "tc" [ v "X"; v "Y" ])
         [ Literal.pos "edge" [ v "X"; v "Y" ] ]
      :: Rule.make
           (Atom.make "tc" [ v "X"; v "Y" ])
           [ Literal.pos "tc" [ v "X"; v "Z" ]; Literal.pos "edge" [ v "Z"; v "Y" ] ]
      :: List.init 24 (fun k ->
             Rule.fact
               (Atom.make "edge"
                  [ s (Printf.sprintf "m%d" k); s (Printf.sprintf "m%d" (k + 1)) ])))
  in
  (* first run warms the global plan cache, second run must hit it *)
  ignore (Engine.materialize p (Database.create ()));
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p (Database.create ()) in
  Alcotest.(check int) "full closure" (24 * 25 / 2)
    (List.length (Database.all_facts db) - 24);
  Alcotest.(check bool) "compiled: plan_cache_hits > 0" true
    (!rep.Engine.plan_cache_hits > 0);
  Alcotest.(check bool) "compiled: index_hits > 0" true
    (!rep.Engine.index_hits > 0)

(* ------------------------------------------------------------------ *)
(* Deltas through negation: each case maintains a handle through one
   batch and compares it with the naive oracle over the updated base;
   none may rebuild a stratum. *)

let negation_case ~rules ~edb ~additions ~deletions name () =
  let p = Program.make_exn rules in
  let edb = Database.of_facts edb in
  let d = Maintain.delta ~additions ~deletions () in
  let oracle = Naive.materialize p (updated_edb edb d) in
  let ctx what = Printf.sprintf "%s: %s" name what in
  match Maintain.init p edb with
  | Error e -> Alcotest.failf "%s" (ctx e)
  | Ok h -> (
    match Maintain.apply h d with
    | Error e -> Alcotest.failf "%s" (ctx e)
    | Ok rep ->
      check_same (ctx "maintained == naive oracle") (Maintain.db h) oracle;
      Alcotest.(check int) (ctx "recomputed") 0 rep.Maintain.recomputed)

let negation_cases =
  let v = Term.var and c = Term.sym in
  let a1 p x = Atom.make p [ c x ] and a2 p x y = Atom.make p [ c x; c y ] in
  [
    ( "two negated atoms added in one batch",
      negation_case
        ~rules:
          [
            Rule.make
              (Atom.make "h" [ v "X" ])
              [
                Literal.pos "p" [ v "X" ];
                Literal.neg "q" [ v "X" ];
                Literal.neg "s" [ v "X" ];
              ];
          ]
        ~edb:[ a1 "p" "a"; a1 "p" "b" ]
        ~additions:[ a1 "q" "a"; a1 "s" "a" ]
        ~deletions:[] );
    ( "a negated removal re-enables a recursive stratum",
      negation_case
        ~rules:
          [
            Rule.make
              (Atom.make "reach" [ v "X"; v "Y" ])
              [
                Literal.pos "edge" [ v "X"; v "Y" ];
                Literal.neg "blocked" [ v "X"; v "Y" ];
              ];
            Rule.make
              (Atom.make "reach" [ v "X"; v "Z" ])
              [
                Literal.pos "reach" [ v "X"; v "Y" ];
                Literal.pos "edge" [ v "Y"; v "Z" ];
                Literal.neg "blocked" [ v "Y"; v "Z" ];
              ];
          ]
        ~edb:
          [
            a2 "edge" "a" "b"; a2 "edge" "b" "c"; a2 "edge" "c" "d";
            a2 "edge" "d" "b"; a2 "blocked" "b" "c";
          ]
        ~additions:[]
        ~deletions:[ a2 "blocked" "b" "c" ] );
    ( "retracting a base fact the rules still prove inserts nothing",
      negation_case
        ~rules:
          [
            Rule.make (Atom.make "q" [ v "X" ]) [ Literal.pos "r" [ v "X" ] ];
            Rule.make
              (Atom.make "h" [ v "X" ])
              [ Literal.pos "p" [ v "X" ]; Literal.neg "q" [ v "X" ] ];
          ]
        ~edb:[ a1 "p" "a"; a1 "r" "a"; a1 "q" "a" ]
        ~additions:[]
        ~deletions:[ a1 "q" "a" ] );
    ( "one batch adds to and removes from a negated predicate",
      negation_case
        ~rules:
          [
            Rule.make
              (Atom.make "h" [ v "X" ])
              [ Literal.pos "p" [ v "X" ]; Literal.neg "q" [ v "X" ] ];
          ]
        ~edb:[ a1 "p" "a"; a1 "p" "b"; a1 "p" "c"; a1 "q" "a"; a1 "q" "c" ]
        ~deletions:[ a1 "q" "a"; a1 "q" "c" ]
        ~additions:[ a1 "q" "b"; a1 "q" "c" ] );
  ]

(* A focus plan over an empty delta returns before running any op: no
   join on [e], which the greedy order places after the delta scan. *)
let starved_focus () =
  let v = Term.var and c = Term.sym in
  let r =
    Rule.make
      (Atom.make "h" [ v "X"; v "Y" ])
      [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.pos "d" [ v "Y" ] ]
  in
  let plan = Datalog.Plan.compile r ~focus:(Some 1) in
  let db = Database.of_facts [ Atom.make "e" [ c "a"; c "b" ] ] in
  let check what run =
    let stats = Datalog.Eval.new_stats () in
    Alcotest.(check int) (what ^ ": no heads") 0 (run stats);
    Alcotest.(check (pair int int))
      (what ^ ": joins, tuples_scanned")
      (0, 0)
      (Atomic.get stats.Datalog.Eval.joins,
       Atomic.get stats.Datalog.Eval.tuples_scanned)
  in
  check "empty delta_rows" (fun stats ->
      List.length
        (fst
           (Datalog.Plan.run_rows ~stats ~max_term_depth:8 ~db ~neg:db
              ~delta_rows:[] plan)));
  check "no delta_rows" (fun stats ->
      List.length
        (fst (Datalog.Plan.run_rows ~stats ~max_term_depth:8 ~db ~neg:db plan)))

let suites =
  [
    ( "differential",
      [
        Alcotest.test_case
          (Printf.sprintf "%d random stratified programs agree across engines"
             cases)
          `Quick differential;
        Alcotest.test_case "well-founded fallback fills the report" `Quick
          wf_report;
        Alcotest.test_case "compiled kernel fills the plan counters" `Quick
          kernel_counters;
        Alcotest.test_case "a starved focus plan runs no op" `Quick
          starved_focus;
      ]
      @ List.map
          (fun (name, f) -> Alcotest.test_case name `Quick (f name))
          negation_cases );
  ]
