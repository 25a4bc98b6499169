(* COST — the cardinality/cost analysis on the join-kernel workloads
   (plus one selective-join workload the greedy syntactic planner
   orders badly): how long the analysis takes, and how close its static
   extent bounds come to the materialized model. Writes
   BENCH_cost.json. *)

open Kind
module Engine = Datalog.Engine
module Database = Datalog.Database
module Card = Analysis.Card

let v = Logic.Term.var
let s = Logic.Term.sym

let fact p args = Logic.Rule.fact (Logic.Atom.make p args)
let rule h b = Logic.Rule.make h b
let atom p args = Logic.Atom.make p args
let pos = Logic.Literal.pos

(* ------------------------------------------------------------------ *)
(* Workload: a join whose selective literal comes last syntactically.
   The greedy planner scores literals by boundness only, so it scans
   [a] (the big relation) first and filters at the very end; the cost
   model starts from [sel] (2 rows) and drives the whole join through
   index probes. *)

let sel_rules =
  [
    rule
      (atom "picked" [ v "X"; v "Z" ])
      [ pos "a" [ v "X"; v "Y" ]; pos "b" [ v "Y"; v "Z" ]; pos "sel" [ v "Z" ] ];
  ]

let sel_join ~rows =
  let classes = 200 in
  let fanout = 25 in
  let a =
    List.init rows (fun i ->
        fact "a"
          [ s (Printf.sprintf "x%d" i); s (Printf.sprintf "y%d" (i mod classes)) ])
  in
  (* every y fans out to [fanout] distinct z's: the greedy a->b->sel
     order materializes rows*fanout intermediate tuples before the
     filter; sel->b->a touches a handful *)
  let b =
    List.concat
      (List.init classes (fun i ->
           List.init fanout (fun j ->
               fact "b"
                 [
                   s (Printf.sprintf "y%d" i);
                   s (Printf.sprintf "z%d" ((i * fanout) + j));
                 ])))
  in
  let sel = [ fact "sel" [ s "z0" ]; fact "sel" [ s "z2501" ] ] in
  Datalog.Program.make_exn (sel_rules @ a @ b @ sel)

let workloads ~full =
  Exp_join.workloads ~full
  @ [ ("sel-join", sel_join ~rows:(if full then 30_000 else 6_000)) ]

(* ------------------------------------------------------------------ *)

type row = {
  name : string;
  analysis_ms : float;
  est_over_actual : float;
  derived : int;
}

(* Geometric mean of (static upper bound / actual extent) over the
   predicates the analysis bounds: 1.0 = exact, 10.0 = an order of
   magnitude over. 0.0 = nothing finite to compare. *)
let est_over_actual res db =
  let logs, n =
    List.fold_left
      (fun (acc, n) p ->
        match (Card.card res p).Card.hi with
        | Some est ->
          let actual = Database.count db p in
          ( acc
            +. log (float_of_int (max 1 est) /. float_of_int (max 1 actual)),
            n + 1 )
        | None -> (acc, n))
      (0.0, 0) (Database.predicates db)
  in
  if n = 0 then 0.0 else exp (logs /. float_of_int n)

let measure (name, p) =
  let t0 = Unix.gettimeofday () in
  let res = Card.analyze (Datalog.Program.rules p) in
  let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let rep = ref Engine.empty_report in
  let db = Engine.materialize ~report:rep p (Database.create ()) in
  {
    name;
    analysis_ms;
    est_over_actual = est_over_actual res db;
    derived = !rep.Engine.derived;
  }

let run () =
  Util.header "COST  cardinality analysis: analysis time and estimate accuracy";
  let rows = List.map measure (workloads ~full:true) in
  Util.table
    ~columns:[ "workload"; "derived"; "analysis-ms"; "est/actual" ]
    (List.map
       (fun r ->
         [
           r.name;
           Util.fint r.derived;
           Util.fms r.analysis_ms;
           Printf.sprintf "%.2f" r.est_over_actual;
         ])
       rows);
  let fields =
    [
      ( "experiment",
        "\"cardinality/cost analysis: analysis time and estimate accuracy\"" );
      ( "protocol",
        "\"analysis timed once, cold; est/actual is the geometric mean of \
         static bound over materialized extent, over finite-estimate \
         predicates\"" );
    ]
    @ List.concat_map
        (fun r ->
          let k = Exp_join.key r.name in
          [
            (k ^ "_analysis_ms", Printf.sprintf "%.3f" r.analysis_ms);
            (k ^ "_est_over_actual", Printf.sprintf "%.3f" r.est_over_actual);
            (k ^ "_derived", string_of_int r.derived);
          ])
        rows
  in
  Exp_join.write_json "BENCH_cost.json" fields;
  Util.note "wrote BENCH_cost.json"
