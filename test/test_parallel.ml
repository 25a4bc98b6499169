(* Differential testing of domain-parallel evaluation: the parallel
   engine must be invisible. On the same randomly generated safe
   stratified programs as test_differential, every domain count in
   {1, 2, 4} must produce

     - the identical database from Engine.materialize,
     - identical report counters (domains_used / parallel_batches
       excepted — those differ by design),
     - identical Maintain behavior: same maintained database, same
       per-stratum actions, same counters after the same delta,
     - the identical model of a program with dead rules pruned,

   and the concurrent federation gather must preserve completeness
   reports and replay-exact per-channel fault transcripts against the
   sequential gather (directed Delay/Transient case below).

   Parexec.min_rows is lowered to 2 for the duration of each test so
   the tiny random deltas actually take the partitioned path — at the
   default threshold nothing here would fan out and the suite would
   vacuously pass.

   Seeded like the other QCheck-style suites: case [i] uses seed
   [base*10_000 + i] with [base] from KIND_QCHECK_SEED (default 0);
   KIND_PAR_CASES overrides the case count. *)

open Logic
module Engine = Datalog.Engine
module Maintain = Datalog.Maintain
module Database = Datalog.Database
module Program = Datalog.Program

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

let cases = max 200 (env_int "KIND_PAR_CASES" 200)
let base_seed = env_int "KIND_QCHECK_SEED" 0
let domain_counts = [ 1; 2; 4 ]

let forcing_fanout f () =
  let saved = !Datalog.Parexec.min_rows in
  Datalog.Parexec.min_rows := 2;
  Fun.protect ~finally:(fun () -> Datalog.Parexec.min_rows := saved) f

let config_for d = { Engine.default_config with Engine.domains = d }

let facts_str db =
  List.sort compare (List.map Atom.to_string (Database.all_facts db))

let check_same ctx a b =
  Alcotest.(check (list string)) ctx (facts_str a) (facts_str b)

(* Engine reports must agree field by field, except the two that
   describe the parallelism itself. *)
let report_sig (r : Engine.report) =
  [
    Printf.sprintf "stratified=%b" r.Engine.stratified;
    Printf.sprintf "strata=%d" r.Engine.strata;
    Printf.sprintf "rounds=%d" r.Engine.rounds;
    Printf.sprintf "derived=%d" r.Engine.derived;
    Printf.sprintf "skolems_suppressed=%d" r.Engine.skolems_suppressed;
    Printf.sprintf "joins=%d" r.Engine.joins;
    Printf.sprintf "tuples_scanned=%d" r.Engine.tuples_scanned;
    Printf.sprintf "index_hits=%d" r.Engine.index_hits;
    Printf.sprintf "plan_cache_hits=%d" r.Engine.plan_cache_hits;
  ]

let check_report ctx a b =
  Alcotest.(check (list string)) ctx (report_sig a) (report_sig b)

let check_maintain_report ctx (a : Maintain.report) (b : Maintain.report) =
  let scrub (r : Maintain.report) = { r with Maintain.parallel_batches = 0 } in
  if scrub a <> scrub b then
    Alcotest.failf "%s: maintenance reports diverge (%d/%d added, %d/%d \
                    removed, %d/%d rounds, %d/%d joins, %d/%d scanned)"
      ctx a.Maintain.added b.Maintain.added a.Maintain.removed
      b.Maintain.removed a.Maintain.rounds b.Maintain.rounds a.Maintain.joins
      b.Maintain.joins a.Maintain.tuples_scanned b.Maintain.tuples_scanned

(* A deterministic dead-rule pruner: drop rules with a positive EDB
   body literal whose extent is empty. Soundness does not matter for
   the differential — the same pruned program runs at every domain
   count and the results must agree with each other. *)
let prune rules db =
  let idb =
    List.filter_map
      (fun (r : Rule.t) ->
        if r.Rule.body = [] then None else Some (Rule.head_pred r))
      rules
    |> List.sort_uniq compare
  in
  List.filter
    (fun (r : Rule.t) ->
      List.for_all
        (fun (l : Literal.t) ->
          match l with
          | Literal.Pos a ->
            List.mem a.Atom.pred idb
            || Database.facts db a.Atom.pred <> []
          | _ -> true)
        r.Rule.body)
    rules

let run_case seed =
  let st = Random.State.make [| seed |] in
  let rules, idb = Test_differential.gen_rules st in
  let p = Program.make_exn rules in
  let edb_facts = Test_differential.gen_edb st in
  let edb = Database.of_facts edb_facts in
  let ctx d what = Printf.sprintf "seed %d @ %d domains: %s" seed d what in
  let fail_on_error what = function
    | Ok x -> x
    | Error e -> Alcotest.failf "seed %d: %s: %s" seed what e
  in
  let d = Test_differential.gen_delta st ~edb_facts ~idb in
  let materialized p c =
    let rep = ref Engine.empty_report in
    let db = Engine.materialize ~config:c ~report:rep p edb in
    (db, !rep)
  in
  let pruned = Program.make_exn (prune rules edb) in
  let maintained dcount =
    let h =
      fail_on_error "Maintain.init"
        (Maintain.init ?pool:(Kind.Pool.get dcount) p edb)
    in
    let rep = fail_on_error "Maintain.apply" (Maintain.apply h d) in
    (Maintain.db h, rep)
  in
  (* warm the global plan cache once so plan_cache_hits is comparable
     across the runs below (the first compilation of a program misses,
     every later run hits — an ordering effect, not a parallel one);
     maintenance compiles plans of its own, for negated literals *)
  ignore (Engine.materialize p edb);
  ignore (maintained 1);
  let db1, rep1 = materialized p (config_for 1) in
  let pdb1, _ = materialized pruned (config_for 1) in
  let mdb1, mrep1 = maintained 1 in
  List.iter
    (fun dc ->
      let dbd, repd = materialized p (config_for dc) in
      check_same (ctx dc "materialize") db1 dbd;
      check_report (ctx dc "materialize counters") rep1 repd;
      check_same (ctx dc "pruned materialize") pdb1
        (fst (materialized pruned (config_for dc)));
      let mdbd, mrepd = maintained dc in
      check_same (ctx dc "maintained database") mdb1 mdbd;
      check_maintain_report (ctx dc "maintain counters") mrep1 mrepd)
    (List.tl domain_counts)

let differential () =
  for i = 0 to cases - 1 do
    run_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Directed: a Delay/Transient-faulted source under the concurrent
   gather must yield the same completeness report, the same per-channel
   fault transcript, the same per-source health counters and the same
   materialization as the sequential gather. Only the runtime's global
   clock composition may differ (sum of fetches vs their max). *)

module M = Mediation.Mediator
module R = Mediation.Runtime
module Fault = Wrapper.Fault

let faulted_mediator domains =
  let config = { M.default_config with M.domains } in
  let med =
    Neuro.Sources.standard_mediator ~config { Neuro.Sources.seed = 5; scale = 25 }
  in
  (* NCMIR answers late then flakes once (the retry absorbs it);
     SENSELAB is delayed on every call *)
  List.iter
    (fun (source, plan) ->
      match M.set_fault_plan med ~source plan with
      | Ok () -> ()
      | Error e -> Alcotest.failf "set_fault_plan %s: %s" source e)
    [
      ( "NCMIR",
        Fault.Script
          [
            { Fault.at = 1; fault = Fault.Delay 40 };
            { Fault.at = 2; fault = Fault.Transient "net burp" };
          ] );
      ("SENSELAB", Fault.Always (Fault.Delay 15));
    ];
  med

let transcript_of med source =
  match M.fault_channel med source with
  | Some ch ->
    List.map
      (fun (at, f) -> Printf.sprintf "%d:%s" at (Fault.fault_to_string f))
      (Fault.transcript ch)
  | None -> Alcotest.failf "no channel for %s" source

let health_sig med =
  List.map
    (fun (name, h) ->
      Printf.sprintf "%s calls=%d failures=%d retries=%d trips=%d absorbed=%d"
        name h.R.calls h.R.failures h.R.retries h.R.trips h.R.absorbed)
    (M.health med)

let completeness_sig (c : M.completeness) =
  ( c.M.contributed,
    List.map (fun (s, r) -> s ^ ": " ^ r) c.M.skipped,
    c.M.suspect )

let gather_delay () =
  let seq = faulted_mediator 1 and par = faulted_mediator 4 in
  let db_seq = M.materialize seq and db_par = M.materialize par in
  check_same "faulted gather: same materialization" db_seq db_par;
  let sc, ss, su = completeness_sig (M.completeness seq) in
  let pc, ps, pu = completeness_sig (M.completeness par) in
  Alcotest.(check (list string)) "contributed" sc pc;
  Alcotest.(check (list string)) "skipped" ss ps;
  Alcotest.(check (list string)) "suspect" su pu;
  List.iter
    (fun source ->
      Alcotest.(check (list string))
        (source ^ " transcript")
        (transcript_of seq source) (transcript_of par source))
    [ "SYNAPSE"; "NCMIR"; "SENSELAB" ];
  Alcotest.(check (list string)) "health counters" (health_sig seq)
    (health_sig par);
  (* concurrent-start semantics: the parallel gather's clock is the
     slowest fetch, the sequential one the sum — with faults on two of
     three sources the difference is guaranteed *)
  Alcotest.(check bool) "concurrent clock <= sequential clock" true
    (R.clock (M.runtime par) <= R.clock (M.runtime seq))

(* Directed: [Pool.shutdown ?deadline] must return even when a worker
   is wedged in a task at shutdown time — the at_exit join used to
   deadlock when a worker raised (or never finished) during the final
   drain. A private pool runs a batch whose tasks spin on a release
   flag; the bounded shutdown must come back promptly with the workers
   still spinning, and after release an unbounded shutdown still joins
   them cleanly. *)
let pool_bounded_shutdown () =
  let p = Kind.Pool.create 3 in
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let submitted = Atomic.make false in
  (* run the batch from a separate domain: run_list blocks until the
     batch drains, which only happens after [release] *)
  let runner =
    Domain.spawn (fun () ->
        Atomic.set submitted true;
        Kind.Pool.run_list p
          (List.init 3 (fun _ () ->
               Atomic.incr started;
               while not (Atomic.get release) do
                 Domain.cpu_relax ()
               done)))
  in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  (* two lanes are provably wedged inside tasks; the bounded shutdown
     must give up on them instead of hanging *)
  let t0 = Unix.gettimeofday () in
  Kind.Pool.shutdown ~deadline:0.2 p;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded shutdown returned in %.2fs" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "tasks were still running when it returned" true
    (Atomic.get submitted);
  (* unwedge: the batch drains, the stop flag set above ends the worker
     loops, and an undeadlined shutdown can still join them *)
  Atomic.set release true;
  ignore (Domain.join runner : unit list);
  Kind.Pool.shutdown p

let suites =
  [
    ( "parallel",
      [
        Alcotest.test_case
          (Printf.sprintf
             "%d random programs agree across 1/2/4 domains (db, counters, \
              maintain, prune)"
             cases)
          `Quick
          (forcing_fanout differential);
        Alcotest.test_case
          "faulted concurrent gather == sequential (completeness, \
           transcripts, health)"
          `Quick
          (forcing_fanout gather_delay);
        Alcotest.test_case "bounded shutdown abandons wedged workers" `Quick
          pool_bounded_shutdown;
      ] );
  ]
