(* JOIN — join-kernel benchmark: deep-recursion materialization over
   transitive closure, domain-map closures, and a Section-5-shaped IVD
   join workload. Pins the speedup of the compiled-plan kernel
   (interned terms + packed tuples + signature indexes + compiled
   plans) against the pre-overhaul kernel, writes BENCH_join.json, and
   doubles as the @bench-smoke regression gate (see [smoke]). *)

open Kind
module Engine = Datalog.Engine
module Database = Datalog.Database

let v = Logic.Term.var
let s = Logic.Term.sym

let fact p args = Logic.Rule.fact (Logic.Atom.make p args)
let rule h b = Logic.Rule.make h b
let atom p args = Logic.Atom.make p args
let pos = Logic.Literal.pos

(* ------------------------------------------------------------------ *)
(* Workload 1: deep transitive closure — one long chain, so the
   semi-naive delta is one tuple per round and the round count equals
   the chain length (recursion depth stress). *)

let tc_rules =
  [
    rule (atom "tc" [ v "X"; v "Y" ]) [ pos "edge" [ v "X"; v "Y" ] ];
    rule
      (atom "tc" [ v "X"; v "Y" ])
      [ pos "tc" [ v "X"; v "Z" ]; pos "edge" [ v "Z"; v "Y" ] ];
  ]

let tc_deep n =
  let edges =
    List.init n (fun k ->
        fact "edge" [ s (Printf.sprintf "n%d" k); s (Printf.sprintf "n%d" (k + 1)) ])
  in
  Datalog.Program.make_exn (tc_rules @ edges)

(* ------------------------------------------------------------------ *)
(* Workload 2: domain-map closures — an isa tree (the domain map) plus
   has_a cross edges, closed under the paper's tc / has_a_star axioms
   (Section 4: `tc` over isa, part-of closure mixing isa and has_a). *)

let dm_rules =
  [
    rule (atom "isa_tc" [ v "X"; v "Y" ]) [ pos "isa" [ v "X"; v "Y" ] ];
    rule
      (atom "isa_tc" [ v "X"; v "Y" ])
      [ pos "isa" [ v "X"; v "Z" ]; pos "isa_tc" [ v "Z"; v "Y" ] ];
    rule (atom "has_a_star" [ v "X"; v "Y" ]) [ pos "has_a" [ v "X"; v "Y" ] ];
    rule
      (atom "has_a_star" [ v "X"; v "Y" ])
      [ pos "has_a" [ v "X"; v "Z" ]; pos "has_a_star" [ v "Z"; v "Y" ] ];
    rule
      (atom "has_a_star" [ v "X"; v "Y" ])
      [ pos "isa" [ v "X"; v "Z" ]; pos "has_a_star" [ v "Z"; v "Y" ] ];
  ]

(* a [fanout]-ary isa tree of the given depth, with a has_a edge from
   every third node to its parent's sibling subtree *)
let dm_closure ~fanout ~depth =
  let facts = ref [] in
  let add f = facts := f :: !facts in
  let node path = s ("c" ^ path) in
  let rec build path d =
    if d < depth then
      for i = 0 to fanout - 1 do
        let child = Printf.sprintf "%s_%d" path i in
        add (fact "isa" [ node child; node path ]);
        if (d * fanout) + i mod 3 = 0 then
          add (fact "has_a" [ node path; node child ]);
        build child (d + 1)
      done
  in
  build "r" 0;
  Datalog.Program.make_exn (dm_rules @ !facts)

(* ------------------------------------------------------------------ *)
(* Workload 3: Section-5-shaped IVD join — instance data under an isa
   hierarchy with upward `:` propagation, joined through located /
   region / selective constants, i.e. the multi-literal joins the
   mediator runs per IVD when answering a federation query. *)

let ivd_rules =
  [
    rule
      (atom "inst" [ v "X"; v "C" ])
      [ pos "inst0" [ v "X"; v "C" ] ];
    rule
      (atom "inst" [ v "X"; v "D" ])
      [ pos "inst" [ v "X"; v "C" ]; pos "isa" [ v "C"; v "D" ] ];
    rule
      (atom "answer" [ v "P"; v "L" ])
      [
        pos "inst" [ v "P"; s "protein" ];
        pos "located" [ v "P"; v "L" ];
        pos "region" [ v "L"; v "R" ];
        pos "relevant" [ v "R" ];
      ];
  ]

let ivd_join ~objects =
  let classes = 40 in
  let regions = 25 in
  let isa =
    (* a chain of classes ending at "protein": every object propagates
       up through ~half the chain on average *)
    List.init (classes - 1) (fun k ->
        fact "isa"
          [
            s (Printf.sprintf "cls%d" k);
            (if k = classes - 2 then s "protein"
             else s (Printf.sprintf "cls%d" (k + 1)));
          ])
  in
  let objs =
    List.concat
      (List.init objects (fun o ->
           let obj = s (Printf.sprintf "o%d" o) in
           [
             fact "inst0" [ obj; s (Printf.sprintf "cls%d" (o mod (classes - 1))) ];
             fact "located" [ obj; s (Printf.sprintf "loc%d" (o mod 120)) ];
           ]))
  in
  let locs =
    List.init 120 (fun l ->
        fact "region"
          [ s (Printf.sprintf "loc%d" l); s (Printf.sprintf "reg%d" (l mod regions)) ])
  in
  let rel = List.init 5 (fun r -> fact "relevant" [ s (Printf.sprintf "reg%d" (r * 4)) ]) in
  Datalog.Program.make_exn (ivd_rules @ isa @ objs @ locs @ rel)

(* ------------------------------------------------------------------ *)

(* Pre-overhaul kernel times for the full workloads: measured at the
   commit immediately preceding this overhaul (structural tuples,
   first-ground-column single-key indexes, per-round greedy ordering
   over string-keyed substitution maps) with these exact workloads on
   the same machine, same protocol as [measure] below. Re-measure by
   checking out that commit, dropping this file and main.ml into
   bench/, and running `main.exe -- join`. *)
let baselines =
  [ ("tc-deep", 141.4); ("dm-closure", 349.5); ("ivd-join", 251.3) ]

(* Every repetition starts from a collected heap so one workload's
   garbage is not billed to the next one's run — without the
   [Gc.full_major] the cross-workload interference is worth ±25% on
   the closure workloads. The reported time is the fastest repetition:
   materialization is deterministic and CPU-bound, so the minimum is
   the least-interfered sample (scheduler and frequency noise only ever
   add time). [program] runs inside the timed region, so a caller that
   rewrites the program before evaluating it pays for the rewrite. *)
let measure ?(reps = 5) program =
  let rep = ref Engine.empty_report in
  let samples =
    List.init reps (fun _ ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore
          (Engine.materialize ~report:rep (program ()) (Database.create ()));
        (Unix.gettimeofday () -. t0) *. 1000.)
    |> List.sort compare
  in
  (List.hd samples, !rep)

let workloads ~full =
  if full then
    [
      ("tc-deep", tc_deep 360);
      ("dm-closure", dm_closure ~fanout:2 ~depth:12);
      ("ivd-join", ivd_join ~objects:4000);
    ]
  else
    [
      ("tc-deep", tc_deep 120);
      ("dm-closure", dm_closure ~fanout:3 ~depth:5);
      ("ivd-join", ivd_join ~objects:800);
    ]

let write_json = Util.write_json

let key name = String.map (fun c -> if c = '-' then '_' else c) name

let run () =
  Util.header "JOIN  Join-kernel overhaul: compiled plans vs pre-PR";
  let results =
    List.map
      (fun (name, p) ->
        let ms, rep = measure (fun () -> p) in
        (name, ms, rep))
      (workloads ~full:true)
  in
  Util.table
    ~columns:
      [
        "workload"; "derived"; "rounds"; "idx-hits"; "plan-hits"; "ms";
        "pre-PR-ms"; "speedup";
      ]
    (List.map
       (fun (name, ms, rep) ->
         let base = List.assoc name baselines in
         [
           name;
           Util.fint rep.Engine.derived;
           Util.fint rep.Engine.rounds;
           Util.fint rep.Engine.index_hits;
           Util.fint rep.Engine.plan_cache_hits;
           Util.fms ms;
           Util.fms base;
           Printf.sprintf "%.1fx" (base /. ms);
         ])
       results);
  (* trimmed-workload reference times for the @bench-smoke gate *)
  let smoke =
    List.map
      (fun (name, p) ->
        let ms, _ = measure (fun () -> p) in
        (name, ms))
      (workloads ~full:false)
  in
  let fields =
    [
      ( "experiment",
        "\"join kernel: compiled plans + interned terms + signature indexes\""
      );
      ( "baseline",
        "\"pre-overhaul kernel at the preceding commit, same workloads, same \
         machine, fastest of 5 repetitions\"" );
    ]
    @ List.concat_map
        (fun (name, ms, rep) ->
          let k = key name in
          let base = List.assoc name baselines in
          [
            (k ^ "_compiled_ms", Printf.sprintf "%.3f" ms);
            (k ^ "_baseline_ms", Printf.sprintf "%.3f" base);
            (k ^ "_speedup", Printf.sprintf "%.2f" (base /. ms));
            (k ^ "_derived", string_of_int rep.Engine.derived);
            (k ^ "_index_hits", string_of_int rep.Engine.index_hits);
            (k ^ "_plan_cache_hits", string_of_int rep.Engine.plan_cache_hits);
          ])
        results
    @ List.map
        (fun (name, ms) -> ("smoke_" ^ key name ^ "_ms", Printf.sprintf "%.3f" ms))
        smoke
  in
  write_json "BENCH_join.json" fields;
  Util.note "wrote BENCH_join.json"

(* ------------------------------------------------------------------ *)
(* Smoke gate: run the trimmed workloads and fail (exit 1) if any
   materialization is more than 2x slower than the committed
   BENCH_join.json reference. Wired as `dune build @bench-smoke`.
   The gate takes the fastest of [smoke_reps] repetitions. On a shared
   2-core host a workload's times are bimodal, with slow phases that
   last seconds: ivd-join samples cluster near 10.5 ms and near 18 ms,
   against a 17.3 ms limit. Over runs of the gate, the fastest of 5
   read 17.7-22 ms, of 60 10.6-16.7 ms (ten runs), of 200
   10.2-16.6 ms (twenty runs) and of 400 9.5-10.8 ms (ten runs). A
   gate run takes about 12 s. *)

let smoke_reps = 400

let read_reference path =
  let ic = open_in path in
  let fields = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       try Scanf.sscanf line "%S: %f" (fun k x -> fields := (k, x) :: !fields)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> close_in ic);
  !fields

let smoke () =
  let path =
    match Sys.getenv_opt "KIND_JOIN_BASELINE" with
    | Some p -> p
    | None -> "BENCH_join.json"
  in
  if not (Sys.file_exists path) then begin
    Printf.printf "bench-smoke: reference %s not found\n" path;
    exit 1
  end;
  let reference = read_reference path in
  Util.header "JOIN-SMOKE  trimmed workloads vs committed BENCH_join.json";
  let failures = ref 0 in
  List.iter
    (fun (name, p) ->
      let ms, _ = measure ~reps:smoke_reps (fun () -> p) in
      match List.assoc_opt ("smoke_" ^ key name ^ "_ms") reference with
      | None ->
        Printf.printf "  %-12s %6.2f ms  (no reference entry)\n" name ms;
        incr failures
      | Some ref_ms ->
        (* the +1ms floor keeps sub-millisecond noise from tripping the
           gate on the fastest workload *)
        let ok = ms <= (2.0 *. ref_ms) +. 1.0 in
        Printf.printf "  %-12s %6.2f ms  (reference %.2f ms) %s\n" name ms
          ref_ms
          (if ok then "ok" else "REGRESSION (>2x)");
        if not ok then incr failures)
    (workloads ~full:false);
  if !failures > 0 then exit 1;
  Util.note "bench-smoke: within 2x of committed reference"
