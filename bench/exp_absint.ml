(* ABS — dead-rule pruning and the cost of the abstract interpreter.

   The workload is a transitive closure over 400 chains (the live
   part) plus a block of expensive dead rules: each joins tc with
   itself — quadratic in path length — and then filters through a
   predicate that is provably empty or a constant that provably never
   occurs. The abstract interpreter (Analysis.Absint) proves the block
   dead from the rules and the EDB alone, so evaluating the program
   [Absint.prune] leaves never pays for the big joins.

   Measured claims, recorded in BENCH_absint.json:
   - pruned materialization is faster than unpruned (the speedup), with
     the analysis itself costing a fraction of one materialization;
   - pruning is semantics-preserving (pruned model == unpruned model);
   - linting the sample corpus (which now runs the emptiness and
     provenance fixpoints) stays in single-digit milliseconds. *)

open Kind
module Engine = Datalog.Engine
module Database = Datalog.Database
module Absint = Analysis.Absint
module D = Analysis.Diagnostic

let v = Logic.Term.var
let s = Logic.Term.sym
let rule = Logic.Rule.make
let atom = Logic.Atom.make
let pos = Logic.Literal.pos

let chains = 400
let len = 12
let dead_rules = 8

let node c k = s (Printf.sprintf "c%d_n%d" c k)

let edges () =
  atom "flag" [ s "on" ]
  :: List.concat_map
       (fun c ->
         List.init len (fun k -> atom "edge" [ node c k; node c (k + 1) ]))
       (List.init chains Fun.id)

let live_rules =
  [
    rule (atom "tc" [ v "X"; v "Y" ]) [ pos "edge" [ v "X"; v "Y" ] ];
    rule
      (atom "tc" [ v "X"; v "Y" ])
      [ pos "tc" [ v "X"; v "Z" ]; pos "edge" [ v "Z"; v "Y" ] ];
  ]

(* Each dead rule starts from the expensive self-join of tc; half are
   killed by an empty predicate, half by a ground constant foreign to
   the (small) flag relation's only column — edge's node column widens
   past the constant cap to ⊤, so a foreign constant there would
   rightly NOT be refuted. Literal order puts the join first on
   purpose: a syntactic "is some body predicate empty?" check placed
   after join planning would still pay for the reordering — the
   abstract interpreter refutes the rule before the engine ever sees
   it. *)
let dead_block =
  List.init dead_rules (fun i ->
      let head = atom (Printf.sprintf "dead%d" i) [ v "X"; v "Y" ] in
      let join = [ pos "tc" [ v "X"; v "Z" ]; pos "tc" [ v "Z"; v "Y" ] ] in
      if i mod 2 = 0 then rule head (join @ [ pos "never" [ v "Y" ] ])
      else rule head (join @ [ pos "flag" [ s "ghost" ] ]))

let write_json = Util.write_json

let read_sample name =
  let path = Filename.concat "samples" name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    Some src
  end

let lint_sample src =
  let parsed = Flogic.Fl_parser.parse_program_exn src in
  let program =
    Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
      parsed.Flogic.Fl_parser.rules
  in
  Analysis.Kindlint.lint_program
    ~positions:parsed.Flogic.Fl_parser.rule_positions program

let run () =
  Util.header "ABS  Dead-rule pruning: abstract interpretation pays for itself";
  let rules = live_rules @ dead_block in
  let p = Datalog.Program.make_exn rules in
  let edb = Database.of_facts (edges ()) in
  let ms_analysis =
    Util.time_median ~reps:5 (fun () -> ignore (Absint.prune rules edb))
  in
  let surviving = Absint.prune rules edb in
  let pruned_count = List.length rules - List.length surviving in
  (* the pruned run pays for the analysis on every repetition *)
  let materialize_pruned () =
    Engine.materialize
      (Datalog.Program.make_exn (Absint.prune rules edb))
      edb
  in
  let ms_unpruned =
    Util.time_median ~reps:3 (fun () -> ignore (Engine.materialize p edb))
  in
  let ms_pruned =
    Util.time_median ~reps:3 (fun () -> ignore (materialize_pruned ()))
  in
  let full = Engine.materialize p edb in
  let pruned_db = materialize_pruned () in
  let equal =
    Database.cardinal full = Database.cardinal pruned_db
    && List.for_all (Database.mem pruned_db) (Database.all_facts full)
  in
  let speedup = ms_unpruned /. max 0.001 ms_pruned in
  Util.table
    ~columns:[ "variant"; "ms"; "rules"; "facts" ]
    [
      [
        "unpruned";
        Util.fms ms_unpruned;
        Util.fint (List.length rules);
        Util.fint (Database.cardinal full);
      ];
      [
        "pruned";
        Util.fms ms_pruned;
        Util.fint (List.length surviving);
        Util.fint (Database.cardinal pruned_db);
      ];
    ];
  Util.note "analysis: %.2f ms for %d rules (%d proved dead)" ms_analysis
    (List.length rules) pruned_count;
  Util.note "speedup: %.1fx; models equal: %b" speedup equal;
  (* lint wall-time over the sample corpus, now that the deep passes
     run the emptiness and provenance fixpoints *)
  let lint_ms name =
    match read_sample name with
    | None ->
      Util.note "sample %s not found (run from the repo root)" name;
      (0.0, 0)
    | Some src ->
      let diags = lint_sample src in
      (Util.time_median ~reps:5 (fun () -> ignore (lint_sample src)),
       List.length diags)
  in
  let broken_ms, broken_n = lint_ms "broken.flp" in
  let spines_ms, spines_n = lint_ms "spines.flp" in
  Util.note "kindlint: broken.flp %.2f ms (%d findings), spines.flp %.2f ms (%d)"
    broken_ms broken_n spines_ms spines_n;
  write_json "BENCH_absint.json"
    [
      ("experiment", "\"dead-rule pruning via abstract interpretation\"");
      ("edb_facts", string_of_int (Database.cardinal edb));
      ("rules_total", string_of_int (List.length rules));
      ("rules_dead", string_of_int pruned_count);
      ("analysis_ms", Printf.sprintf "%.3f" ms_analysis);
      ("unpruned_materialize_ms", Printf.sprintf "%.3f" ms_unpruned);
      ("pruned_materialize_ms", Printf.sprintf "%.3f" ms_pruned);
      ("speedup", Printf.sprintf "%.1f" speedup);
      ("models_equal", string_of_bool equal);
      ("lint_broken_ms", Printf.sprintf "%.3f" broken_ms);
      ("lint_broken_findings", string_of_int broken_n);
      ("lint_spines_ms", Printf.sprintf "%.3f" spines_ms);
      ("lint_spines_findings", string_of_int spines_n);
    ];
  Util.note "wrote BENCH_absint.json"
