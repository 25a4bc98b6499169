(* The abstract-interpretation layer (Analysis.Absint and the passes
   built on it).

   The load-bearing check is the pruning differential: on the same
   random stratified programs as Test_differential, the program
   [Absint.prune] leaves must have exactly the model of the unpruned
   program, under both the naive oracle and the engine. A
   no-false-positive property makes the soundness contract explicit:
   every rule the analysis verdicts [Dead] can be removed without
   changing the model.

   Goldens pin the seeded defects in samples/broken.flp (empty-join,
   dead-rule, no-source, unknown-namespace) and that samples/spines.flp
   stays clean of them; a regression covers alpha-equivalent duplicate
   detection past the subsumption-size cutoff. *)

open Logic
module Engine = Datalog.Engine
module Database = Datalog.Database
module Program = Datalog.Program
module Absint = Analysis.Absint
module D = Analysis.Diagnostic

let cases = Test_differential.cases
let base_seed = Test_differential.base_seed

(* ------------------------------------------------------------------ *)
(* Value lattice *)

let ctx = Absint.make_ctx ()

let consts xs =
  Absint.Consts (Absint.TS.of_list (List.map Term.sym xs))

let value_t = Alcotest.testable Absint.pp_value Absint.value_equal
let check_value msg = Alcotest.check value_t msg

let lattice () =
  let j = Absint.value_join ctx and m = Absint.value_meet ctx in
  check_value "bot is join identity" (consts [ "a" ])
    (j Absint.Vbot (consts [ "a" ]));
  check_value "top absorbs" Absint.Vtop (j Absint.Vtop (consts [ "a" ]));
  check_value "const sets union" (consts [ "a"; "b" ])
    (j (consts [ "a" ]) (consts [ "b" ]));
  check_value "meet of disjoint consts is bot" Absint.Vbot
    (m (consts [ "a" ]) (consts [ "b" ]));
  check_value "meet intersects" (consts [ "b" ])
    (m (consts [ "a"; "b" ]) (consts [ "b"; "c" ]));
  Alcotest.(check bool) "membership in consts" true
    (Absint.value_mem ctx (Term.sym "a") (consts [ "a"; "b" ]));
  Alcotest.(check bool) "non-membership in consts" false
    (Absint.value_mem ctx (Term.sym "z") (consts [ "a"; "b" ]));
  (* without a cones oracle, a chain of singleton joins widens to ⊤
     once it outgrows the cap, so fixpoints terminate *)
  let big =
    List.init (Absint.default_cap + 1) (fun i -> Printf.sprintf "c%d" i)
  in
  check_value "cap widens to top" Absint.Vtop
    (List.fold_left (fun v c -> j v (consts [ c ])) Absint.Vbot big)

(* ------------------------------------------------------------------ *)
(* Direct emptiness verdicts *)

let v = Term.var
let s = Term.sym

let verdict_is_dead = function Absint.Dead _ -> true | Absint.Live -> false

let emptiness_verdicts () =
  let edb =
    Database.of_facts
      [ Atom.make "e" [ s "a"; s "b" ]; Atom.make "e" [ s "b"; s "c" ] ]
  in
  let rules =
    [
      (* live: joins within the EDB's constants *)
      Rule.make (Atom.make "p" [ v "X" ]) [ Literal.pos "e" [ v "X"; v "Y" ] ];
      (* foreign constant: k never occurs in e's columns *)
      Rule.make (Atom.make "q" [ v "X" ])
        [ Literal.pos "e" [ v "X"; s "k" ] ];
      (* reads a provably empty predicate *)
      Rule.make (Atom.make "r" [ v "X" ]) [ Literal.pos "q" [ v "X" ] ];
      (* ground comparison that can never hold *)
      Rule.make (Atom.make "w" [ v "X" ])
        [ Literal.pos "e" [ v "X"; v "Y" ]; Literal.cmp Literal.Eq (s "a") (s "b") ];
    ]
  in
  let a = Absint.emptiness ~edb rules in
  (match a.Absint.verdicts with
  | [ v1; v2; v3; v4 ] ->
    Alcotest.(check bool) "join rule live" false (verdict_is_dead v1);
    Alcotest.(check bool) "foreign constant dead" true (verdict_is_dead v2);
    Alcotest.(check bool) "empty predicate propagates" true (verdict_is_dead v3);
    Alcotest.(check bool) "false ground comparison dead" true
      (verdict_is_dead v4)
  | vs -> Alcotest.failf "expected 4 verdicts, got %d" (List.length vs));
  (* the same program pruned: only the live rule survives *)
  Alcotest.(check int) "prune keeps the live rule" 1
    (List.length (Absint.prune rules edb));
  (* an open predicate must not be reasoned about *)
  let open_a =
    Absint.emptiness ~edb ~assume_nonempty:(String.equal "q") rules
  in
  Alcotest.(check bool) "open predicate stays live downstream" false
    (verdict_is_dead (List.nth open_a.Absint.verdicts 2))

let negation_never_kills () =
  (* a negated literal over an empty predicate is trivially true — it
     must never contribute a Dead verdict *)
  let edb = Database.of_facts [ Atom.make "e" [ s "a" ] ] in
  let rules =
    [
      Rule.make (Atom.make "q" [ v "X" ])
        [ Literal.pos "e" [ v "X" ]; Literal.pos "zero" [ v "X" ] ];
      Rule.make (Atom.make "p" [ v "X" ])
        [ Literal.pos "e" [ v "X" ]; Literal.neg "zero" [ v "X" ] ];
    ]
  in
  let a = Absint.emptiness ~edb rules in
  Alcotest.(check bool) "rule under negation of empty pred is live" false
    (verdict_is_dead (List.nth a.Absint.verdicts 1))

(* ------------------------------------------------------------------ *)
(* Pruning differential *)

let run_case seed =
  let st = Random.State.make [| seed |] in
  let rules, _ = Test_differential.gen_rules st in
  let p = Program.make_exn rules in
  let edb = Database.of_facts (Test_differential.gen_edb st) in
  let ctx what = Printf.sprintf "seed %d: %s" seed what in
  let full = Engine.materialize p edb in
  (* the pruned program is invisible to the naive oracle and to the
     engine *)
  let pruned = Program.make_exn (Absint.prune rules edb) in
  Test_differential.check_same
    (ctx "pruned naive == unpruned")
    (Datalog.Naive.materialize pruned edb)
    full;
  Test_differential.check_same
    (ctx "pruned seminaive == unpruned")
    (Engine.materialize pruned edb)
    full;
  (* no false positives: a Dead-verdicted rule derives nothing, so
     removing it from the (unpruned) program leaves the model intact *)
  let a = Absint.emptiness ~edb rules in
  List.iteri
    (fun i verdict ->
      if verdict_is_dead verdict then
        let without = List.filteri (fun j _ -> j <> i) rules in
        Test_differential.check_same
          (ctx (Printf.sprintf "dead rule #%d truly derives nothing" i))
          (Engine.materialize (Program.make_exn without) edb)
          full)
    a.Absint.verdicts

let differential () =
  for i = 0 to cases - 1 do
    run_case ((base_seed * 10_000) + i)
  done

(* ------------------------------------------------------------------ *)
(* Goldens on the sample corpus *)

let read_sample name =
  let candidates =
    [
      Filename.concat "../samples" name;
      Filename.concat "samples" name;
      Filename.concat "../../samples" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "sample %s not found from %s" name (Sys.getcwd ())
  | Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    src

let lint_sample name =
  let parsed = Flogic.Fl_parser.parse_program_exn (read_sample name) in
  let program =
    Flogic.Fl_program.make ~signature:parsed.Flogic.Fl_parser.signature
      parsed.Flogic.Fl_parser.rules
  in
  Analysis.Kindlint.lint_program
    ~positions:parsed.Flogic.Fl_parser.rule_positions program

let codes diags = List.sort_uniq compare (List.map (fun d -> d.D.code) diags)

let absint_codes = [ "empty-join"; "dead-rule"; "no-source"; "unknown-namespace" ]

let broken_goldens () =
  let diags = lint_sample "broken.flp" in
  let cs = codes diags in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "broken.flp trips %s" c)
        true (List.mem c cs))
    absint_codes;
  (* the seeded defects land on the right rules *)
  let hits code =
    List.filter_map
      (fun d ->
        match (d.D.code = code, d.D.location) with
        | true, D.Rule { text; _ } -> Some text
        | _ -> None)
      diags
  in
  Alcotest.(check bool) "phantom is the empty join" true
    (List.exists
       (fun t -> List.mem "phantom" (String.split_on_char '(' t))
       (hits "empty-join"));
  Alcotest.(check bool) "haunted is the dead rule" true
    (List.exists
       (fun t -> List.mem "haunted" (String.split_on_char '(' t))
       (hits "dead-rule"));
  (* positions flowed from the parser into the diagnostics *)
  Alcotest.(check bool) "some diagnostic carries a source position" true
    (List.exists
       (fun d ->
         match d.D.location with
         | D.Rule { pos = Some _; _ } -> true
         | _ -> false)
       diags)

let spines_clean () =
  let cs = codes (lint_sample "spines.flp") in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "spines.flp free of %s" c)
        false (List.mem c cs))
    absint_codes

(* ------------------------------------------------------------------ *)
(* Alpha-equivalent duplicates (regression for the satellite): with
   seven body literals the pairwise-subsumption check is over its size
   cutoff, so only the canonical-form comparison can catch the renamed
   copy. *)

let alpha_duplicate () =
  let body vars =
    List.mapi
      (fun i x -> Literal.pos (Printf.sprintf "e%d" i) [ v x; v "Z" ])
      vars
  in
  let r1 =
    Rule.make (Atom.make "p" [ v "A" ])
      (body [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ])
  in
  let r2 =
    Rule.make (Atom.make "p" [ v "U" ])
      (body [ "U"; "V"; "W"; "X"; "Y"; "T"; "S" ])
  in
  let diags = Analysis.Rule_lint.lint ~check_unused:false [ r1; r2 ] in
  let dup =
    List.find_opt (fun d -> d.D.code = "duplicate-rule") diags
  in
  match dup with
  | None -> Alcotest.fail "renamed 7-literal duplicate not flagged"
  | Some d ->
    Alcotest.(check bool) "message mentions the renaming" true
      (let needle = "variable renaming" in
       let n = String.length needle and m = String.length d.D.message in
       let rec scan i =
         i + n <= m && (String.sub d.D.message i n = needle || scan (i + 1))
       in
       scan 0)

let alpha_not_confused () =
  (* same shape, different join structure: not a duplicate *)
  let r1 =
    Rule.make (Atom.make "p" [ v "A" ])
      [ Literal.pos "e" [ v "A"; v "B" ]; Literal.pos "e" [ v "B"; v "C" ] ]
  in
  let r2 =
    Rule.make (Atom.make "p" [ v "A" ])
      [ Literal.pos "e" [ v "A"; v "B" ]; Literal.pos "e" [ v "A"; v "C" ] ]
  in
  let diags = Analysis.Rule_lint.lint ~check_unused:false [ r1; r2 ] in
  Alcotest.(check bool) "different join structure kept" false
    (List.exists (fun d -> d.D.code = "duplicate-rule") diags)

let suites =
  [
    ( "absint",
      [
        Alcotest.test_case "value lattice joins, meets and widening" `Quick
          lattice;
        Alcotest.test_case "emptiness verdicts on a crafted program" `Quick
          emptiness_verdicts;
        Alcotest.test_case "negation never contributes a Dead verdict" `Quick
          negation_never_kills;
        Alcotest.test_case
          (Printf.sprintf
             "pruning is invisible on %d random programs (all engines)" cases)
          `Quick differential;
        Alcotest.test_case "broken.flp goldens (seeded defects all fire)"
          `Quick broken_goldens;
        Alcotest.test_case "spines.flp stays clean of absint codes" `Quick
          spines_clean;
        Alcotest.test_case "alpha-equivalent 7-literal duplicate flagged"
          `Quick alpha_duplicate;
        Alcotest.test_case "non-equivalent join shapes not merged" `Quick
          alpha_not_confused;
      ] );
  ]
