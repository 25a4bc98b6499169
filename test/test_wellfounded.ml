(* Differential test of the well-founded semantics: Wellfounded.compute
   (stop when the negated read-set repeats) against the reference
   alternating fixpoint of wf_reference.ml (stop when both whole
   databases repeat). Both must return identical true and undefined
   facts, and the library may never apply Γ more often than the
   reference. *)

open Logic
module Database = Datalog.Database
module Program = Datalog.Program
module Wellfounded = Datalog.Wellfounded

let facts_str db =
  List.sort compare (List.map Atom.to_string (Database.all_facts db))

(* Checks one program and returns the library's model. *)
let agree ctx p edb =
  let m = Wellfounded.compute p edb in
  let r = Wf_reference.compute p edb in
  Alcotest.(check (list string))
    (ctx ^ ": true facts")
    (facts_str r.Wf_reference.true_facts)
    (facts_str m.Wellfounded.true_facts);
  Alcotest.(check (list string))
    (ctx ^ ": undefined")
    (facts_str r.Wf_reference.undefined)
    (facts_str m.Wellfounded.undefined);
  if m.Wellfounded.alternations > r.Wf_reference.alternations then
    Alcotest.failf "%s: %d alternations, the reference needs %d" ctx
      m.Wellfounded.alternations r.Wf_reference.alternations;
  m

let generated () =
  let cases = Test_differential.cases in
  let three_valued = ref 0 and several = ref 0 in
  for i = 0 to cases - 1 do
    let seed = (Test_differential.base_seed * 10_000) + i in
    let st = Random.State.make [| seed |] in
    let rules, _ = Test_differential.gen_rules ~unstratified:true st in
    let edb = Database.of_facts (Test_differential.gen_edb st) in
    let m = agree (Printf.sprintf "seed %d" seed) (Program.make_exn rules) edb in
    if not (Wellfounded.is_total m) then incr three_valued;
    if m.Wellfounded.alternations > 2 then incr several
  done;
  (* the generator must actually reach the interesting cases *)
  Alcotest.(check bool) "some models have undefined atoms" true (!three_valued > 0);
  Alcotest.(check bool) "some models need several alternations" true (!several > 0)

let win_rules =
  let v = Term.var in
  Program.make_exn
    [
      Rule.make
        (Atom.make "win" [ v "X" ])
        [ Literal.pos "move" [ v "X"; v "Y" ]; Literal.neg "win" [ v "Y" ] ];
    ]

let node i = Term.sym (Printf.sprintf "n%d" i)
let moves edges =
  Database.of_facts
    (List.map (fun (a, b) -> Atom.make "move" [ node a; node b ]) edges)

(* A chain of [tail] moves leading into an odd cycle of [cycle] nodes.
   Without an exit every node on or before the cycle is undefined; an
   exit from the cycle's first node into a chain of [exit] nodes
   settles part of it. *)
let odd_cycle ~cycle ~tail ~exit =
  let c0 = tail in
  let ring = List.init cycle (fun k -> (c0 + k, c0 + ((k + 1) mod cycle))) in
  let lead = List.init tail (fun k -> (k, k + 1)) in
  let e0 = c0 + cycle in
  let out =
    if exit = 0 then []
    else (c0, e0) :: List.init (exit - 1) (fun k -> (e0 + k, e0 + k + 1))
  in
  moves (lead @ ring @ out)

let odd_cycles () =
  let parities = Hashtbl.create 2 in
  List.iter
    (fun (cycle, tail, exit) ->
      let m =
        agree
          (Printf.sprintf "cycle %d, tail %d, exit %d" cycle tail exit)
          win_rules
          (odd_cycle ~cycle ~tail ~exit)
      in
      if not (Wellfounded.is_total m) then
        Hashtbl.replace parities (m.Wellfounded.alternations mod 2) ())
    [ (1, 0, 0); (3, 0, 0); (3, 2, 0); (5, 1, 0); (3, 0, 2); (3, 3, 3); (5, 4, 1);
      (7, 2, 2); (3, 6, 5) ];
  Alcotest.(check int) "the two-cycle stop is reached on both parities" 2
    (Hashtbl.length parities);
  let m = Wellfounded.compute win_rules (odd_cycle ~cycle:3 ~tail:0 ~exit:0) in
  Alcotest.(check int) "a bare 3-cycle: all three undefined" 3
    (Database.count m.Wellfounded.undefined "win")

(* A chain of n moves is total, but the alternation count grows with
   n, so the fixpoint stop is reached after both even and odd numbers
   of Γ applications. *)
let chains () =
  let parities = Hashtbl.create 2 in
  for n = 1 to 14 do
    let m =
      agree (Printf.sprintf "chain %d" n) win_rules
        (moves (List.init n (fun k -> (k, k + 1))))
    in
    Alcotest.(check bool) (Printf.sprintf "chain %d is total" n) true
      (Wellfounded.is_total m);
    Hashtbl.replace parities (m.Wellfounded.alternations mod 2) ()
  done;
  Alcotest.(check int) "the total stop is reached on both parities" 2
    (Hashtbl.length parities);
  let m = Wellfounded.compute win_rules (moves (List.init 14 (fun k -> (k, k + 1)))) in
  Alcotest.(check bool) "a long chain needs several alternations" true
    (m.Wellfounded.alternations > 4)

let standard_program scale =
  let m =
    Neuro.Sources.standard_mediator
      { Neuro.Sources.default_params with Neuro.Sources.scale }
  in
  match Flogic.Fl_program.compile (Mediation.Mediator.program m) with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok dp -> dp

let standard_mediator () =
  List.iter
    (fun scale ->
      let facts, p = Program.split_facts (standard_program scale) in
      let m =
        agree (Printf.sprintf "standard mediator, scale %d" scale) p
          (Database.of_facts facts)
      in
      Alcotest.(check bool) "total" true (Wellfounded.is_total m))
    [ 4; 12 ]

(* Γ(∅) derives nothing the default map reads under negation, so one Γ
   application is the whole well-founded rebuild. *)
let standard_rounds () =
  let report = ref Datalog.Engine.empty_report in
  ignore
    (Datalog.Engine.materialize ~report (standard_program 4)
       (Database.create ()));
  Alcotest.(check bool) "unstratified" false !report.Datalog.Engine.stratified;
  Alcotest.(check int) "rounds" 1 !report.Datalog.Engine.rounds

let suites =
  [
    ( "wellfounded.differential",
      [
        Alcotest.test_case
          (Printf.sprintf "%d random unstratified programs == reference"
             Test_differential.cases)
          `Quick generated;
        Alcotest.test_case "odd-cycle win/move == reference" `Quick odd_cycles;
        Alcotest.test_case "chains == reference" `Quick chains;
        Alcotest.test_case "standard mediator == reference" `Quick
          standard_mediator;
        Alcotest.test_case "standard mediator rebuild: 1 round" `Quick
          standard_rounds;
      ] );
  ]
