(* neuro-planner: the three neuro sources plus ten distractor sources at
   scale 80, default configuration, never materialized. The session
   alternates the Section 5 four-step plan with a conjunctive bind-join
   query; both fetch from the wrappers, so the engine does no work. *)

open Common

let scale = 80
let distractors = 10
let config = { M.default_config with M.domains = 1 }
let max_pairs = 20000

let build p =
  let m = Neuro.Sources.standard_mediator ~config p in
  register m (List.init distractors (fun i -> Neuro.Sources.distractor p ~index:(i + 1)));
  m

(* Each pair: one Section 5 parameter set and one conjunctive query, both
   dealt from the parameter sets present in the generated data; the
   plan's only from those whose step 2 can reach protein data. *)
let inputs p seed =
  let m = build p in
  let all = s5_params m in
  let plans = List.filter (reaches_proteins m) all in
  let rng = Random.State.make [| seed; 13 |] in
  let next_plan = deck rng plans and next_cq = deck rng all in
  Array.init max_pairs (fun _ ->
      let s5 = next_plan () in
      (s5, cq_text (next_cq ())))

let setup ~tr met p =
  match tr with
  | None -> timed_setup met (fun () -> build p)
  | Some _ ->
    Option.iter (fun t -> Spans.set_op t 0) tr;
    Spans.with_ tr "setup.register" (fun () -> build p)

let pass p inputs ~tr ~limit met tl =
  let m = setup ~tr met p in
  let resample = if tr = None then setup_sampler met (fun () -> build p) else ignore in
  let stats0 = M.cache_stats m in
  let first = Hashtbl.create 8 in
  let start = Clock.now_ns () in
  let cycles = ref 0 and id = ref 0 in
  let next () = incr id; !id in
  while !cycles < Array.length inputs && within limit ~start ~cycles:!cycles do
    let q, cq = inputs.(!cycles) in
    incr cycles;
    resample ();
    attempt tl "plan" (fun () ->
        let r, ms = op tr met ~id:(next ()) "op.plan" (fun () -> s5_outcome m q) in
        let outcome = ok_or_fail r in
        if outcome.Mediation.Section5.proteins = [] then fail tl "Section 5 plan found no proteins"
        else Metrics.add met "plan_ms" ms;
        if tr <> None then probe_planner tr met m q ~outcome ~cq);
    attempt tl "cq" (fun () ->
        let r, ms = op tr met ~id:(next ()) "op.cq" (fun () -> Mediation.Conjunctive.run_text m cq) in
        let answers, report = ok_or_fail r in
        read met ms;
        if tr <> None then begin
          Metrics.add met "conjunctive.tuples_moved" (float_of_int report.Mediation.Conjunctive.tuples_moved);
          Metrics.add met "conjunctive.sources_contacted"
            (float_of_int (List.length report.Mediation.Conjunctive.sources_contacted))
        end;
        (* the first answer set of each query is checked after the
           session; later ones must agree with it *)
        match Hashtbl.find_opt first cq with
        | None -> Hashtbl.replace first cq answers
        | Some a ->
          if List.length a <> List.length answers then fail tl "conjunctive answers changed between runs");
    end_cycle met
  done;
  Metrics.count met "peak_heap_mb" (peak_heap_mb ());
  cache_delta met stats0 (M.cache_stats m);
  runtime_totals met m;
  (* the conjunctive answers against the mediator's own answers on a
     materialized copy of the same federation *)
  let copy = build p in
  if tr <> None then begin
    Option.iter (fun t -> Spans.set_op t 0) tr;
    ignore (materialize_traced tr met copy ~coverage:"trace.coverage_setup")
  end;
  Hashtbl.iter
    (fun cq answers ->
      attempt tl "verify" (fun () ->
          let expected = normalize ~vars:cq_vars (ok_or_fail (M.query_text copy cq)) in
          if normalize ~vars:cq_vars answers <> expected then
            fail tl ("conjunctive answers differ from the materialized copy: " ^ cq)))
    first;
  !cycles

let run ctx =
  let p = params ~scale in
  let inputs = inputs p ctx.seed in
  let info =
    [ ("scale", string_of_int scale); ("config", "default, 3 neuro + 10 distractor sources, domains=1") ]
  in
  if not ctx.trace then begin
    let met = Metrics.create () and tl = tally () in
    ignore (pass p inputs ~tr:None ~limit:(Seconds ctx.seconds) met tl);
    let json = Metrics.end_to_end met in
    let report =
      json @ Metrics.wall_clock met @ Metrics.latency met ~label:"plan" "plan_ms"
    in
    { json; report; tally = tl; spans = None; info }
  end
  else begin
    let met, tl, tr, coverage = traced_run ctx (pass p inputs) in
    let json = Metrics.per_layer met in
    { json; report = json @ coverage; tally = tl; spans = Some tr; info }
  end
