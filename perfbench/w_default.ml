(* neuro-default: the default standard_mediator (assertion-mode domain
   map, unstratified, so no maintenance handle) at scale 12. Ten FL
   queries per SYNAPSE update; every update invalidates the base and the
   next query pays a full well-founded rebuild. At scale 40 a rebuild
   takes about 0.55 s, so a 30 s run had some 50 cycles, too few for a
   p90 with ten cycles beyond it; at scale 12 it takes about 0.12 s and
   evaluation is still 98% of it. *)

open Common

let scale = 12
let config = { M.default_config with M.domains = 1 }
let max_cycles = 2000

(* Set-ups timed back to back before the session. Unlike the other
   workloads, this one does not repeat its set-up between cycles: a
   set-up is a full materialization, and the collection of its garbage
   would land in the next cycles and double the cycle p90. *)
let setup_reps = 9

(* One cycle: an update, its freshness query, then nine reads: six
   templates, and the first three again (cache hits). *)
type cycle = { update : update; reads : string array }

let inputs seed =
  let rng = Random.State.make [| seed; 11 |] in
  let templates = templates rng in
  gen_updates rng ~sources:[ "SYNAPSE" ] max_cycles
  |> List.map (fun update ->
         let qs = Array.map (fun t -> t ()) templates in
         { update; reads = Array.append qs (Array.sub qs 0 3) })
  |> Array.of_list

let build p = Neuro.Sources.standard_mediator ~config p

let materialized p () =
  let med = build p in
  ignore (M.materialize med);
  med

let setup ~tr met p =
  match tr with
  | None ->
    for _ = 2 to setup_reps do
      ignore (timed_setup met (materialized p))
    done;
    timed_setup met (materialized p)
  | Some _ ->
    Option.iter (fun t -> Spans.set_op t 0) tr;
    let med = Spans.with_ tr "setup.register" (fun () -> build p) in
    ignore (materialize_traced tr met med ~coverage:"trace.coverage_setup");
    probe_planner_all tr met med;
    med

let pass p inputs ~tr ~limit met tl =
  let m = setup ~tr met p in
  let stats0 = M.cache_stats m in
  let start = Clock.now_ns () in
  let cycles = ref 0 and id = ref 0 in
  let next () = incr id; !id in
  while !cycles < Array.length inputs && within limit ~start ~cycles:!cycles do
    let c = inputs.(!cycles) in
    incr cycles;
    attempt tl "update" (fun () ->
        let r, up_ms = op tr met ~id:(next ()) "op.update" (fun () -> push m c.update) in
        ignore (ok_or_fail r);
        Metrics.add met "update_ms" up_ms;
        (* traced: the layers of the rebuild the next query pays, outside
           the timed operations; then the query, with the rebuild it
           triggers in a span of its own *)
        let layers_ms = if tr = None then 0. else decompose tr met m in
        let answers, q_ms =
          op tr met ~id:(next ()) "op.fresh_query" (fun () ->
              if tr <> None then begin
                let _, ms = timed tr "mediator.materialize" (fun () -> M.materialize m) in
                Metrics.add met "trace.coverage_rebuild" (layers_ms /. ms)
              end;
              M.query_text m (fresh_query c.update.source))
        in
        if reflects c.update (ok_or_fail answers) then Metrics.add met "fresh_ms" (up_ms +. q_ms)
        else fail tl "fresh query does not reflect the update");
    Array.iter
      (fun q ->
        attempt tl "query" (fun () ->
            let answers, ms = op tr met ~id:(next ()) "op.query" (fun () -> M.query_text m q) in
            ignore (ok_or_fail answers);
            read met ms))
      c.reads;
    end_cycle met
  done;
  Metrics.count met "peak_heap_mb" (peak_heap_mb ());
  cache_delta met stats0 (M.cache_stats m);
  runtime_totals met m;
  (* the final answers against a fresh mediator built over the updated
     stores *)
  let history = List.init !cycles (fun k -> inputs.(k).update) in
  let oracle = build p in
  List.iter (fun u -> ignore (ok_or_fail (push oracle u))) history;
  let texts =
    List.sort_uniq compare
      (List.concat_map (fun k -> Array.to_list inputs.(k).reads) (List.init !cycles Fun.id)
      @ [ fresh_query "SYNAPSE" ])
  in
  List.iter
    (fun q ->
      attempt tl "verify" (fun () ->
          let live = normalize (ok_or_fail (M.query_text m q)) in
          let fresh = normalize (ok_or_fail (M.query_text oracle q)) in
          if live <> fresh then fail tl ("answers differ from a fresh mediator: " ^ q)))
    texts;
  !cycles

let run ctx =
  let p = params ~scale in
  let inputs = inputs ctx.seed in
  let info = [ ("scale", string_of_int scale); ("config", "default (assertion mode), domains=1") ] in
  if not ctx.trace then begin
    let met = Metrics.create () and tl = tally () in
    ignore (pass p inputs ~tr:None ~limit:(Seconds ctx.seconds) met tl);
    let json = Metrics.end_to_end met in
    let report =
      json
      @ Metrics.wall_clock met
      @ Metrics.latency met ~label:"fresh" "fresh_ms"
      @ Metrics.latency met ~label:"update" "update_ms"
    in
    { json; report; tally = tl; spans = None; info }
  end
  else begin
    let met, tl, tr, coverage = traced_run ctx (pass p inputs) in
    let json = Metrics.per_layer met in
    { json; report = json @ coverage; tally = tl; spans = Some tr; info }
  end
