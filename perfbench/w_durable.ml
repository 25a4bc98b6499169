(* neuro-durable: the stratified configuration of kindctl checkpoint
   (integrity-constraint mode, no inheritance) at scale 80 with
   durability on. Updates across the three sources are absorbed by
   incremental maintenance and logged to the WAL; queries follow each
   update, checkpoints every few updates, and restart-recover cycles
   rebuild the mediator from checkpoint and WAL. *)

open Common

let scale = 80
let checkpoint_every = 8
let restart_every = 32
let episode_updates = 128
let max_episodes = 40

let config dir =
  {
    M.default_config with
    M.dl_mode = Dl.Translate.Ic;
    inheritance = false;
    domains = 1;
    durability = Some (Datalog.Engine.durability ~dir ());
  }

type cycle = { update : update; reads : string array }

(* The session is a series of episodes, each starting from a fresh
   durable federation and running [episode_updates] cycles, so the data
   an operation sees does not depend on how many operations ran before
   it. Per episode: six reads, one per template, fixed for the episode
   and all asked after each update, so untouched cached answers get
   reused. The template parameters are dealt across episodes. *)
let inputs seed =
  let templates = templates (Random.State.make [| seed; 12 |]) in
  Array.init max_episodes (fun e ->
      let rng = Random.State.make [| seed; 12; e |] in
      let reads = Array.map (fun t -> t ()) templates in
      gen_updates rng ~sources:[ "SYNAPSE"; "NCMIR"; "SENSELAB" ] episode_updates
      |> List.map (fun update -> { update; reads })
      |> Array.of_list)

let fresh_dir =
  let k = ref 0 in
  fun ctx ->
    incr k;
    let d = Filename.concat ctx.dir (Printf.sprintf "durable-%d" !k) in
    mkdir_p d;
    d

let wal_size dir = (Codec.real_fs ~root:dir).Codec.size Datalog.Engine.wal_file

let build ctx p () =
  let dir = fresh_dir ctx in
  (dir, mediator (config dir) (neuro_sources p))

let materialized ctx p () =
  let dir, m = build ctx p () in
  ignore (M.materialize m);
  (dir, m)

let setup ctx ~tr met p =
  match tr with
  | None -> timed_setup met (materialized ctx p)
  | Some _ ->
    Option.iter (fun t -> Spans.set_op t 0) tr;
    let dir, m = Spans.with_ tr "setup.register" (build ctx p) in
    ignore (materialize_traced tr met m ~coverage:"trace.coverage_setup");
    probe_planner_all tr met m;
    (dir, m)

(* One episode: the cycles of [inputs] while [go k] allows a (k+1)th;
   returns how many ran. *)
let episode ctx p inputs ~tr ~resample ~go ~next met tl =
  let dir, m0 = setup ctx ~tr met p in
  let m = ref m0 in
  let stats0 = ref (M.cache_stats m0) in
  let retire () =
    cache_delta met !stats0 (M.cache_stats !m);
    runtime_totals met !m
  in
  let cycles = ref 0 in
  while !cycles < Array.length inputs && go !cycles do
    let c = inputs.(!cycles) in
    incr cycles;
    resample ();
    attempt tl "update" (fun () ->
        let wal0 = if tr = None then 0 else wal_size dir in
        let r, up_ms = op tr met ~id:(next ()) "op.update" (fun () -> push !m c.update) in
        (match ok_or_fail r with
        | Some _ -> ()
        | None -> failwith "update was not maintained incrementally");
        Metrics.add met "update_ms" up_ms;
        if tr <> None then Metrics.add met "wal.bytes_per_batch" (float_of_int (wal_size dir - wal0));
        record_maintenance met !m;
        let answers, q_ms =
          op tr met ~id:(next ()) "op.fresh_query" (fun () -> M.query_text !m (fresh_query c.update.source))
        in
        if reflects c.update (ok_or_fail answers) then Metrics.add met "fresh_ms" (up_ms +. q_ms)
        else fail tl "fresh query does not reflect the update");
    Array.iter
      (fun q ->
        attempt tl "query" (fun () ->
            let answers, ms = op tr met ~id:(next ()) "op.query" (fun () -> M.query_text !m q) in
            ignore (ok_or_fail answers);
            read met ms))
      c.reads;
    end_cycle met;
    if !cycles mod checkpoint_every = 0 then
      attempt tl "checkpoint" (fun () ->
          let bytes, ms = op ~cycle:false tr met ~id:(next ()) "op.checkpoint" (fun () -> M.checkpoint !m) in
          let bytes = ok_or_fail bytes in
          Metrics.add met "checkpoint_ms" ms;
          if tr <> None then begin
            Metrics.add met "snapshot.bytes" (float_of_int bytes);
            Metrics.add met "snapshot.bytes_per_fact"
              (float_of_int bytes /. float_of_int (Datalog.Database.cardinal (M.materialize !m)))
          end);
    if !cycles mod restart_every = 0 then
      attempt tl "recover" (fun () ->
          (* the laboratories keep their data across a mediator restart *)
          let srcs = neuro_sources p in
          replay_to_stores srcs (List.init !cycles (fun k -> inputs.(k).update));
          if tr <> None then begin
            let fs = Codec.real_fs ~root:dir in
            let _, ms = timed tr "snapshot.read" (fun () -> Datalog.Snapshot.read fs ~path:Datalog.Engine.checkpoint_file) in
            Metrics.add met "snapshot.read_ms" ms;
            let _, ms = timed tr "wal.replay" (fun () -> Datalog.Wal.replay fs ~path:Datalog.Engine.wal_file) in
            Metrics.add met "wal.replay_ms" ms
          end;
          let m', ms =
            op ~cycle:false tr met ~id:(next ()) "op.recover" (fun () ->
                let m' = mediator (config dir) srcs in
                if not (ok_or_fail (M.recover m')) then failwith "no checkpoint to recover from";
                ignore (ok_or_fail (M.query_text m' c.reads.(0)));
                m')
          in
          Metrics.add met "recover_ms" ms;
          if not (Datalog.Database.equal (M.materialize m') (M.materialize !m)) then
            fail tl "recovered base differs from the live base";
          retire ();
          m := m';
          stats0 := M.cache_stats m')
  done;
  retire ();
  (* the maintained base against a from-scratch rebuild over the
     updated stores *)
  attempt tl "verify" (fun () ->
      let srcs = neuro_sources p in
      replay_to_stores srcs (List.init !cycles (fun k -> inputs.(k).update));
      let oracle = mediator { (config dir) with M.durability = None } srcs in
      if not (Datalog.Database.equal (M.materialize oracle) (M.materialize !m)) then
        fail tl "maintained base differs from a from-scratch rebuild");
  rm_rf dir;
  !cycles

let pass ctx p episodes ~tr ~limit met tl =
  let start = Clock.now_ns () in
  let cycles = ref 0 and id = ref 0 and e = ref 0 in
  let next () = incr id; !id in
  let go k = within limit ~start ~cycles:(!cycles + k) in
  let resample =
    if tr = None then setup_sampler met ~discard:(fun (dir, _) -> rm_rf dir) (materialized ctx p) else ignore
  in
  while !e < Array.length episodes && go 0 do
    cycles := !cycles + episode ctx p episodes.(!e) ~tr ~resample ~go ~next met tl;
    incr e
  done;
  Metrics.count met "peak_heap_mb" (peak_heap_mb ());
  !cycles

let run ctx =
  let p = params ~scale in
  let inputs = inputs ctx.seed in
  let info =
    [
      ("scale", string_of_int scale);
      ("config", "integrity-constraint mode, no inheritance, domains=1, durable");
      ("durability", filesystem_of ctx.dir ^ "; fsync per WAL batch and per checkpoint");
    ]
  in
  if not ctx.trace then begin
    let met = Metrics.create () and tl = tally () in
    ignore (pass ctx p inputs ~tr:None ~limit:(Seconds ctx.seconds) met tl);
    let json = Metrics.end_to_end met in
    let report =
      json
      @ Metrics.wall_clock met
      @ Metrics.latency met ~label:"fresh" "fresh_ms"
      @ Metrics.latency met ~label:"update" "update_ms"
      @ Metrics.median_line met ~label:"checkpoint" "checkpoint_ms"
      @ Metrics.median_line met ~label:"recover" "recover_ms"
    in
    { json; report; tally = tl; spans = None; info }
  end
  else begin
    let met, tl, tr, coverage = traced_run ctx (pass ctx p inputs) in
    let json = Metrics.per_layer met in
    let extra =
      [
        Metrics.m "snapshot.read_ms" (Metrics.median met "snapshot.read_ms") "ms";
        Metrics.m "wal.replay_ms" (Metrics.median met "wal.replay_ms") "ms";
      ]
    in
    { json; report = json @ extra @ coverage; tally = tl; spans = Some tr; info }
  end
