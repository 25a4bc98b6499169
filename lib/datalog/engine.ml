module Atom = Logic.Atom
module Subst = Logic.Subst

type durability = { fs : Codec.fs; wal_max_bytes : int }

let checkpoint_file = "checkpoint.kind"
let wal_file = "wal.kind"

let durability ?(wal_max_bytes = 1_000_000) ~dir () =
  { fs = Codec.real_fs ~root:dir; wal_max_bytes }

type config = {
  max_term_depth : int;
  max_rounds : int;
  domains : int;
  durability : durability option;
}

let default_config =
  {
    max_term_depth = 8;
    max_rounds = 100_000;
    domains = 0;
    durability = None;
  }

(* KIND_DURABLE_DIR makes every stratified materialization checkpoint
   and every maintenance batch write-ahead-log into the named directory
   — how `dune runtest` exercises durability without per-test wiring. *)
let env_durability =
  lazy
    (match Sys.getenv_opt "KIND_DURABLE_DIR" with
    | None | Some "" -> None
    | Some dir -> Some (durability ~dir ()))

let effective_durability config =
  match config.durability with
  | Some d -> Some d
  | None -> Lazy.force env_durability

let effective_domains config =
  if config.domains > 0 then min config.domains 64 else Pool.env_domains ()

let pool_of config = Pool.get (effective_domains config)

exception Undefined_atoms of int

type report = {
  stratified : bool;
  strata : int;
  rounds : int;
  derived : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
  plan_cache_hits : int;
  strata_skipped : int;
  delta_facts : int;
  domains_used : int;
  parallel_batches : int;
  checkpoint_ms : float;
  recovery_ms : float;
  wal_bytes : int;
}

let empty_report =
  {
    stratified = true;
    strata = 0;
    rounds = 0;
    derived = 0;
    skolems_suppressed = 0;
    joins = 0;
    tuples_scanned = 0;
    index_hits = 0;
    plan_cache_hits = 0;
    strata_skipped = 0;
    delta_facts = 0;
    domains_used = 1;
    parallel_batches = 0;
    checkpoint_ms = 0.0;
    recovery_ms = 0.0;
    wal_bytes = 0;
  }

let materialize ?(config = default_config) ?report p edb =
  let stats = Eval.new_stats () in
  let pool = pool_of config in
  let durable = effective_durability config in
  let facts, p = Program.split_facts p in
  let db = Database.copy edb in
  List.iter (fun f -> ignore (Database.add_fact db f)) facts;
  (* the base-fact database a checkpoint must carry so recovery can
     re-adopt the materialization for incremental maintenance *)
  let base = match durable with Some _ -> Some (Database.copy db) | None -> None in
  let fill_report ~checkpoint_ms ~wal_bytes ~stratified ~strata
      ~rounds ~derived ~skolems =
    match report with
    | None -> ()
    | Some r ->
      r :=
        {
          stratified;
          strata;
          rounds;
          derived;
          skolems_suppressed = skolems;
          joins = Atomic.get stats.Eval.joins;
          tuples_scanned = Atomic.get stats.Eval.tuples_scanned;
          index_hits = Atomic.get stats.Eval.index_hits;
          plan_cache_hits = Atomic.get stats.Eval.plan_cache_hits;
          strata_skipped = 0;
          delta_facts = 0;
          domains_used =
            (match pool with Some p -> Pool.size p | None -> 1);
          parallel_batches = Atomic.get stats.Eval.parallel_batches;
          checkpoint_ms;
          recovery_ms = 0.0;
          wal_bytes;
        }
  in
  match Stratify.rules_by_stratum p with
  | Ok strata ->
    let rounds = ref 0 and derived = ref 0 and skolems = ref 0 in
    List.iter
      (fun rules ->
        if rules <> [] then begin
          let o =
            Seminaive.run ~stats ?pool ~max_term_depth:config.max_term_depth
              ~max_rounds:config.max_rounds ~neg:db rules db
          in
          rounds := !rounds + o.Seminaive.rounds;
          derived := !derived + o.Seminaive.derived;
          skolems := !skolems + o.Seminaive.skolems_suppressed
        end)
      strata;
    let checkpoint_ms, wal_bytes =
      match (durable, base) with
      | Some d, Some base ->
        let t0 = Unix.gettimeofday () in
        (* the checkpoint and the log reset that follows carry a
           fresh generation: a crash between the two leaves the old
           log stamped with the old generation, which recovery
           detects and discards instead of replaying stale deltas
           over a materialization they never touched *)
        let gen = Wal.generation d.fs ~path:wal_file + 1 in
        ignore
          (Snapshot.write d.fs ~path:checkpoint_file
             {
               Snapshot.db;
               edb = base;
               counters =
                 [
                   ("generation", float_of_int gen);
                   ("strata", float_of_int (List.length strata));
                   ("rounds", float_of_int !rounds);
                   ("derived", float_of_int !derived);
                   ("skolems_suppressed", float_of_int !skolems);
                 ];
             });
        (* a fresh checkpoint subsumes every logged batch *)
        Wal.reset d.fs ~path:wal_file ~gen;
        ( (Unix.gettimeofday () -. t0) *. 1000.0,
          d.fs.Codec.size wal_file )
      | _ -> (0.0, 0)
    in
    fill_report ~checkpoint_ms ~wal_bytes ~stratified:true
      ~strata:(List.length strata)
      ~rounds:!rounds ~derived:!derived ~skolems:!skolems;
    db
  | Error _ ->
    let model =
      Wellfounded.compute ~stats ?pool ~max_term_depth:config.max_term_depth
        ~max_rounds:config.max_rounds p db
    in
    let undef = Database.cardinal model.Wellfounded.undefined in
    if undef > 0 then raise (Undefined_atoms undef);
    fill_report ~checkpoint_ms:0.0 ~wal_bytes:0 ~stratified:false ~strata:1
      ~rounds:model.Wellfounded.alternations
      ~derived:(Database.cardinal model.Wellfounded.true_facts
                - Database.cardinal db)
      ~skolems:0;
    model.Wellfounded.true_facts

let maintain ?(config = default_config) ?report p db delta =
  let pool = pool_of config in
  match
    Maintain.of_materialized ?pool ~max_term_depth:config.max_term_depth
      ~max_rounds:config.max_rounds p db
  with
  | Error e -> Error e
  | Ok h -> (
    let durable = effective_durability config in
    (* Write-ahead: the batch frame is durable (fsync'd) before any of
       it is applied, so a crash mid-maintenance recovers to either the
       pre-batch state (append torn) or the post-batch state (append
       complete, batch replayed). Only a batch [apply] will accept is
       logged — a non-ground fact fails validation without mutating,
       and must not poison recovery. *)
    let wal =
      match durable with
      | Some d
        when List.for_all Atom.is_ground
               (delta.Maintain.additions @ delta.Maintain.deletions) ->
        let w = Wal.open_log d.fs ~path:wal_file in
        Wal.append w
          {
            Wal.additions = delta.Maintain.additions;
            deletions = delta.Maintain.deletions;
          };
        Some w
      | _ -> None
    in
    (* the sink must not leak even when [apply] raises (e.g. max_rounds
       exceeded deep in maintenance); [Wal.close] is idempotent, so the
       rotation path's early close composes with the finalizer *)
    Fun.protect
      ~finally:(fun () -> Option.iter Wal.close wal)
    @@ fun () ->
    match Maintain.apply h delta with
    | Error e -> Error e
    | Ok rep ->
      let checkpoint_ms, wal_bytes =
        match (durable, wal) with
        | Some d, Some w ->
          let bytes = Wal.bytes w in
          Wal.close w;
          if bytes > d.wal_max_bytes then begin
            (* rotation: checkpoint the maintained state under a fresh
               generation, then compact the log. A crash between the
               two leaves the old-generation log paired with the new
               checkpoint — recovery sees the mismatch and uses the
               checkpoint alone, which already includes this batch. *)
            let t0 = Unix.gettimeofday () in
            let gen = Wal.gen w + 1 in
            ignore
              (Snapshot.write d.fs ~path:checkpoint_file
                 {
                   Snapshot.db;
                   edb = Maintain.edb h;
                   counters = [ ("generation", float_of_int gen) ];
                 });
            Wal.reset d.fs ~path:wal_file ~gen;
            ( (Unix.gettimeofday () -. t0) *. 1000.0,
              d.fs.Codec.size wal_file )
          end
          else (0.0, bytes)
        | _ -> (0.0, 0)
      in
      (match report with
      | None -> ()
      | Some r ->
        r :=
          {
            stratified = true;
            strata = rep.Maintain.strata;
            rounds = rep.Maintain.rounds;
            derived = rep.Maintain.added;
            skolems_suppressed = rep.Maintain.skolems_suppressed;
            joins = rep.Maintain.joins;
            tuples_scanned = rep.Maintain.tuples_scanned;
            index_hits = rep.Maintain.index_hits;
            plan_cache_hits = rep.Maintain.plan_cache_hits;
            strata_skipped = rep.Maintain.skipped;
            delta_facts = rep.Maintain.added + rep.Maintain.removed;
            domains_used =
              (match pool with Some p -> Pool.size p | None -> 1);
            parallel_batches = rep.Maintain.parallel_batches;
            checkpoint_ms;
            recovery_ms = 0.0;
            wal_bytes;
          });
      Ok rep)

let recover ?(config = default_config) ?report p =
  match effective_durability config with
  | None ->
    Error
      "Engine.recover: no durability configured (set config.durability or \
       KIND_DURABLE_DIR)"
  | Some d -> (
    let t0 = Unix.gettimeofday () in
    match Snapshot.read d.fs ~path:checkpoint_file with
    | Error e -> Error ("Engine.recover: " ^ e)
    | Ok None -> Ok None
    | Ok (Some snap) -> (
      match Wal.replay d.fs ~path:wal_file with
      | Error e -> Error ("Engine.recover: " ^ e)
      | Ok (wal_gen, entries, _tail) -> (
        (* a torn tail is a batch whose append barrier never completed:
           it was not applied before the crash, so dropping it is the
           pre-batch state — exactly what atomicity promises *)
        let ckpt_gen =
          match List.assoc_opt "generation" snap.Snapshot.counters with
          | Some v -> int_of_float v
          | None -> 0
        in
        (* a generation mismatch means the crash fell between a
           checkpoint write and its log reset: the surviving entries
           belong to the previous checkpoint (materialize: superseded;
           rotation: already included), so the checkpoint alone is the
           recovered state — and the pairing is repaired on disk so
           later appends land in a log recovery will trust *)
        let entries =
          if wal_gen = ckpt_gen then entries
          else begin
            Wal.reset d.fs ~path:wal_file ~gen:ckpt_gen;
            []
          end
        in
        let db = snap.Snapshot.db in
        let delta_facts = ref 0 in
        (* the model is a function of the final base database, so the
           whole log suffix replays as ONE coalesced maintenance batch
           — one propagation pass instead of one per entry; an empty
           net delta skips maintenance (and its prewarm copy) entirely *)
        let net = Wal.coalesce entries in
        let replay_all () =
          if net.Wal.additions = [] && net.Wal.deletions = [] then Ok ()
          else
            match
              Maintain.of_materialized ?pool:(pool_of config)
                ~max_term_depth:config.max_term_depth
                ~max_rounds:config.max_rounds ~edb:snap.Snapshot.edb
                ~prewarm:false p db
            with
            | Error e -> Error ("Engine.recover: " ^ e)
            | Ok h -> (
              match
                Maintain.apply h
                  (Maintain.delta ~additions:net.Wal.additions
                     ~deletions:net.Wal.deletions ())
              with
              | Error err -> Error ("Engine.recover: " ^ err)
              | Ok rep ->
                delta_facts := rep.Maintain.added + rep.Maintain.removed;
                Ok ())
        in
        match replay_all () with
        | Error e -> Error e
        | Ok () ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          (match report with
          | None -> ()
          | Some r ->
            let geti k =
              match List.assoc_opt k snap.Snapshot.counters with
              | Some v -> int_of_float v
              | None -> 0
            in
            r :=
              {
                empty_report with
                strata = geti "strata";
                rounds = geti "rounds";
                derived = geti "derived";
                skolems_suppressed = geti "skolems_suppressed";
                delta_facts = !delta_facts;
                recovery_ms = ms;
                wal_bytes = d.fs.Codec.size wal_file;
              });
          Ok (Some db))))

(* One literal is one index lookup, where the interpreter beats
   compiling a plan. Longer bodies run as a plan whose head is the
   variables the body binds; each distinct head row is one answer.
   Rows are deduplicated on their intern ids: structural hashing of
   nested skolem terms collides. *)
let query ?stats db lits =
  match lits with
  | [] | [ _ ] -> Eval.solve_body ?stats ~db ~neg:db lits
  | _ ->
    let vars =
      List.sort_uniq String.compare (List.concat_map Logic.Literal.binds lits)
    in
    let head = Atom.make "query" (List.map Logic.Term.var vars) in
    let plan = Plan.compile (Logic.Rule.make head lits) ~focus:None in
    let rows, _ =
      Plan.run_rows ?stats ~max_term_depth:max_int ~db ~neg:db plan
    in
    let seen = Tuple.Hashset.create 64 in
    List.fold_left
      (fun acc row ->
        if not (Tuple.Hashset.add seen row) then acc
        else
          List.fold_left2
            (fun s x t -> Subst.bind x t s)
            Subst.empty vars (Tuple.Packed.to_list row)
          :: acc)
      [] rows

let answers db (a : Atom.t) =
  let ss = query db [ Logic.Literal.Pos a ] in
  List.map (fun s -> List.map (Subst.apply s) a.Atom.args) ss
  |> List.sort_uniq Tuple.compare

let holds db a = answers db a <> []
