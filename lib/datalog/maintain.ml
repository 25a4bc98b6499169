module Atom = Logic.Atom
module Rule = Logic.Rule
module Literal = Logic.Literal
module SS = Set.Make (String)

type delta = { additions : Atom.t list; deletions : Atom.t list }

let delta ?(additions = []) ?(deletions = []) () = { additions; deletions }

let delta_is_empty d = d.additions = [] && d.deletions = []

type action = Skipped | Propagated | Recomputed

type stratum_report = {
  stratum : int;
  action : action;
  delta_in : int;
  added : int;
  removed : int;
  rounds : int;
}

type report = {
  added : int;
  removed : int;
  rounds : int;
  strata : int;
  skipped : int;
  recomputed : int;
  skolems_suppressed : int;
  joins : int;
  tuples_scanned : int;
  index_hits : int;
  plan_cache_hits : int;
  parallel_batches : int;
  touched : string list;
  per_stratum : stratum_report list;
}

(* A stratum with the predicates its rules read positively, under
   negation and inside an aggregate; its maintenance steps are resolved
   on first use and kept for the handle's lifetime. *)
type stratum = {
  rules : Rule.t list;
  heads : SS.t;
  pos : SS.t;
  neg : SS.t;
  agg : SS.t;
  mutable steps : steps option;
}

and steps = {
  focus : Seminaive.step list;  (* one per (rule, positive literal) *)
  unblock : Seminaive.step list;
      (* per negated literal [not q(args)]: the rule plus a positive
         [q(args)] focused on removed [q] rows — the instances a removal
         enables, checked against the new state *)
  block : Seminaive.step list;
      (* per negated literal: the rule with [not q(args)] turned into a
         positive [q(args)] focused on added [q] rows and its other
         negations dropped — an over-approximation of the instances an
         addition disables (re-derivation re-checks full bodies) *)
}

type t = {
  max_term_depth : int;
  max_rounds : int;
  pool : Pool.t option;
  mutable rules : Rule.t list;
  mutable strata : stratum list;
  mutable idb : SS.t;
  edb : Database.t;
  db : Database.t;
}

let db t = t.db
let edb t = t.edb
let rules t = t.rules

let idb_of rules =
  List.fold_left (fun s r -> SS.add (Rule.head_pred r) s) SS.empty rules

let stratum rules =
  let preds f =
    List.fold_left
      (fun s (r : Rule.t) ->
        List.fold_left
          (fun s l -> List.fold_left (Fun.flip SS.add) s (f l))
          s r.Rule.body)
      SS.empty rules
  in
  let stored (a : Atom.t) =
    if Literal.is_builtin a.Atom.pred then [] else [ a.Atom.pred ]
  in
  {
    rules;
    heads = idb_of rules;
    pos = preds (function Literal.Pos a -> stored a | _ -> []);
    neg = preds (function Literal.Neg a -> stored a | _ -> []);
    agg =
      preds (function
        | Literal.Agg ag ->
          List.map (fun (a : Atom.t) -> a.Atom.pred) ag.Literal.body
        | _ -> []);
    steps = None;
  }

let steps stats st =
  match st.steps with
  | Some s -> s
  | None ->
    let step r i = Seminaive.step ~stats r ~focus:(Some i) in
    let per_negation f =
      List.concat_map
        (fun (r : Rule.t) ->
          List.filter_map
            (function
              | Literal.Neg a when not (Literal.is_builtin a.Atom.pred) ->
                Some (f r a)
              | _ -> None)
            r.Rule.body)
        st.rules
    in
    let s =
      {
        focus = List.concat_map (Seminaive.focus_steps ~stats) st.rules;
        unblock =
          per_negation (fun r a ->
              step
                (Rule.make r.Rule.head (r.Rule.body @ [ Literal.Pos a ]))
                (List.length r.Rule.body));
        block =
          per_negation (fun r a ->
              let others =
                List.filter
                  (function Literal.Neg _ -> false | _ -> true)
                  r.Rule.body
              in
              step (Rule.make r.Rule.head (Literal.Pos a :: others)) 0);
      }
    in
    st.steps <- Some s;
    s

let unstratified_msg cycle =
  Printf.sprintf "not stratified (nonmonotonic cycle through %s)"
    (String.concat ", " cycle)

(* Warm the join indexes the maintenance passes will need: a body
   literal's position gets looked up by key whenever its variable is
   bound by another body literal (semi-naive focus joins) or by the
   head (goal-directed re-derivation in DRed). Bulk materialization
   rarely binds every such position, so without this the first delta
   pays for building an index over the whole extent. *)
let warm_indexes db rules =
  List.iter
    (fun (r : Rule.t) ->
      let body_atoms =
        List.filter_map
          (function
            | Literal.Pos (a : Atom.t) when not (Literal.is_builtin a.Atom.pred)
              ->
              Some a
            | _ -> None)
          r.Rule.body
      in
      List.iteri
        (fun i (a : Atom.t) ->
          let bound_elsewhere =
            Atom.vars r.Rule.head
            @ List.concat
                (List.mapi
                   (fun j (b : Atom.t) -> if j = i then [] else Atom.vars b)
                   body_atoms)
          in
          match Database.relation_opt db a.Atom.pred with
          | None -> ()
          | Some rel ->
            List.iteri
              (fun pos arg ->
                match arg with
                | Logic.Term.Var x when List.mem x bound_elsewhere ->
                  Relation.warm_index rel ~pos
                | _ -> ())
              a.Atom.args)
        body_atoms)
    rules

let init ?(max_term_depth = 8) ?(max_rounds = 100_000) ?pool p edb0 =
  let facts, p' = Program.split_facts p in
  match Stratify.rules_by_stratum p' with
  | Error cycle -> Error ("Maintain.init: " ^ unstratified_msg cycle)
  | Ok strata ->
    let edb = Database.copy edb0 in
    List.iter (fun f -> ignore (Database.add_fact edb f)) facts;
    let db = Database.copy edb in
    let stats = Eval.new_stats () in
    List.iter
      (fun rs ->
        if rs <> [] then
          ignore
            (Seminaive.run ~stats ?pool ~max_term_depth ~max_rounds ~neg:db rs
               db))
      strata;
    let rules = Program.rules p' in
    warm_indexes db rules;
    Ok
      {
        max_term_depth;
        max_rounds;
        pool;
        rules;
        strata = List.map stratum strata;
        idb = idb_of rules;
        edb;
        db;
      }

let of_materialized ?(max_term_depth = 8) ?(max_rounds = 100_000) ?pool
    ?edb:edb0 ?(prewarm = true) p db =
  let facts, p' = Program.split_facts p in
  match Stratify.rules_by_stratum p' with
  | Error cycle -> Error ("Maintain.of_materialized: " ^ unstratified_msg cycle)
  | Ok strata ->
    let rules = Program.rules p' in
    let idb = idb_of rules in
    (* With an explicit base database (a checkpoint's): adopt it as-is.
       Without one, reconstruct the base from the non-IDB extents —
       sound only when base facts never share a predicate with a rule
       head, which recovery cannot assume (the mediator asserts source
       data on predicates its anchor rules also derive into). *)
    let edb =
      match edb0 with
      | Some e -> Database.copy e
      | None ->
        let edb = Database.create () in
        List.iter
          (fun pred ->
            if not (SS.mem pred idb) then
              List.iter
                (fun f -> ignore (Database.add_fact edb f))
                (Database.facts db pred))
          (Database.predicates db);
        edb
    in
    List.iter (fun f -> ignore (Database.add_fact edb f)) facts;
    if prewarm then warm_indexes db rules;
    Ok
      {
        max_term_depth;
        max_rounds;
        pool;
        rules;
        strata = List.map stratum strata;
        idb;
        edb;
        db;
      }

(* The rows of [preds] in [db], as a delta to seed a round from. *)
let rows_in db preds : Seminaive.delta =
  let d = Hashtbl.create 8 in
  SS.iter
    (fun p ->
      match Database.relation_opt db p with
      | Some rel when not (Relation.is_empty rel) ->
        Hashtbl.replace d p (ref (Relation.fold_packed List.cons rel []))
      | _ -> ())
    preds;
  d

(* One maintenance fixpoint of [st]: a first round of the focus steps
   over [focus_rows] and of [neg_steps] over [neg_rows], then semi-naive
   rounds from whatever [accept] took. Returns (rounds, suppressed
   heads). *)
let seeded t stats st ~accept ~focus_rows ~neg_steps ~neg_rows =
  let steps = (steps stats st).focus in
  let into = Hashtbl.create 16 in
  let round from ss =
    Seminaive.round ~stats ?pool:t.pool ~max_term_depth:t.max_term_depth
      ~db:t.db ~neg:t.db ~accept ~from ~into ss
  in
  let supp = round focus_rows steps + round neg_rows neg_steps in
  let rounds, supp' =
    Seminaive.propagate ~stats ?pool:t.pool ~max_term_depth:t.max_term_depth
      ~max_rounds:t.max_rounds ~db:t.db ~neg:t.db ~accept steps into
  in
  (rounds + 1, supp + supp')

(* One stratum, propagate path, deletion side: delete-and-rederive
   (DRed). Facts already removed globally are restored for the duration
   of the over-deletion fixpoint so rule bodies join against the
   pre-deletion extents; candidates asserted in the base are immune.
   Over-deletion is seeded by the removed rows under positive literals
   and by the added rows under negated ones ([block] steps). Negations
   read the restored database, which holds old and new extents of the
   lower strata: an instance true before the update either has its
   negated atoms absent there too, or is caught by a [block] step.
   [explicit] holds base-level retractions of this stratum's own head
   predicates: they join the re-derivation pool (a retracted base fact
   survives when rules still prove it) and [unremove] is called on the
   survivors so downstream strata stop treating them as deleted. *)
let dred_stratum t stats st ~added_db ~removed_db ~explicit ~unremove
    ~note_removed =
  let restored =
    List.filter (fun f -> Database.add_fact t.db f) (Database.all_facts removed_db)
  in
  let overdel = Database.create () in
  let accept s =
    let h = Seminaive.head s in
    let mem db =
      match Database.relation_opt db h with
      | Some rel -> Relation.mem_packed rel
      | None -> fun _ -> false
    in
    let live = mem t.db and base = mem t.edb in
    let cands = Database.relation overdel h in
    fun row -> live row && (not (base row)) && Relation.add_packed cands row
  in
  let rounds, _ =
    seeded t stats st ~accept
      ~focus_rows:(rows_in removed_db st.pos)
      ~neg_steps:(steps stats st).block
      ~neg_rows:(rows_in added_db st.neg)
  in
  List.iter (fun f -> ignore (Database.remove_fact t.db f)) restored;
  let candidates = Database.all_facts overdel in
  List.iter (fun f -> ignore (Database.remove_fact t.db f)) candidates;
  (* Re-derive survivors goal-directedly: a candidate stays deleted only
     if no rule instance proves it from the remaining database. *)
  let provable (a : Atom.t) =
    List.exists
      (fun (r : Rule.t) ->
        String.equal (Rule.head_pred r) a.Atom.pred
        &&
        match Logic.Unify.matches_list ~patterns:r.Rule.head.Atom.args a.Atom.args with
        | None -> false
        | Some s ->
          let body = List.map (Literal.apply s) r.Rule.body in
          Eval.solve_body ~stats ~db:t.db ~neg:t.db body <> [])
      st.rules
  in
  let pool =
    candidates
    @ List.filter (fun (a : Atom.t) -> not (Database.mem overdel a)) explicit
  in
  let rec rederive () =
    let progress = ref false in
    List.iter
      (fun a ->
        if (not (Database.mem t.db a)) && provable a then begin
          ignore (Database.add_fact t.db a);
          progress := true
        end)
      pool;
    if !progress then rederive ()
  in
  rederive ();
  List.iter
    (fun f ->
      if (not (Database.mem t.db f)) && not (Database.mem removed_db f) then
        note_removed f)
    candidates;
  List.iter (fun f -> if Database.mem t.db f then unremove f) explicit;
  rounds

(* The shared stratum walk behind [apply] and [extend_rules].
   Precondition: [t.strata]/[t.idb] already reflect [new_rules], and the
   EDB delta has been validated. *)
let run_maintenance t ~new_rules ~additions ~deletions =
  let stats = Eval.new_stats () in
  let skolems = ref 0 in
  let added_db = Database.create () in
  let removed_db = Database.create () in
  let changed = ref SS.empty in
  let note_changed p = changed := SS.add p !changed in
  (* Base delta: deletions first, then insertions (a fact listed in
     both ends up present). Extensional predicates settle here; a
     retracted base fact of a {e derived} predicate is only
     provisionally removed — its defining stratum re-derives it below
     if the rules still prove it. *)
  List.iter
    (fun f ->
      if Database.remove_fact t.edb f then begin
        ignore (Database.remove_fact t.db f);
        ignore (Database.add_fact removed_db f);
        note_changed f.Atom.pred
      end)
    deletions;
  List.iter
    (fun f ->
      if Database.add_fact t.edb f then begin
        ignore (Database.add_fact t.db f);
        ignore (Database.add_fact added_db f);
        note_changed f.Atom.pred
      end)
    additions;
  let is_new r = List.exists (Rule.equal r) new_rules in
  let per_stratum = ref [] in
  let total_rounds = ref 0 in
  List.iteri
    (fun si (st : stratum) ->
      if st.rules <> [] then begin
        let delta_in = Database.cardinal added_db + Database.cardinal removed_db in
        let changed_in preds = not (SS.disjoint preds !changed) in
        let has_new = new_rules <> [] && List.exists is_new st.rules in
        let s_added = ref 0 and s_removed = ref 0 and s_rounds = ref 0 in
        let note_added (a : Atom.t) =
          ignore (Database.add_fact added_db a);
          note_changed a.Atom.pred;
          incr s_added
        in
        let note_removed (a : Atom.t) =
          ignore (Database.add_fact removed_db a);
          note_changed a.Atom.pred;
          incr s_removed
        in
        (* base retractions of this stratum's own heads: even when no
           body dependency changed, the stratum must get a chance to
           re-derive them. *)
        let explicit_rm =
          SS.fold (fun h acc -> Database.facts removed_db h @ acc) st.heads []
        in
        let action =
          if
            (not (changed_in st.pos || changed_in st.neg || changed_in st.agg))
            && (not has_new) && explicit_rm = []
          then Skipped
          else if changed_in st.agg then begin
            (* An aggregate's input changed: rebuild just this stratum
               from the (already-maintained) strata below it. *)
            let old_facts =
              SS.fold (fun h acc -> Database.facts t.db h @ acc) st.heads []
            in
            List.iter (fun f -> ignore (Database.remove_fact t.db f)) old_facts;
            SS.iter
              (fun h ->
                List.iter
                  (fun f -> ignore (Database.add_fact t.db f))
                  (Database.facts t.edb h))
              st.heads;
            let o =
              Seminaive.run ~stats ?pool:t.pool ~max_term_depth:t.max_term_depth
                ~max_rounds:t.max_rounds ~neg:t.db st.rules t.db
            in
            skolems := !skolems + o.Seminaive.skolems_suppressed;
            s_rounds := o.Seminaive.rounds;
            let old_set = Database.of_facts old_facts in
            List.iter
              (fun f -> if not (Database.mem t.db f) then note_removed f)
              old_facts;
            SS.iter
              (fun h ->
                List.iter
                  (fun f -> if not (Database.mem old_set f) then note_added f)
                  (Database.facts t.db h))
              st.heads;
            List.iter
              (fun (a : Atom.t) ->
                if Database.mem t.db a then
                  ignore (Database.remove_fact removed_db a))
              explicit_rm;
            Recomputed
          end
          else begin
            (* Propagate: deletions via DRed, then new-rule seeding, then
               semi-naive insertion focused on the accumulated delta —
               added rows under positive literals, removed rows under
               negated ones ([unblock] steps). *)
            let any db preds =
              SS.exists (fun p -> Database.count db p > 0) preds
            in
            if any removed_db st.pos || any added_db st.neg || explicit_rm <> []
            then begin
              let unremove (a : Atom.t) =
                ignore (Database.remove_fact removed_db a)
              in
              s_rounds :=
                !s_rounds
                + dred_stratum t stats st ~added_db ~removed_db
                    ~explicit:explicit_rm ~unremove ~note_removed
            end;
            let insert s =
              let h = Seminaive.head s in
              (* created on the first new row: an empty relation would
                 still be written to checkpoints *)
              let live = lazy (Database.relation t.db h) in
              let added = lazy (Database.relation added_db h) in
              fun row ->
                Relation.add_packed (Lazy.force live) row
                && begin
                     ignore (Relation.add_packed (Lazy.force added) row);
                     note_changed h;
                     incr s_added;
                     true
                   end
            in
            if has_new then
              skolems :=
                !skolems
                + Seminaive.round ~stats ?pool:t.pool
                    ~max_term_depth:t.max_term_depth ~db:t.db ~neg:t.db
                    ~accept:insert ~from:(Hashtbl.create 1)
                    ~into:(Hashtbl.create 16)
                    (List.filter_map
                       (fun r ->
                         if is_new r then
                           Some (Seminaive.step ~stats r ~focus:None)
                         else None)
                       st.rules);
            if any added_db st.pos || any removed_db st.neg then begin
              let rounds, supp =
                seeded t stats st ~accept:insert
                  ~focus_rows:(rows_in added_db st.pos)
                  ~neg_steps:(steps stats st).unblock
                  ~neg_rows:(rows_in removed_db st.neg)
              in
              skolems := !skolems + supp;
              s_rounds := !s_rounds + rounds
            end;
            Propagated
          end
        in
        total_rounds := !total_rounds + !s_rounds;
        per_stratum :=
          {
            stratum = si;
            action;
            delta_in;
            added = !s_added;
            removed = !s_removed;
            rounds = !s_rounds;
          }
          :: !per_stratum
      end)
    t.strata;
  let per_stratum = List.rev !per_stratum in
  let count a = List.length (List.filter (fun s -> s.action = a) per_stratum) in
  {
    added = Database.cardinal added_db;
    removed = Database.cardinal removed_db;
    rounds = !total_rounds;
    strata = List.length per_stratum;
    skipped = count Skipped;
    recomputed = count Recomputed;
    skolems_suppressed = !skolems;
    joins = Atomic.get stats.Eval.joins;
    tuples_scanned = Atomic.get stats.Eval.tuples_scanned;
    index_hits = Atomic.get stats.Eval.index_hits;
    plan_cache_hits = Atomic.get stats.Eval.plan_cache_hits;
    parallel_batches = Atomic.get stats.Eval.parallel_batches;
    touched = SS.elements !changed;
    per_stratum;
  }

let validate_delta atoms =
  let rec check = function
    | [] -> Ok ()
    | (a : Atom.t) :: rest ->
      if not (Atom.is_ground a) then
        Error
          (Printf.sprintf "Maintain: delta fact %s is not ground"
             (Atom.to_string a))
      else check rest
  in
  check atoms

let apply t d =
  match validate_delta (d.additions @ d.deletions) with
  | Error e -> Error e
  | Ok () ->
    Ok
      (run_maintenance t ~new_rules:[] ~additions:d.additions
         ~deletions:d.deletions)

let extend_rules t ?(delta = { additions = []; deletions = [] }) new_rules =
  if new_rules = [] then apply t delta
  else
    match Program.make (t.rules @ new_rules) with
    | Error e -> Error e
    | Ok p -> (
      match Stratify.rules_by_stratum p with
      | Error cycle -> Error ("Maintain.extend_rules: " ^ unstratified_msg cycle)
      | Ok strata -> (
        let rules = Program.rules p in
        let idb = idb_of rules in
        match validate_delta (delta.additions @ delta.deletions) with
        | Error e -> Error e
        | Ok () ->
          t.rules <- rules;
          t.strata <- List.map stratum strata;
          t.idb <- idb;
          warm_indexes t.db new_rules;
          Ok
            (run_maintenance t ~new_rules ~additions:delta.additions
               ~deletions:delta.deletions)))
