module Atom = Logic.Atom
module Rule = Logic.Rule
module Literal = Logic.Literal

type outcome = { rounds : int; derived : int; skolems_suppressed : int }

type delta = (string, Tuple.Packed.t list ref) Hashtbl.t

(* One (rule, focus) evaluation, its plan resolved once. *)
type step = {
  head : string;  (* the rule's head predicate *)
  focus : string option;  (* the focus literal's predicate *)
  plan : Plan.t;
  stream_ok : bool;
}

let head s = s.head

let step ?stats (rule : Rule.t) ~focus =
  let focus_pred =
    Option.map
      (fun i ->
        match List.nth rule.Rule.body i with
        | Literal.Pos a -> a.Atom.pred
        | _ -> invalid_arg "Seminaive.step: focus on a non-positive literal")
      focus
  in
  let plan = Plan.lookup ?stats rule ~focus in
  (* full evaluations and self-reading plans are buffered, not
     streamed: streamed emissions would be visible to the plan's own
     later probes, making results depend on whether the execution was
     partitioned across domains (see Parexec) *)
  {
    head = Rule.head_pred rule;
    focus = focus_pred;
    plan;
    stream_ok =
      focus <> None && Plan.streamable plan && not (Plan.reads_own_head plan);
  }

let focus_steps ?stats r =
  List.map (fun i -> step ?stats r ~focus:(Some i)) (Eval.positive_positions r)

(* Each step runs once: an unfocused step in full, a focused one over
   [from]'s rows for its focus predicate — and not at all when there
   are none. Heads arrive as packed rows with their intern ids already
   cached, so absorbing a row re-interns nothing; rows stream into
   [accept] when the plan allows it
   ([stream_ok]: then [accept] may insert into the plan's head relation
   while it executes), otherwise they are buffered per execution. *)
let run_round ?stats ?pool ~max_term_depth ~db ~neg ~(from : delta) ~into
    steps =
  let suppressed = ref 0 in
  List.iter
    (fun (s, keep) ->
      let rows =
        match s.focus with
        | None -> Some []
        | Some fp -> Option.map ( ! ) (Hashtbl.find_opt from fp)
      in
      match rows with
      | None -> ()
      | Some delta_rows ->
        let pred = head s in
        (* the bucket is resolved on the first accepted row, so an
           execution that derives nothing new leaves [into] untouched
           (a non-empty delta means one more round) *)
        let bucket = ref None in
        let add row =
          if keep row then begin
            let b =
              match !bucket with
              | Some b -> b
              | None ->
                let b =
                  match Hashtbl.find_opt into pred with
                  | Some b -> b
                  | None ->
                    let b = ref [] in
                    Hashtbl.add into pred b;
                    b
                in
                bucket := Some b;
                b
            in
            b := row :: !b
          end
        in
        let buffered (out, supp) =
          List.iter add out;
          supp
        in
        let supp =
          match Parexec.eligible ~pool s.plan delta_rows with
          | Some pool ->
            buffered
              (Parexec.run_delta ?stats ~pool ~max_term_depth ~db ~neg s.plan
                 ~delta_rows)
          | None when s.stream_ok ->
            Plan.run_stream ?stats ~max_term_depth ~db ~neg ~delta_rows s.plan
              ~emit:add
          | None ->
            buffered
              (Plan.run_rows ?stats ~max_term_depth ~db ~neg ~delta_rows s.plan)
        in
        suppressed := !suppressed + supp)
    steps;
  !suppressed

(* [accept] is resolved once per step, not per execution *)
let with_accept accept steps = List.map (fun s -> (s, accept s)) steps

let round ?stats ?pool ~max_term_depth ~db ~neg ~accept ~from ~into steps =
  run_round ?stats ?pool ~max_term_depth ~db ~neg ~from ~into
    (with_accept accept steps)

let propagate ?stats ?pool ~max_term_depth ~max_rounds ~db ~neg ~accept steps
    delta =
  let steps = with_accept accept steps in
  let suppressed = ref 0 in
  let rec loop rounds delta =
    if Hashtbl.length delta = 0 then rounds
    else begin
      if rounds >= max_rounds then
        failwith "Seminaive: max_rounds exceeded (diverging program?)";
      let next = Hashtbl.create 16 in
      suppressed :=
        !suppressed
        + run_round ?stats ?pool ~max_term_depth ~db ~neg ~from:delta
            ~into:next steps;
      loop (rounds + 1) next
    end
  in
  let rounds = loop 0 delta in
  (rounds, !suppressed)

let run ?stats ?pool ?(max_term_depth = 8)
    ?(max_rounds = 100_000) ~neg rules db =
  let derived = ref 0 in
  let accept s =
    let rel = Database.relation db (head s) in
    fun row ->
      Relation.add_packed rel row
      && begin
           incr derived;
           true
         end
  in
  (* Plans are resolved once up front: the round loop must not pay the
     plan-cache lookup (which hashes the whole rule) per rule per round.
     Round 1 evaluates every rule in full to seed the delta; rules whose
     bodies read only lower predicates fire there and never again. *)
  let seeds = List.map (fun r -> step ?stats r ~focus:None) rules in
  let steps = List.concat_map (focus_steps ?stats) rules in
  let delta0 = Hashtbl.create 16 in
  let supp0 =
    round ?stats ?pool ~max_term_depth ~db ~neg ~accept
      ~from:(Hashtbl.create 1) ~into:delta0 seeds
  in
  let rounds, supp =
    propagate ?stats ?pool ~max_term_depth ~max_rounds:(max_rounds - 1) ~db
      ~neg ~accept steps delta0
  in
  { rounds = rounds + 1; derived = !derived; skolems_suppressed = supp0 + supp }
