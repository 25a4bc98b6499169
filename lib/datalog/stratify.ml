module Rule = Logic.Rule

type edge = { from_pred : string; to_pred : string; nonmono : bool }

let dependency_edges p =
  List.concat_map
    (fun r ->
      List.map
        (fun (q, nonmono) ->
          { from_pred = Rule.head_pred r; to_pred = q; nonmono })
        (Rule.body_predicates r))
    (Program.rules p)
  |> List.sort_uniq Stdlib.compare

type outcome =
  | Stratified of string list list
  | Unstratified of string list

module SM = Map.Make (String)

(* Shortest path [src] ->* [dst] over the dependency graph, as an edge
   list; BFS with parent-edge reconstruction. *)
let path edges ~src ~dst =
  let adj =
    List.fold_left
      (fun m e ->
        SM.update e.from_pred
          (fun es -> Some (e :: Option.value es ~default:[]))
          m)
      SM.empty edges
  in
  if String.equal src dst then Some []
  else begin
    let parent : (string, edge) Hashtbl.t = Hashtbl.create 16 in
    let queue = Queue.create () in
    Queue.add src queue;
    Hashtbl.add parent src { from_pred = src; to_pred = src; nonmono = false };
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun e ->
          if (not !found) && not (Hashtbl.mem parent e.to_pred) then begin
            Hashtbl.add parent e.to_pred e;
            if String.equal e.to_pred dst then found := true
            else Queue.add e.to_pred queue
          end)
        (Option.value (SM.find_opt u adj) ~default:[])
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if String.equal v src then acc
        else
          let e = Hashtbl.find parent v in
          walk e.from_pred (e :: acc)
      in
      Some (walk dst [])
    end
  end

(* Close each nonmonotonic edge u -¬-> v with a shortest path v ->* u;
   keep the shortest witness overall so reports stay readable. *)
let cycle_of_edges edges =
  List.fold_left
    (fun best e ->
      if not e.nonmono then best
      else
        match path edges ~src:e.to_pred ~dst:e.from_pred with
        | None -> best
        | Some back -> (
          let cycle = e :: back in
          match best with
          | Some b when List.length b <= List.length cycle -> best
          | _ -> Some cycle))
    None edges

let negative_cycle p = cycle_of_edges (dependency_edges p)

(* Iterative stratum assignment: s(h) >= s(b) for positive deps,
   s(h) >= s(b) + 1 for nonmonotonic ones. If a stratum exceeds the
   number of predicates, there is a nonmonotonic cycle. *)
let stratify p =
  let preds = Program.predicates p in
  let n = List.length preds in
  let edges = dependency_edges p in
  let strata = ref (List.fold_left (fun m q -> SM.add q 0 m) SM.empty preds) in
  let changed = ref true in
  let overflow = ref false in
  let rounds = ref 0 in
  while !changed && not !overflow do
    changed := false;
    incr rounds;
    List.iter
      (fun { from_pred; to_pred; nonmono } ->
        let sb = SM.find to_pred !strata in
        let needed = if nonmono then sb + 1 else sb in
        let sh = SM.find from_pred !strata in
        if sh < needed then begin
          strata := SM.add from_pred needed !strata;
          if needed > n then overflow := true;
          changed := true
        end)
      edges
  done;
  if !overflow then
    (* a stratum past n means some nonmonotonic edge lies on a cycle *)
    let cycle = Option.value (cycle_of_edges edges) ~default:[] in
    Unstratified
      (List.sort_uniq String.compare (List.map (fun e -> e.from_pred) cycle))
  else begin
    let max_stratum = SM.fold (fun _ s acc -> max s acc) !strata 0 in
    let buckets = Array.make (max_stratum + 1) [] in
    List.iter
      (fun q ->
        let s = SM.find q !strata in
        buckets.(s) <- q :: buckets.(s))
      preds;
    Stratified
      (Array.to_list buckets
      |> List.map (List.sort String.compare)
      |> List.filter (fun b -> b <> []))
  end

let is_stratified p =
  match stratify p with Stratified _ -> true | Unstratified _ -> false

let rules_by_stratum p =
  match stratify p with
  | Unstratified cycle -> Error cycle
  | Stratified strata ->
    let stratum_of =
      List.concat (List.mapi (fun i qs -> List.map (fun q -> (q, i)) qs) strata)
      |> List.to_seq |> Hashtbl.of_seq
    in
    let nb = List.length strata in
    let buckets = Array.make (max nb 1) [] in
    List.iter
      (fun r ->
        let s =
          match Hashtbl.find_opt stratum_of (Rule.head_pred r) with
          | Some s -> s
          | None -> 0
        in
        buckets.(s) <- r :: buckets.(s))
      (Program.rules p);
    Ok (Array.to_list buckets |> List.map List.rev)
