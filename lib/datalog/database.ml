module Atom = Logic.Atom

type t = (string, Relation.t) Hashtbl.t

let create () : t = Hashtbl.create 64

let relation db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create () in
    Hashtbl.add db pred r;
    r

let relation_opt db pred = Hashtbl.find_opt db pred

(* bulk-load entry: like [relation], but a relation created here is
   sized for [hint] rows up front, so a loader that knows the row
   count (the snapshot reader) skips the doubling-resize cascade *)
let relation_hint db pred ~hint =
  match Hashtbl.find_opt db pred with
  | Some r -> r
  | None ->
    let r = Relation.create ~hint:(max 16 hint) () in
    Hashtbl.add db pred r;
    r

let add_tuple db pred tup = Relation.add (relation db pred) tup

let add_fact db (a : Atom.t) = add_tuple db a.Atom.pred a.Atom.args

let remove_fact db (a : Atom.t) =
  match Hashtbl.find_opt db a.Atom.pred with
  | Some r -> Relation.remove r a.Atom.args
  | None -> false

let mem db (a : Atom.t) =
  match Hashtbl.find_opt db a.Atom.pred with
  | Some r -> Relation.mem r a.Atom.args
  | None -> false

let predicates db =
  Hashtbl.fold (fun p _ acc -> p :: acc) db [] |> List.sort String.compare

let cardinal db = Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db 0

let count db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> Relation.cardinal r
  | None -> 0

let facts db pred =
  match Hashtbl.find_opt db pred with
  | Some r -> List.map (Atom.make pred) (Relation.to_list r)
  | None -> []

let all_facts db =
  List.concat_map (fun p -> facts db p) (predicates db)

let copy db =
  let db' = create () in
  Hashtbl.iter (fun p r -> Hashtbl.replace db' p (Relation.copy r)) db;
  db'

let merge_into ~dst src =
  Hashtbl.fold
    (fun p r acc ->
      Relation.fold
        (fun tup acc -> if add_tuple dst p tup then acc + 1 else acc)
        r acc)
    src 0

(* Per predicate: a cardinality check, then every packed row of [a]
   probed in [b] by its intern ids — no sorting, no term walks. *)
let equal_on preds a b =
  List.for_all
    (fun p ->
      count a p = count b p
      &&
      match (relation_opt a p, relation_opt b p) with
      | None, _ | _, None -> true (* equal counts, so both empty *)
      | Some ra, Some rb ->
        Relation.fold_packed
          (fun row ok -> ok && Relation.mem_packed rb row)
          ra true)
    preds

let equal a b =
  equal_on (List.sort_uniq String.compare (predicates a @ predicates b)) a b

let of_facts fs =
  let db = create () in
  List.iter (fun f -> ignore (add_fact db f)) fs;
  db

let pp ppf db =
  List.iter
    (fun p ->
      List.iter
        (fun a -> Format.fprintf ppf "%a.@." Atom.pp a)
        (facts db p))
    (predicates db)
