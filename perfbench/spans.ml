(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from the benchmark's side:
   name, start, end, the enclosing span, and the session operation it
   belongs to. Gc.quick_stat deltas ride along so allocation lines up
   with the layer that did it. Nothing is written until [write]. *)

type span = {
  id : int;
  name : string;
  op : int;  (** session operation id; 0 for set-up *)
  parent : int;  (** enclosing span id; -1 at top level *)
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
  major_collections : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable op : int;
}

let create () = { spans = []; next = 0; stack = []; op = 0 }
let set_op t op = t.op <- op
let spans t = List.rev t.spans

(* Time [f] as span [name] under the innermost open span. With no
   recorder this is a plain call. *)
let with_ t name f =
  match t with
  | None -> f ()
  | Some t ->
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let g0 = Gc.quick_stat () in
    let start_ns = Clock.now_ns () in
    let finish () =
      let stop_ns = Clock.now_ns () in
      let g1 = Gc.quick_stat () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          name;
          op = t.op;
          parent;
          start_ns;
          stop_ns;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: t.spans
    in
    Fun.protect ~finally:finish f

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* The children of each span, looked up by parent id. *)
let children all =
  let h = Hashtbl.create 64 in
  List.iter (fun c -> if c.parent >= 0 then Hashtbl.add h c.parent c) all;
  fun s -> Hashtbl.find_all h s.id

(* Length of the part of [s]'s interval covered by the union of the
   intervals of [kids] (clipped to [s]). *)
let covered_ns kids s =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max c.start_ns s.start_ns and b = min c.stop_ns s.stop_ns in
        if Int64.compare a b < 0 then Some (a, b) else None)
      kids
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when Int64.compare a lb <= 0 -> (total, Some (la, max lb b))
        | Some (la, lb) -> (Int64.add total (Int64.sub lb la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0L, None) clipped
  in
  match last with
  | Some (la, lb) -> Int64.add total (Int64.sub lb la)
  | None -> total

(* A span's own time: its duration minus what its children cover. *)
let self_ns children s = Int64.sub (duration_ns s) (covered_ns (children s) s)

(* Share of [s]'s duration its children cover, in [0, 1]. *)
let coverage children s =
  let d = duration_ns s in
  if d = 0L then 1. else Int64.to_float (covered_ns (children s) s) /. Int64.to_float d

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per line: the header, then every span in start order. *)
let write t ~path ~header =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  let all = spans t in
  let kids = children all in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"op\": %d, \"parent\": %d, \"start_ns\": %Ld, \
         \"end_ns\": %Ld, \"self_ns\": %Ld, \"minor_words\": %.0f, \"major_collections\": %d}\n"
        s.id (json_escape s.name) s.op s.parent s.start_ns s.stop_ns (self_ns kids s)
        s.minor_words s.major_collections)
    all;
  close_out oc
