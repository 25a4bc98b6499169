(* Samples and counters of one run, and the metric tables built from
   them. *)

module Stats = Perfbench.Stats

type t = { samples : (string, float list) Hashtbl.t; counters : (string, float) Hashtbl.t }

let create () = { samples = Hashtbl.create 32; counters = Hashtbl.create 32 }

let add t name v =
  Hashtbl.replace t.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let count t name v =
  Hashtbl.replace t.counters name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let samples t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples name))
let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

(* A counter's value, resetting it to 0. *)
let take t name =
  let v = counter t name in
  Hashtbl.replace t.counters name 0.;
  v

let n t name = List.length (samples t name)
let median t name = match samples t name with [] -> 0. | xs -> Stats.median xs
let mean t name = match samples t name with [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

let p90 t name = Stats.quantile (Stats.sorted (samples t name)) 0.9

(* The end-to-end metrics every workload reports with tracing off: the
   time of a session cycle (its timed operations together) and of its
   reads, over all cycles, and the throughput of every timed operation,
   in units of the run's median kernel time. *)
let end_to_end t =
  let r = median t "ref_ms" in
  [
    m "setup_s" (median t "setup_s") "s";
    m "cycle_p50_ref" (median t "cycle_ms" /. r) "ref";
    m "cycle_p90_ref" (p90 t "cycle_ms" /. r) "ref";
    m "read_p50_ref" (median t "read_ms" /. r) "ref";
    m "ops_per_ref" (ratio (counter t "ops") (counter t "timed_ms" /. r)) "1/ref";
    m "peak_heap_mb" (counter t "peak_heap_mb") "MB";
  ]

(* The same in wall-clock units, the single reads, and the kernel's own
   time, for the report lines. *)
let wall_clock t =
  [
    m "cycle_p50_ms" (median t "cycle_ms") "ms";
    m "cycle_p90_ms" (p90 t "cycle_ms") "ms";
    m "read_p50_ms" (median t "read_ms") "ms";
    m "cycles" (float_of_int (n t "cycle_ms")) "count";
    m "query_p50_ms" (median t "query_ms") "ms";
    m "query_p90_ms" (p90 t "query_ms") "ms";
    m "query_samples" (float_of_int (n t "query_ms")) "count";
    m "ops_per_s" (ratio (counter t "ops") (counter t "timed_ms" /. 1000.)) "1/s";
    m "ref_ms" (median t "ref_ms") "ms";
  ]

(* Latency lines for the report: p50, p90 and the highest tail
   percentile the run allows (at least ten samples beyond it), and the
   sample count. *)
let latency t ~label name =
  let xs = samples t name in
  if xs = [] then []
  else
    let tail =
      match Stats.tail xs with
      | Some (90., v) -> [ m (label ^ "_p90_ms") v "ms" ]
      | Some (p, v) ->
        [ m (label ^ "_p90_ms") (Stats.quantile (Stats.sorted xs) 0.9) "ms"; m (Printf.sprintf "%s_p%g_ms" label p) v "ms" ]
      | None -> []
    in
    (m (label ^ "_p50_ms") (median t name) "ms" :: tail) @ [ m (label ^ "_samples") (float_of_int (List.length xs)) "count" ]

(* A median with its sample count, for operations too rare for a p90. *)
let median_line t ~label name =
  let k = n t name in
  if k = 0 then [] else [ m (label ^ "_ms") (median t name) "ms"; m (label ^ "_samples") (float_of_int k) "count" ]

(* The per-layer metrics of the traced run, in a fixed order; a layer
   the workload does not reach reads 0. *)
let per_layer t =
  let updates = float_of_int (n t "maintain.net_facts") in
  let ops = counter t "ops" in
  [
    m "wrapper.gather_ms" (median t "wrapper.gather_ms") "ms";
    m "wrapper.facts_gathered" (median t "wrapper.facts_gathered") "count";
    m "flogic.program_ms" (median t "flogic.program_ms") "ms";
    m "flogic.compile_ms" (median t "flogic.compile_ms") "ms";
    m "flogic.rules" (median t "flogic.rules") "count";
    m "datalog.eval_ms" (median t "datalog.eval_ms") "ms";
    m "datalog.stratified" (median t "datalog.stratified") "bool";
    m "datalog.rounds" (median t "datalog.rounds") "count";
    m "datalog.joins" (median t "datalog.joins") "count";
    m "datalog.tuples_scanned" (median t "datalog.tuples_scanned") "count";
    m "datalog.index_hits" (median t "datalog.index_hits") "count";
    m "datalog.derived" (median t "datalog.derived") "count";
    m "datalog.scanned_per_derived" (median t "datalog.scanned_per_derived") "ratio";
    m "maintain.strata_skipped_ratio"
      (ratio (counter t "maintain.skipped") (counter t "maintain.strata"))
      "ratio";
    m "maintain.recomputed" (ratio (counter t "maintain.recomputed") updates) "count/update";
    m "maintain.joins" (ratio (counter t "maintain.joins") updates) "count/update";
    m "maintain.tuples_scanned" (ratio (counter t "maintain.tuples_scanned") updates) "count/update";
    m "maintain.net_facts" (mean t "maintain.net_facts") "count/update";
    m "mediator.cache_hit_ratio"
      (ratio (counter t "mediator.hits") (counter t "mediator.hits" +. counter t "mediator.misses"))
      "ratio";
    m "mediator.rebuilds" (counter t "mediator.rebuilds") "count";
    m "mediator.maintained" (counter t "mediator.maintained") "count";
    m "mediator.invalidated" (counter t "mediator.invalidated") "count";
    m "wal.bytes_per_batch" (median t "wal.bytes_per_batch") "B";
    m "snapshot.bytes" (median t "snapshot.bytes") "B";
    m "snapshot.bytes_per_fact" (median t "snapshot.bytes_per_fact") "B/fact";
    m "domain_map.select_ms" (median t "domain_map.select_ms") "ms";
    m "domain_map.lub_ms" (median t "domain_map.lub_ms") "ms";
    m "section5.distribution_ms" (median t "section5.distribution_ms") "ms";
    m "section5.tuples_moved" (median t "section5.tuples_moved") "count";
    m "section5.sources_contacted" (median t "section5.sources_contacted") "count";
    m "conjunctive.plan_ms" (median t "conjunctive.plan_ms") "ms";
    m "conjunctive.tuples_moved" (median t "conjunctive.tuples_moved") "count";
    m "conjunctive.sources_contacted" (median t "conjunctive.sources_contacted") "count";
    m "runtime.calls" (counter t "runtime.calls") "count";
    m "runtime.retries" (counter t "runtime.retries") "count";
    m "runtime.failures" (counter t "runtime.failures") "count";
    m "gc.minor_mb" (ratio (counter t "gc.minor_mb") ops) "MB/op";
    m "gc.major_collections" (ratio (counter t "gc.major_collections") ops) "count/op";
    m "trace.overhead_ratio" (counter t "trace.overhead_ratio") "ratio";
    m "trace.coverage_setup" (median t "trace.coverage_setup") "ratio";
    m "trace.coverage_rebuild" (median t "trace.coverage_rebuild") "ratio";
  ]
