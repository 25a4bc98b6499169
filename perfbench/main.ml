(* perfbench: one workload of the end-to-end benchmark per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   Prints a report (host, workload, every metric with its unit), then as
   its last line one JSON object: correct, attempted, failed and the
   metrics — the end-to-end ones with --trace 0, the per-layer ones with
   --trace 1. A traced run also writes its spans, one JSON object per
   line, to perfbench/out/trace-NAME-SEED.jsonl. *)

open Common

let workloads =
  [ ("neuro-default", W_default.run); ("neuro-durable", W_durable.run); ("neuro-planner", W_planner.run) ]

let out_dir = Filename.concat "perfbench" "out"

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and rev = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S session length in seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer run (1)");
      ("--rev", Arg.Set_string rev, "REV source revision, for the host record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  (match check_environment () with
  | Ok () -> ()
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    exit 2);
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let ctx = { workload = !workload; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1; dir } in
  let r = Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> run ctx) in
  let host =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("rev", !rev);
      ("seed", string_of_int !seed);
    ]
  in
  let fields kvs = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) in
  Printf.printf "# perfbench %s, %d s, trace %d\n" !workload !seconds !trace;
  Printf.printf "# host: %s\n" (fields host);
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) r.info;
  List.iter
    (fun (m : Metrics.metric) -> Printf.printf "  %-34s %14.6g %s\n" m.Metrics.name m.Metrics.value m.Metrics.unit)
    r.report;
  let tl = r.tally in
  Printf.printf "  %-34s %14.6g (%d of %d)\n" "failed_ratio"
    (Metrics.ratio (float_of_int tl.failed) (float_of_int tl.attempted))
    tl.failed tl.attempted;
  List.iter (fun n -> Printf.printf "  failure: %s\n" n) (List.rev tl.notes);
  Option.iter
    (fun tr ->
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed) in
      let header =
        "{"
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" k (Spans.json_escape v))
               (("workload", !workload) :: host @ r.info))
        ^ "}"
      in
      Spans.write tr ~path ~header;
      Printf.printf "# spans: %s\n" path)
    r.spans;
  let finite = List.for_all (fun (m : Metrics.metric) -> Float.is_finite m.Metrics.value) r.json in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tl.failed = 0 && tl.attempted > 0 && finite)
    tl.attempted tl.failed
    (String.concat ", "
       (List.map
          (fun (m : Metrics.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Metrics.name (json_number m.Metrics.value)
              m.Metrics.unit)
          r.json))
