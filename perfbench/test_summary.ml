(* Tests for the benchmark's own summary code: the percentile rule,
   span self time and child coverage. *)

open Perfbench

let span ?(parent = -1) id a b =
  {
    Spans.id;
    name = Printf.sprintf "s%d" id;
    op = 1;
    parent;
    start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b;
    minor_words = 0.;
    major_collections = 0;
  }

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_quantile () =
  let a = Stats.sorted [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 0.)) "median" 3. (Stats.quantile a 0.5);
  Alcotest.(check (float 0.)) "max" 5. (Stats.quantile a 1.);
  Alcotest.(check (float 0.)) "min" 1. (Stats.quantile a 0.);
  Alcotest.(check (float 0.)) "median of 1..100" 50. (Stats.median (ints 100))

let tail = Alcotest.(option (pair (float 0.) (float 0.)))

let test_percentile_rule () =
  Alcotest.(check tail) "99 samples: nothing" None (Stats.tail (ints 99));
  Alcotest.(check tail) "100 samples: p90" (Some (90., 90.)) (Stats.tail (ints 100));
  Alcotest.(check tail) "999 samples: still p90" (Some (90., 900.)) (Stats.tail (ints 999));
  Alcotest.(check tail) "1000 samples: p99" (Some (99., 990.)) (Stats.tail (ints 1000));
  Alcotest.(check tail) "10000 samples: p99.9" (Some (99.9, 9990.)) (Stats.tail (ints 10000))

(* parent [0, 100) with children [10, 30), [20, 50) (overlapping) and
   [90, 120) (sticking out): covered = [10, 50) + [90, 100) = 50 *)
let family =
  [ span 0 0 100; span ~parent:0 1 10 30; span ~parent:0 2 20 50; span ~parent:0 3 90 120 ]

let test_self_time () =
  let kids = Spans.children family in
  let parent = List.hd family in
  Alcotest.(check int64) "covered" 50L (Spans.covered_ns (kids parent) parent);
  Alcotest.(check int64) "self" 50L (Spans.self_ns kids parent);
  Alcotest.(check int64) "leaf self = duration" 20L (Spans.self_ns kids (List.nth family 1))

let test_coverage () =
  let kids = Spans.children family in
  Alcotest.(check (float 1e-9)) "half covered" 0.5 (Spans.coverage kids (List.hd family));
  let full = [ span 0 0 10; span ~parent:0 1 0 4; span ~parent:0 2 4 10 ] in
  Alcotest.(check (float 1e-9)) "fully covered" 1.
    (Spans.coverage (Spans.children full) (List.hd full));
  Alcotest.(check (float 1e-9)) "leaf" 0. (Spans.coverage kids (List.nth family 1))

let test_recorder () =
  let t = Spans.create () in
  Spans.set_op t 7;
  let r = Spans.with_ (Some t) "outer" (fun () -> Spans.with_ (Some t) "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 r;
  match Spans.spans t with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first to close" "inner" inner.Spans.name;
    Alcotest.(check int) "parent link" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "op id" 7 inner.Spans.op;
    Alcotest.(check bool) "nested" true (Spans.coverage (Spans.children [ inner; outer ]) outer <= 1.)
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "nearest-rank quantiles" `Quick test_quantile;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "child coverage" `Quick test_coverage;
          Alcotest.test_case "span recorder" `Quick test_recorder;
        ] );
    ]
