(* Wall-clock time from the monotonic clock, in nanoseconds. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* [f ()] and its wall time in milliseconds *)
let time_ms f =
  let t0 = now_ns () in
  let y = f () in
  (y, ms_between t0 (now_ns ()))
