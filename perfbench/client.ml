(* The closed-loop client: one domain issues the stream's operations one
   after another, each only after the previous one returned.  A run is a
   sequence of passes; each pass builds a fresh world (the measured
   set-up), replays the whole fixed-size stream against it while timing
   every operation, then checks the final state. *)

let now = Tracing.now

let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* What a workload's stack provides.  [verify] compares the whole final
   state with the shadow array. *)
module type STACK = sig
  type w

  val setup : Stream.spec -> w

  val update : w -> int -> int -> unit

  val scan : w -> int array -> int array

  val verify : w -> int array -> bool

  val teardown : w -> unit
end

type stack = (module STACK)

(* Latencies pooled over passes in a histogram of fixed size, so that a
   run's memory does not grow with its number of passes (which depends on
   the host's speed).  Exact below 2048 ns; above, buckets are 1/1024 of
   their value wide and a value reads as its bucket's lower bound. *)
module Hist = struct
  let sub_bits = 10

  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make ((64 - sub_bits) * sub) 0; n = 0 }

  let rec bit_length v = if v = 0 then 0 else 1 + bit_length (v lsr 1)

  let index v =
    if v < 2 * sub then v
    else
      let e = bit_length v - (sub_bits + 1) in
      (2 * sub) + ((e - 1) * sub) + ((v lsr e) - sub)

  let lower i =
    if i < 2 * sub then i
    else
      let e = ((i - (2 * sub)) / sub) + 1 in
      (((i - (2 * sub)) mod sub) + sub) lsl e

  let add h v =
    let i = index (max 0 v) in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  (* Nearest-rank percentile. *)
  let percentile h p =
    if h.n = 0 then nan
    else
      let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n))) in
      let rec go i seen =
        let seen = seen + h.counts.(i) in
        if seen >= rank then float_of_int (lower i) else go (i + 1) seen
      in
      go 0 0
end

type pass = {
  setup_ns : int;
  wall_ns : int;
  cpu_ns : int;
  upd_p99 : float;  (** this pass's update latency p99 *)
  scan_p99 : float;
  failed : int;  (** operations that raised or returned a wrong answer *)
  verified : bool;
  check_ns : int;
  digest : int;  (** hash of every scan result, in stream order *)
}

let matches out idxs shadow =
  Array.length out = Array.length idxs
  && (let ok = ref true in
      Array.iteri (fun k i -> if out.(k) <> shadow.(i) then ok := false) idxs;
      !ok)

(* [pool], if given, receives the pass's update and scan latencies. *)
let run_pass ?pool (module S : STACK) (s : Stream.t) ~traced =
  let m = s.Stream.spec.Stream.m in
  Gc.compact ();
  let t0 = now () in
  let w = S.setup s.Stream.spec in
  let setup_ns = now () - t0 in
  let shadow = Array.init m Stream.preload_value in
  let n = Array.length s.Stream.is_update in
  let lat = Array.make n 0 in
  let failed = ref 0 and digest = ref 0 in
  Gc.full_major ();
  let c0 = cpu_ns () and w0 = now () in
  Tracing.on := traced;
  for j = 0 to n - 1 do
    let upd = s.Stream.is_update.(j) in
    if traced then begin
      incr Tracing.op_id;
      Tracing.kind := if upd then Tracing.update_kind else Tracing.scan_kind;
      Tracing.bump Tracing.c.Tracing.ops;
      Tracing.enter Tracing.Bench
    end;
    (try
       if upd then begin
         let t = now () in
         S.update w s.Stream.key.(j) s.Stream.value.(j);
         lat.(j) <- now () - t;
         shadow.(s.Stream.key.(j)) <- s.Stream.value.(j)
       end
       else begin
         let idxs = s.Stream.idxs.(j) in
         let t = now () in
         let out = S.scan w idxs in
         lat.(j) <- now () - t;
         if not (matches out idxs shadow) then incr failed;
         digest := Array.fold_left (fun a v -> (a * 1_000_003) + v) !digest out
       end
     with _ -> incr failed);
    if traced then Tracing.leave ()
  done;
  Tracing.on := false;
  let wall_ns = now () - w0 and cpu = cpu_ns () - c0 in
  let t1 = now () in
  let verified = try S.verify w shadow with _ -> false in
  let check_ns = now () - t1 in
  S.teardown w;
  Option.iter
    (fun (upd, scn) ->
      Array.iteri (fun j l -> Hist.add (if s.Stream.is_update.(j) then upd else scn) l) lat)
    pool;
  let p99 want =
    let h = Hist.create () in
    Array.iteri (fun j l -> if s.Stream.is_update.(j) = want then Hist.add h l) lat;
    Hist.percentile h 99.0
  in
  {
    setup_ns; wall_ns; cpu_ns = cpu; upd_p99 = p99 true; scan_p99 = p99 false;
    failed = !failed; verified; check_ns; digest = !digest;
  }

(* ---- statistics ---- *)

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [passes ~seconds ~min f] calls [f k] for passes k = 0, 1, ... until at
   least [min] passes ran and [seconds] have elapsed. *)
let passes ~seconds ~min f =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec go k acc =
    if k >= min && now () >= deadline then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []
