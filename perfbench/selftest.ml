(* The benchmark's self-tests, run by [main.exe --selftest]:

   - the shims are transparent: plain and traced stacks return identical
     scan results for the same stream;
   - simulator step counts and every exact per-layer count repeat
     bit-for-bit across two runs;
   - the output checks catch a planted wrong answer (a store that silently
     drops one update), and the exhaustive checker convicts a known-unsound mode;
   - the layer self times plus the benchmark's own span time add up to
     the traced wall time per operation. *)

let failures = ref 0

let expect name ok detail =
  Printf.printf "%s %s%s\n%!" (if ok then "PASS" else "FAIL") name
    (if detail = "" then "" else ": " ^ detail);
  if not ok then incr failures

(* A store that acknowledges its [k]-th update without applying it. *)
module Drop_one (S : Client.STACK) (K : sig
  val k : int
end) : Client.STACK = struct
  include S

  let seen = ref 0

  let update w i v =
    incr seen;
    if !seen <> K.k then S.update w i v
end

(* Exact counters of the last traced pass, as one comparable value.  The
   ABD network counters are left out: replica domains bump them, so they
   depend on timing. *)
let counts () =
  let c = Tracing.c in
  ( [ c.ops; c.mem; c.cas; c.cas_failed; c.aset_calls; c.collects; c.rt_rounds;
      c.rt_subscans; c.rt_scans; c.appends; c.bytes; c.syncs ]
    |> List.map Array.copy,
    Array.copy Tracing.spans,
    !Tracing.ckpt_count )

let traced_pass stack s =
  Tracing.reset ();
  let p = Client.run_pass stack s ~traced:true in
  (p, counts ())

let stack_tests name spec (plain : Client.stack) (traced : Client.stack) sim_steps =
  let s = Stream.generate spec ~seed:7 in
  let p = Client.run_pass plain s ~traced:false in
  let t1, c1 = traced_pass traced s in
  let t2, c2 = traced_pass traced s in
  expect (name ^ ": output checks pass")
    (p.failed = 0 && p.verified && t1.failed = 0 && t1.verified)
    (Printf.sprintf "plain failed=%d verified=%b, traced failed=%d verified=%b"
       p.failed p.verified t1.failed t1.verified);
  expect (name ^ ": shims are transparent") (p.digest = t1.digest && p.digest = t2.digest)
    (Printf.sprintf "plain digest %x, traced digest %x" p.digest t1.digest);
  expect (name ^ ": per-layer counts repeat") (c1 = c2) "";
  (* Every span's self time summed is the root spans' total, which should
     cover the timed loop but for the few instructions between
     operations.  The counters still hold the second traced pass. *)
  let per_op x = float_of_int x /. float_of_int (Array.length s.Stream.is_update) in
  let wall = per_op t2.wall_ns and sum = per_op (Array.fold_left ( + ) 0 Tracing.self_ns) in
  expect (name ^ ": layer self times add up to the traced time per op")
    (Float.abs (sum -. wall) /. wall < 0.05)
    (Printf.sprintf "layers and benchmark (%.1f ns/op of it) %.1f ns/op, traced wall %.1f ns/op"
       (per_op (Tracing.both Tracing.self_of Tracing.Bench)) sum wall);
  let sim_s = Stream.generate { spec with Stream.ops = 1000 } ~seed:7 in
  let r1 : Steps.result = sim_steps sim_s ~ops:1000 ~seed:3
  and r2 : Steps.result = sim_steps sim_s ~ops:1000 ~seed:3 in
  expect (name ^ ": simulator steps repeat") (r1 = r2 && r1.violations = 0)
    (Printf.sprintf "%.6f/%.6f then %.6f/%.6f steps, %d violations" r1.update_steps
       r1.scan_steps r2.update_steps r2.scan_steps r1.violations);
  let module K = struct
    let k = 50
  end in
  let module P = (val plain) in
  let d = Client.run_pass (module Drop_one (P) (K)) s ~traced:false in
  expect (name ^ ": a dropped update is caught") (d.failed > 0 || not d.verified)
    (Printf.sprintf "failed=%d verified=%b" d.failed d.verified)

let run () =
  let small spec ops = { spec with Stream.ops } in
  stack_tests "store-write-heavy" (small Workloads.write_heavy 20_000)
    (module Store.Plain) (module Store.Traced) Store.sim_steps;
  stack_tests "store-scan-heavy" (small Workloads.scan_heavy 5_000)
    (module Store.Plain) (module Store.Traced) Store.sim_steps;
  stack_tests "abd-net3" (small Workloads.abd_net3 300) (module Abd.Plain)
    (module Abd.Traced) Abd.sim_steps;
  let limit = 3_000 in
  let p = Explore.Plain.exhaust ~max_runs:limit ~oracle:true Explore.sound in
  Tracing.reset ();
  Tracing.on := true;
  let t1 = Explore.Traced.exhaust ~max_runs:limit ~oracle:true Explore.sound in
  let steps1 = Tracing.c.mem.(0) + Tracing.c.mem.(1) in
  Tracing.reset ();
  let t2 = Explore.Traced.exhaust ~max_runs:limit ~oracle:true Explore.sound in
  let steps2 = Tracing.c.mem.(0) + Tracing.c.mem.(1) in
  Tracing.on := false;
  expect "checker: shims are transparent"
    (p.schedules = t1.schedules && p.upd_steps = t1.upd_steps
    && p.scan_steps = t1.scan_steps && not p.violation)
    (Printf.sprintf "%d vs %d schedules" p.schedules t1.schedules);
  expect "checker: step counts repeat"
    (steps1 = steps2 && t1.upd_steps = t2.upd_steps && steps1 > 0)
    (Printf.sprintf "%d then %d steps" steps1 steps2);
  expect "checker: the unsound mode is convicted"
    (Explore.Unsound.exhaust ~oracle:true Explore.unsound).violation "";
  if !failures = 0 then 0 else 1
