(** Seeded workloads for the happens-before race checker ({!Psnap.Race}).

    Two intentionally racy fixtures — the dynamic twins of the static
    fixtures under [test/fixtures/] — and two clean controls.  Each builds
    a fresh workload per call, so runs replay deterministically under a
    recorded schedule (oids are reset by {!run}). *)

open Psnap

type t = {
  name : string;
  n : int;  (** number of pids *)
  racy : bool;  (** expected verdict under any interleaving schedule *)
  describe : string;
  procs : unit -> (unit -> unit) array;
      (** fresh shared state + process bodies; call once per run *)
}

(* The plain-ref counter of test/fixtures/racy_counter.ml: two domains
   bump one unsynchronized cell with read-increment-write.  Every
   interleaving has unordered conflicting accesses, so any schedule
   witnesses the race. *)
let racy_counter =
  {
    name = "racy-counter";
    n = 2;
    racy = true;
    describe =
      "two pids read-increment-write one plain (unsynchronized) cell";
    procs =
      (fun () ->
        let c = Mem.Sim.make_plain ~name:"counter" 0 in
        let bump () =
          for _ = 1 to 3 do
            let v = Mem.Sim.read c in
            Mem.Sim.write c (v + 1)
          done
        in
        [| bump; bump |]);
  }

(* Control for racy-counter: the same counter as a default (atomic) cell
   with a bounded CAS retry loop.  Reads acquire and successful CASes
   release, so every pair of conflicting accesses is ordered. *)
let cas_counter =
  {
    name = "cas-counter";
    n = 2;
    racy = false;
    describe = "the same counter, atomic with CAS retry: every access synchronizes";
    procs =
      (fun () ->
        let c = Mem.Sim.make ~name:"counter" 0 in
        let bump () =
          for _ = 1 to 3 do
            (* Bounded retry: with 2 pids and 3 increments each, at most
               [n * increments] conflicts, so 16 attempts always suffice. *)
            let rec attempt budget =
              if budget > 0 then begin
                let v = Mem.Sim.read c in
                if not (Mem.Sim.cas c ~expected:v ~desired:(v + 1)) then
                  attempt (budget - 1)
              end
            in
            attempt 16
          done
        in
        [| bump; bump |]);
  }

(* The unpublished-view bug of test/fixtures/unpublished_view.ml: a writer
   fills a plain buffer, publishes a flag through an atomic cell (release),
   and then patches the buffer *after* publication.  The reader acquires
   the flag and reads the buffer: the pre-publication write is ordered by
   the flag edge, the post-publication patch is not — that plain
   write/read pair is the race. *)
let unpublished_view =
  {
    name = "unpublished-view";
    n = 2;
    racy = true;
    describe =
      "writer patches a plain buffer after releasing its publication flag";
    procs =
      (fun () ->
        let flag = Mem.Sim.make ~name:"published" 0 in
        let buf = Mem.Sim.make_plain ~name:"view" 0 in
        let writer () =
          Mem.Sim.write buf 41;
          (* correctly ordered: before the release *)
          Mem.Sim.write flag 1;
          Mem.Sim.write buf 42
          (* the bug: after the release *)
        in
        let reader () =
          (* Poll the flag (acquire) until published; bounded so the run
             terminates under any schedule. *)
          let rec wait budget =
            if budget > 0 && Mem.Sim.read flag = 0 then wait (budget - 1)
          in
          wait 100;
          ignore (Mem.Sim.read buf)
        in
        [| writer; reader |]);
  }

(* Clean control at algorithm scale: a fig3 partial-snapshot run.  All of
   fig3's shared state lives in default (atomic) cells, so the checker
   reports no races by construction — the dynamic face of the paper's
   claim that every inter-process interaction goes through registers and
   CAS. *)
let clean_fig3 =
  {
    name = "clean-fig3";
    n = 3;
    racy = false;
    describe = "fig3 snapshot, 2 updaters + 1 scanner: all state atomic";
    procs =
      (fun () ->
        let obj = (Instance.sim "fig3").Instance.create ~n:3 [| 0; 0; 0 |] in
        [|
          (fun () ->
            for k = 1 to 3 do
              obj.Instance.update ~pid:0 0 (10 + k)
            done);
          (fun () ->
            for k = 1 to 3 do
              obj.Instance.update ~pid:1 1 (20 + k)
            done);
          (fun () -> ignore (obj.Instance.scan ~pid:2 [| 0; 1 |]));
        |]);
  }

let all = [ racy_counter; cas_counter; unpublished_view; clean_fig3 ]

let find name = List.find_opt (fun f -> f.name = name) all

(** One run of [f] under [sched] with the detector on: returns the
    simulator result (traced) and the races found.  The detector is
    re-enabled (clearing previous state) per run and left enabled so the
    caller can inspect it; oids are reset so recorded schedules replay. *)
let run ?(record_trace = true) ~sched f =
  Sim.reset_prerun_oids ();
  Race.enable ~n:f.n ();
  let result = Sim.run ~record_trace ~sched (f.procs ()) in
  (result, Race.races ())

(** Replay a decision schedule against [f] (lenient, round-robin tail —
    the shrinker's oracle contract) and report whether any race shows. *)
let races_under f decisions =
  let sched =
    Scheduler.replay_decisions ~lenient:true
      ~fallback:(Scheduler.round_robin ()) decisions
  in
  let _, races = run ~record_trace:false ~sched f in
  races <> []

(** A 1-minimal witness schedule for the first race [f] shows under
    [sched], via ddmin over the prefix of the recorded schedule up to the
    race's second access.  [None] when the run shows no race. *)
let witness ~sched f =
  let result, races = run ~record_trace:true ~sched f in
  match races with
  | [] -> None
  | r :: _ ->
    let prefix =
      Trace.race_window ~from_clock:0 ~until_clock:r.Race.second.Race.clock
        result.Sim.trace
      |> Trace.schedule
    in
    let minimal, oracle_calls =
      Shrink.minimize ~oracle:(races_under f) prefix
    in
    Some (r, minimal, oracle_calls)
