(* Tests for the timing-wheel event core: dispatch-order equivalence
   with a reference (time, seq) priority queue, wheel window edges
   (rollover, far-future overflow, behind-cursor reschedules after a
   salvaged abort), cancellation across cascades, the schedule_after
   rejection contract, and a pinned flock dispatch fingerprint. *)

module E = Ebrc.Engine
module EQ = Ebrc.Event_queue
module TW = Ebrc.Timing_wheel

(* The scheduling surface the equivalence tests drive, over either the
   engine or the reference. [schedule] returns a canceller. *)
type sched = {
  now : unit -> float;
  schedule : float -> (unit -> unit) -> unit -> unit;
  schedule_unit : float -> (unit -> unit) -> unit;
  run : unit -> unit;
}

let engine_sched () =
  let e = E.create () in
  {
    now = (fun () -> E.now e);
    schedule =
      (fun at f ->
        let h = E.schedule e ~at f in
        fun () -> E.cancel h);
    schedule_unit = (fun at f -> E.schedule_unit e ~at f);
    run = (fun () -> ignore (E.run e : E.stop_reason));
  }

(* Reference scheduler: one stable binary heap (FIFO among equal
   times), its own clock, and a cancel flag per event — the dispatch
   order the engine's wheel + overflow heap must reproduce exactly. *)
let reference_sched () =
  let q : (bool ref * (unit -> unit)) EQ.t = EQ.create () in
  let now = ref 0.0 in
  let schedule at f =
    let cancelled = ref false in
    EQ.push q ~time:at (cancelled, f);
    fun () -> cancelled := true
  in
  let rec run () =
    match EQ.pop q with
    | None -> ()
    | Some (time, (cancelled, f)) ->
        if not !cancelled then begin
          now := time;
          f ()
        end;
        run ()
  in
  {
    now = (fun () -> !now);
    schedule;
    schedule_unit = (fun at f -> ignore (schedule at f : unit -> unit));
    run;
  }

(* ---------------- dispatch-order equivalence ---------------- *)

(* Interpret one schedule program on a fresh scheduler and return the
   dispatch log. Initial events at quantized times (exact ties and
   same-slot bursts are common by construction); optionally cancelled
   right after scheduling; every third fired event schedules a
   follow-up, sometimes far beyond the 16 s wheel horizon so the
   overflow heap stays in the merge. *)
let run_program s prog =
  let log = ref [] in
  List.iteri
    (fun i (t, cancel) ->
      let c =
        s.schedule t (fun () ->
            log := i :: !log;
            if i mod 3 = 0 then
              s.schedule_unit
                (s.now () +. (0.37 *. t) +. if i mod 5 = 0 then 20.0 else 0.0)
                (fun () -> log := (10_000 + i) :: !log))
      in
      if cancel then c ())
    prog;
  s.run ();
  List.rev !log

let prop_wheel_heap_identical =
  QCheck.Test.make ~name:"wheel and heap dispatch identically" ~count:120
    QCheck.(
      list_of_size
        Gen.(int_range 1 120)
        (pair (float_range 0.0 40.0) bool))
    (fun raw ->
      (* Quantize to multiples of 0.05 s: adjacent draws collide into
         exact ties and same-slot bursts instead of spreading out. *)
      let prog =
        List.map
          (fun (t, c) -> (float_of_int (int_of_float (t *. 20.0)) /. 20.0, c))
          raw
      in
      run_program (engine_sched ()) prog
      = run_program (reference_sched ()) prog)

(* Same-instant burst: thousands of events at one time land in one
   level-0 slot, forcing the slot sort; FIFO (ticket) order must
   survive it. *)
let test_same_time_burst () =
  let run s =
    let log = ref [] in
    for i = 0 to 4_999 do
      s.schedule_unit 1.0 (fun () -> log := i :: !log)
    done;
    s.run ();
    List.rev !log
  in
  let wheel_log = run (engine_sched ()) in
  Alcotest.(check bool)
    "burst dispatches in scheduling order" true
    (wheel_log = List.init 5_000 Fun.id);
  Alcotest.(check bool)
    "burst identical to reference" true
    (wheel_log = run (reference_sched ()))

(* ---------------------- window edges ----------------------- *)

(* A self-rescheduling tick crossing many 16 s windows: the level-1
   cursor wraps its 256-slot ring several times. *)
let test_rollover () =
  let run s =
    let fires = ref 0 in
    let rec tick () =
      incr fires;
      if s.now () < 40.0 then s.schedule_unit (s.now () +. 0.31) tick
    in
    s.schedule_unit 0.0 tick;
    s.run ();
    !fires
  in
  let w = run (engine_sched ()) in
  Alcotest.(check int) "tick count survives rollover" w
    (run (reference_sched ()));
  Alcotest.(check bool) "ticked across windows" true (w > 120)

let test_far_future_overflow () =
  let e = E.create () in
  let log = ref [] in
  let mark x () = log := x :: !log in
  (* 100 s is far beyond the 16 s horizon: heap-owned. *)
  E.schedule_unit e ~at:100.0 (mark "far");
  E.schedule_unit e ~at:1.0 (mark "near");
  Alcotest.(check int) "overflow event is off the wheel" 1
    (TW.count e.E.wheel);
  E.schedule_unit e ~at:17.5 (mark "mid");
  ignore (E.run e);
  Alcotest.(check (list string))
    "wheel and heap events merge in time order" [ "near"; "mid"; "far" ]
    (List.rev !log)

let test_cancel_across_cascade () =
  let e = E.create () in
  let log = ref [] in
  (* [doomed] sits in a level-1 slot until the cascade at ~1.5 s
     moves it down to level 0; the canceller fires first. *)
  let doomed = E.schedule e ~at:1.5 (fun () -> log := "doomed" :: !log) in
  E.schedule_unit e ~at:1.4375 (fun () ->
      E.cancel doomed;
      log := "canceller" :: !log);
  E.schedule_unit e ~at:1.5625 (fun () -> log := "after" :: !log);
  ignore (E.run e);
  Alcotest.(check (list string))
    "cancelled entry discarded after cascade" [ "canceller"; "after" ]
    (List.rev !log)

(* A sim-budget abort leaves the cursor at the slot of the aborted
   event while [now] stays behind it; a reschedule in that gap is
   behind the cursor and must overflow to the heap, then merge back in
   exact time order when the run resumes. *)
let test_budget_salvage_reschedule () =
  let e = E.create () in
  let log = ref [] in
  let mark x () = log := x :: !log in
  E.schedule_unit e ~at:0.5 (mark "a");
  E.schedule_unit e ~at:2.0 (mark "b");
  E.schedule_unit e ~at:8.0 (mark "c");
  (match E.run ~sim_budget:1.0 e with
  | exception E.Budget_exceeded _ -> ()
  | _ -> Alcotest.fail "expected Budget_exceeded");
  Alcotest.(check bool) "wheel still holds salvaged events" true
    (TW.count e.E.wheel > 0);
  (* now = 0.5; the cursor advanced to b's slot when the budget
     tripped, so 0.6 is behind it and must overflow to the heap —
     the wheel population stays unchanged. *)
  let on_wheel = TW.count e.E.wheel in
  E.schedule_unit e ~at:(E.now e +. 0.1) (mark "late");
  Alcotest.(check int) "behind-cursor event went to the heap" on_wheel
    (TW.count e.E.wheel);
  ignore (E.run e);
  Alcotest.(check (list string))
    "salvage + behind-cursor reschedule keep time order"
    [ "a"; "late"; "b"; "c" ]
    (List.rev !log)

(* ------------------- rejection contract -------------------- *)

(* The message names the rejecting entry point, and is a constant. *)
let test_rejection_names_scheduler () =
  let e = E.create () in
  List.iter
    (fun delay ->
      match E.schedule_after e ~delay (fun () -> ()) with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument m ->
          Alcotest.(check string)
            "message" "Engine.schedule_after: negative or NaN delay" m)
    [ -1.0; Float.nan ]

(* ------------------------- flock --------------------------- *)

(* Event count and dispatch fingerprint pinned when the pure-heap core
   still existed: the wheel and the heap both produced these values. *)
let test_flock_fingerprints_agree () =
  let s = Ebrc.Flock.run ~flows:500 ~duration:5.0 ~seed:7 () in
  Alcotest.(check int) "event count" 2552 s.Ebrc.Flock.events;
  Alcotest.(check int) "dispatch fingerprint" 3452388182890055845
    s.Ebrc.Flock.fingerprint

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_wheel_heap_identical ]

let () =
  Alcotest.run "wheel"
    [
      ( "edges",
        [
          Alcotest.test_case "same-time burst" `Quick test_same_time_burst;
          Alcotest.test_case "rollover" `Quick test_rollover;
          Alcotest.test_case "far-future overflow" `Quick
            test_far_future_overflow;
          Alcotest.test_case "cancel across cascade" `Quick
            test_cancel_across_cascade;
          Alcotest.test_case "budget salvage reschedule" `Quick
            test_budget_salvage_reschedule;
          Alcotest.test_case "rejection names scheduler" `Quick
            test_rejection_names_scheduler;
          Alcotest.test_case "flock fingerprints" `Quick
            test_flock_fingerprints_agree;
        ] );
      ("properties", qsuite);
    ]
