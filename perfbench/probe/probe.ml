(* In-process half of the repository benchmark. run.py drives the
   product through the `ebrc` CLI and calls this executable for the
   parts that need the library itself:

     probe dumbbell-manifest --seed S --pairs N --out FILE
         the dumbbell workload's sweep manifest
     probe replay --manifest FILE --ref DIR
         run every task serially through Scenario.run and publish it
         with Result_cache.store_to: the byte-identity reference for
         the fleet's store, and the fleet's serial compute time
     probe figures [--count] [--warm]
         regenerate every registry figure in-process, one id at a
         time; --count enables telemetry to attribute events to ids,
         --warm times a second, warm-cache pass
     probe costs --depth D --scratch DIR [--manifest FILE --ref DIR]
         per-call cost of the public layer functions the cost model
         multiplies by the traced counts

   Every subcommand prints one JSON object on stdout. Only functions
   that stay public whatever scheduler or pooling mode the library
   uses are called, so the benchmark does not change with the code it
   measures. *)

module Scenario = Ebrc.Scenario
module Result_cache = Ebrc.Result_cache
module Manifest = Ebrc_serve.Manifest
module Task_queue = Ebrc_serve.Task_queue

let now = Unix.gettimeofday
let num x = Printf.sprintf "%.17g" x

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Cost of one call, in ns: the median over [rounds] of a round's
   elapsed time divided by the calls it made. *)
let per_call_ns ?(rounds = 7) ~calls f =
  median
    (List.init rounds (fun _ ->
         let t0 = now () in
         f ();
         (now () -. t0) *. 1e9 /. float_of_int calls))

(* Deterministic input stream for the microbenchmarks. *)
let lcg = ref 0x2545f491

let uniform () =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3fffffff;
  float_of_int (!lcg land 0xfffff) /. 1048576.0

let load_manifest path =
  match Manifest.load ~path with
  | Ok m -> m
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* ----------------------------- inputs ----------------------------- *)

(* The ns-2 baseline and its DropTail-100 twin over consecutive seeds. *)
let dumbbell_manifest ~seed ~pairs =
  let base = Scenario.default_config in
  let task i queue = { base with Scenario.seed = seed + i; queue } in
  {
    Manifest.tasks =
      List.concat
        (List.init pairs (fun i ->
             [ task i base.Scenario.queue;
               task i (Scenario.Drop_tail { capacity = 100 }) ]));
  }

(* ----------------------------- replay ----------------------------- *)

let replay ~manifest ~ref_dir =
  let m = load_manifest manifest in
  let rows =
    List.map
      (fun cfg ->
        let t0 = now () in
        let r = Scenario.run cfg in
        let compute = now () -. t0 in
        Result_cache.store_to ~dir:ref_dir cfg r;
        Printf.sprintf "{\"digest\":\"%s\",\"compute_s\":%s}"
          (Manifest.digest cfg) (num compute))
      m.Manifest.tasks
  in
  Printf.printf "{\"tasks\":[%s]}\n" (String.concat "," rows)

(* ----------------------------- figures ---------------------------- *)

let events_fired () =
  List.fold_left
    (fun acc (s : Ebrc.Telemetry.snapshot) ->
      if s.Ebrc.Telemetry.snap_name = "sim.events_fired" then
        acc + s.Ebrc.Telemetry.count
      else acc)
    0
    (Ebrc.Telemetry.snapshot ())

let figures ~count ~warm =
  if count then Ebrc.Telemetry.set_enabled true;
  let rows =
    List.map
      (fun id ->
        let e0 = if count then events_fired () else 0 in
        let t0 = now () in
        let tables = Ebrc.Figures.run_one ~jobs:1 ~quick:true id in
        let seconds = now () -. t0 in
        let events = if count then events_fired () - e0 else 0 in
        let digests =
          List.map
            (fun t ->
              Printf.sprintf "\"%s\""
                (Digest.to_hex (Digest.string (Ebrc.Table.to_csv t))))
            tables
        in
        Printf.sprintf
          "{\"id\":\"%s\",\"seconds\":%s,\"events\":%d,\"tables\":[%s]}" id
          (num seconds) events
          (String.concat "," digests))
      (Ebrc.Figures.ids ())
  in
  (* With --warm the registry runs a second time in this process: the
     result-cache memo and the figure memo tables are warm. *)
  let warm_s =
    if warm then begin
      let t0 = now () in
      List.iter
        (fun id -> ignore (Ebrc.Figures.run_one ~jobs:1 ~quick:true id : Ebrc.Table.t list))
        (Ebrc.Figures.ids ());
      now () -. t0
    end
    else 0.0
  in
  Printf.printf "{\"figures\":[%s],\"warm_s\":%s}\n" (String.concat "," rows)
    (num warm_s)

(* --------------------------- layer costs -------------------------- *)

(* Event core: schedule_after_unit + dispatch with [depth] events
   pending; every fired event schedules its successor, so the depth
   holds for the whole measurement. *)
let dispatch_ns ~depth =
  let e = Ebrc.Engine.create () in
  let rec fire () =
    Ebrc.Engine.schedule_after_unit e ~delay:(0.05 *. uniform ()) fire
  in
  for _ = 1 to max 1 depth do
    Ebrc.Engine.schedule_after_unit e ~delay:(0.05 *. uniform ()) fire
  done;
  let calls = 200_000 in
  per_call_ns ~calls (fun () ->
      ignore
        (Ebrc.Engine.run ~max_events:(Ebrc.Engine.processed e + calls) e
          : Ebrc.Engine.stop_reason))

(* Link and queue: offer per packet, a departure with probability
   1/2, so the queue sits near its limits and both branches of the
   drop decision run. *)
let offer_ns kind ~capacity =
  let q = Ebrc.Queue_discipline.create ~capacity kind in
  let t = ref 0.0 in
  let calls = 200_000 in
  per_call_ns ~calls (fun () ->
      for _ = 1 to calls do
        t := !t +. 0.0005;
        ignore
          (Ebrc.Queue_discipline.offer q ~now:!t ~u:(uniform ())
            : Ebrc.Queue_discipline.decision);
        if uniform () < 0.5 && Ebrc.Queue_discipline.occupancy q > 0 then
          Ebrc.Queue_discipline.departure q ~now:!t
      done)

(* WALI estimator: one loss interval recorded and the estimate read. *)
let estimator_ns () =
  let li = Ebrc.Loss_interval.of_tfrc ~l:8 in
  let calls = 200_000 in
  let sink = ref 0.0 in
  let ns =
    per_call_ns ~calls (fun () ->
        for _ = 1 to calls do
          Ebrc.Loss_interval.record li (1.0 +. (200.0 *. uniform ()));
          sink := !sink +. Ebrc.Loss_interval.estimate li
        done)
  in
  if Float.is_nan !sink then prerr_endline "probe: estimator produced nan";
  ns

let formula_ns () =
  let f = Ebrc.Formula.create ~rtt:0.05 Ebrc.Formula.Pftk_standard in
  let calls = 200_000 in
  let sink = ref 0.0 in
  let ns =
    per_call_ns ~calls (fun () ->
        for _ = 1 to calls do
          sink := !sink +. Ebrc.Formula.eval f (0.001 +. (0.1 *. uniform ()))
        done)
  in
  if Float.is_nan !sink then prerr_endline "probe: formula produced nan";
  ns

(* Records the store and queue costs are measured on: the workload's
   own (reloaded from the replay's reference store) or, for a workload
   that publishes nothing, a fixed 8-task demo sweep. *)
let records ~manifest ~ref_dir =
  match (manifest, ref_dir) with
  | Some path, Some dir ->
      List.filteri (fun i _ -> i < 16) (load_manifest path).Manifest.tasks
      |> List.map (fun cfg ->
             match Result_cache.load_from ~dir cfg with
             | Some r -> (cfg, r)
             | None -> failwith ("probe: no reference record for " ^ Manifest.digest cfg))
  | _ ->
      List.map
        (fun cfg -> (cfg, Scenario.run cfg))
        (Manifest.demo ~seed0:1 ~duration:10.0 ~tasks:8 ()).Manifest.tasks

let store_costs ~scratch recs =
  let n = List.length recs in
  let round = ref 0 in
  let fresh prefix =
    incr round;
    Filename.concat scratch (Printf.sprintf "%s-%d" prefix !round)
  in
  let publish =
    per_call_ns ~calls:n (fun () ->
        let dir = fresh "publish" in
        List.iter (fun (cfg, r) -> Result_cache.store_to ~dir cfg r) recs)
  in
  let dir = fresh "load" in
  List.iter (fun (cfg, r) -> Result_cache.store_to ~dir cfg r) recs;
  let load =
    per_call_ns ~calls:n (fun () ->
        List.iter
          (fun (cfg, _) ->
            if Result_cache.load_from ~dir cfg = None then
              failwith "probe: published record did not load")
          recs)
  in
  let claim_rounds =
    List.init 7 (fun _ ->
        let q = Task_queue.create ~dir:(fresh "queue") () in
        List.iter
          (fun (cfg, _) ->
            Task_queue.enqueue q ~digest:(Manifest.digest cfg)
              ~spec:(Manifest.task_to_json cfg))
          recs;
        let t0 = now () in
        List.iter
          (fun (cfg, _) ->
            let digest = Manifest.digest cfg in
            match Task_queue.claim q ~worker:"probe" ~ttl:300.0 ~digest with
            | Task_queue.Claimed -> Task_queue.complete q ~digest
            | Task_queue.Busy | Task_queue.Gone ->
                failwith "probe: claim on a fresh queue did not win")
          recs;
        (now () -. t0) *. 1e9 /. float_of_int n)
  in
  (publish, load, median claim_rounds)

let costs ~depth ~scratch ~manifest ~ref_dir =
  let dispatch = dispatch_ns ~depth in
  let bdp = Scenario.bdp_packets Scenario.default_config in
  let red =
    offer_ns
      (Ebrc.Queue_discipline.Red (Ebrc.Queue_discipline.default_red ~bdp))
      ~capacity:(Scenario.queue_capacity Scenario.default_config)
  in
  let droptail = offer_ns Ebrc.Queue_discipline.Drop_tail ~capacity:100 in
  let estimator = estimator_ns () in
  let formula = formula_ns () in
  let publish, load, claim = store_costs ~scratch (records ~manifest ~ref_dir) in
  Printf.printf
    "{\"dispatch_ns\":%s,\"offer_red_ns\":%s,\"offer_droptail_ns\":%s,\
     \"estimator_ns\":%s,\"formula_ns\":%s,\"publish_ns\":%s,\
     \"load_ns\":%s,\"claim_ns\":%s}\n"
    (num dispatch) (num red) (num droptail) (num estimator) (num formula)
    (num publish) (num load) (num claim)

(* ------------------------------ main ------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name =
    match opt name args with
    | Some v -> v
    | None -> failwith ("probe: missing " ^ name)
  in
  match args with
  | "dumbbell-manifest" :: _ ->
      let m =
        dumbbell_manifest
          ~seed:(int_of_string (req "--seed"))
          ~pairs:(int_of_string (req "--pairs"))
      in
      Manifest.save ~path:(req "--out") m;
      Printf.printf "{\"tasks\":%d}\n" (List.length m.Manifest.tasks)
  | "replay" :: _ -> replay ~manifest:(req "--manifest") ~ref_dir:(req "--ref")
  | "figures" :: _ ->
      figures ~count:(List.mem "--count" args) ~warm:(List.mem "--warm" args)
  | "costs" :: _ ->
      costs
        ~depth:(int_of_string (req "--depth"))
        ~scratch:(req "--scratch") ~manifest:(opt "--manifest" args)
        ~ref_dir:(opt "--ref" args)
  | _ ->
      prerr_endline
        "usage: probe (dumbbell-manifest|replay|figures|costs) [options]";
      exit 2
