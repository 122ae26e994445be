(* Manifest → queue → supervised worker fleet → watch; see the .mli. *)

module Rc = Ebrc_exp.Result_cache
module Status = Ebrc_obs.Status
module Chaos = Ebrc_chaos.Io_fault
module Prng = Ebrc_rng.Prng

type config = {
  manifest_path : string;
  queue_dir : string;
  store_dir : string;
  workers : int;
  ttl : float;
  retries : int;
  poll : float;
  watchdog : float;
  max_strikes : int;
  chaos_kill : int option;
  quiet : bool;
}

let default ~manifest_path =
  let queue_dir = manifest_path ^ ".queue" in
  {
    manifest_path;
    queue_dir;
    store_dir = Filename.concat queue_dir "store";
    workers = 2;
    ttl = 300.0;
    retries = 1;
    poll = 0.25;
    watchdog = 120.0;
    max_strikes = 3;
    chaos_kill = None;
    quiet = false;
  }

type progress = {
  total : int;
  published : int;
  queued : int;
  leased : int;
  failed : int;
  poisoned : int;
}

type taxonomy = {
  mutable t_restarts : int;
  mutable t_stall_kills : int;
  mutable t_chaos_kills : int;
  mutable t_strikes : int;
}

(* Exponential-backoff respawn delay after the n-th consecutive death
   (n from 0), capped so a flapping fleet still probes for recovery. *)
let backoff n = Float.min 15.0 (0.5 *. Float.pow 2.0 (float_of_int n))

(* Consecutive deaths without any fleet-wide publication progress
   before a worker slot is retired — the fleet-level circuit breaker
   backing up the per-digest poison one. *)
let max_barren_restarts = 5

(* Distinct digests: a manifest may repeat a config; identity is the
   digest, so duplicates collapse to one task. *)
let distinct_tasks (m : Manifest.t) =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun cfg ->
      let d = Manifest.digest cfg in
      if Hashtbl.mem seen d then false
      else begin
        Hashtbl.add seen d ();
        true
      end)
    m.Manifest.tasks

let progress_of ~queue ~total ~published =
  {
    total;
    published;
    queued = List.length (Task_queue.pending queue);
    leased = Task_queue.leased queue;
    failed = List.length (Task_queue.failed queue);
    poisoned = List.length (Task_queue.poisoned queue);
  }

let progress ~store_dir ~queue m =
  let tasks = distinct_tasks m in
  progress_of ~queue ~total:(List.length tasks)
    ~published:
      (List.length (List.filter (fun c -> Rc.published ~dir:store_dir c) tasks))

let plan ?gc_max_age ~store_dir ~queue m =
  ignore (Rc.gc_tmp ?max_age:gc_max_age store_dir);
  let outstanding = ref 0 in
  List.iter
    (fun cfg ->
      if not (Rc.published ~dir:store_dir cfg) then begin
        incr outstanding;
        let digest = Manifest.digest cfg in
        (* Re-serving is the operator's retry: a poison verdict from a
           previous invocation is cleared when its digest is enqueued
           again. *)
        Task_queue.clear_poison queue ~digest;
        Task_queue.enqueue queue ~digest ~spec:(Manifest.task_to_json cfg)
      end)
    (distinct_tasks m);
  !outstanding

(* --------------------------- exit watching ------------------------ *)

type child = { pid : int; exit_fd : Unix.file_descr }

(* The child alone holds the write end of its exit pipe: close-on-exec
   is cleared for this one spawn and the parent closes its copy at
   once, so no sibling inherits it and the read end reads EOF exactly
   when the child exits. *)
let spawn_watched argv =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.clear_close_on_exec w;
  match Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr with
  | pid ->
      Unix.close w;
      { pid; exit_fd = r }
  | exception e ->
      Unix.close w;
      Unix.close r;
      raise e

(* Nobody writes to an exit pipe, so readable means EOF: exited. *)
let await_exits children timeout =
  match
    Unix.select (List.map (fun c -> c.exit_fd) children) [] [] timeout
  with
  | ready, _, _ -> List.filter (fun c -> List.mem c.exit_fd ready) children
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let kill c = try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap c =
  Unix.close c.exit_fd;
  match Unix.waitpid [] c.pid with
  | _, status -> status = Unix.WEXITED 0
  | exception Unix.Unix_error _ -> false

(* ---------------------------- worker fleet ------------------------ *)

let stream_path queue index =
  Filename.concat (Task_queue.streams_dir queue)
    (Printf.sprintf "worker-%d.jsonl" index)

let worker_id index = Printf.sprintf "serve-w%d" index

let spawn_worker cfg ~queue ~index =
  let stream = stream_path queue index in
  (* Fresh stream per spawn: a stale finished stream would read as a
     live worker's (and fake its heartbeat). *)
  (try Sys.remove stream with Sys_error _ -> ());
  let chaos_args =
    (* Forward chaos to spawned workers with per-worker derived seeds
       so the fleet doesn't inject faults in lockstep. An inherited
       EBRC_CHAOS env var is overridden by this flag in the child. *)
    match Chaos.seed () with
    | None -> []
    | Some s -> [ "--chaos"; string_of_int (s + (1009 * (index + 1))) ]
  in
  let argv =
    Array.of_list
      ([
         Sys.executable_name;
         "worker";
         cfg.queue_dir;
         "--store"; cfg.store_dir;
         "--id"; worker_id index;
         "--ttl"; string_of_float cfg.ttl;
         "--retries"; string_of_int cfg.retries;
         "--stream"; stream;
       ]
      @ chaos_args)
  in
  spawn_watched argv

(* Merge whatever the workers have streamed so far into one fleet
   view; tolerant of torn tails and missing files by construction. *)
let fleet_view queue =
  let dir = Task_queue.streams_dir queue in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | entries ->
      let views =
        Array.to_list entries
        |> List.filter (fun e -> Filename.check_suffix e ".jsonl")
        |> List.sort String.compare
        |> List.filter_map (fun e ->
               match Status.read_file (Filename.concat dir e) with
               | Ok v -> Some v
               | Error _ -> None)
      in
      if views = [] then None else Some (Status.merge views)

let progress_line p view =
  let fleet =
    match view with
    | None -> ""
    | Some (v : Status.view) ->
        let rate =
          if Float.is_finite v.Status.event_rate then
            Printf.sprintf "  %.0f events/s" v.Status.event_rate
          else ""
        in
        Printf.sprintf "  (%d task records%s)" (List.length v.Status.tasks)
          rate
  in
  let poisoned =
    if p.poisoned > 0 then Printf.sprintf ", %d poisoned" p.poisoned else ""
  in
  Printf.sprintf "serve: %d/%d published, %d queued, %d leased, %d failed%s%s"
    p.published p.total p.queued p.leased p.failed poisoned fleet

(* ----------------------------- supervisor ------------------------- *)

(* One supervised worker slot. The worker id (hence lease attribution)
   is stable across restarts of the same slot. *)
type slot = {
  index : int;
  stream : string;
  mutable proc : child option;
  mutable beat : float;  (** wall time of the last observed heartbeat *)
  mutable stream_size : int;
  mutable deaths : int;  (** consecutive deaths without fleet progress *)
  mutable spawn_after : float;  (** backoff gate for the next respawn *)
  mutable retired : bool;
}

let supervise cfg ~queue ~say m =
  let strikes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let tax =
    { t_restarts = 0; t_stall_kills = 0; t_chaos_kills = 0; t_strikes = 0 }
  in
  (* The chaos monkey draws from its own stream (index 1; the I/O shim
     owns index 0) so kill schedules replay independently of I/O
     faulting. It kills on a drawn interval (0.5–2 s) rather than a
     per-tick coin flip so even a short sweep is guaranteed to lose
     workers. *)
  let monkey =
    Option.map
      (fun s ->
        let g = Prng.stream ~root:s 1 in
        (g, ref (Unix.gettimeofday () +. 0.5 +. (1.5 *. Prng.float_unit g))))
      cfg.chaos_kill
  in
  let slots =
    Array.init cfg.workers (fun i ->
        {
          index = i;
          stream = stream_path queue i;
          proc = None;
          beat = 0.0;
          stream_size = -1;
          deaths = 0;
          spawn_after = 0.0;
          retired = false;
        })
  in
  let spawn slot =
    slot.proc <- Some (spawn_worker cfg ~queue ~index:slot.index);
    slot.beat <- Unix.gettimeofday ();
    slot.stream_size <- -1
  in
  (* Digest → config for the published-already check below. *)
  let cfg_of : (string, Ebrc_exp.Scenario.config) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun c -> Hashtbl.replace cfg_of (Manifest.digest c) c)
    (distinct_tasks m);
  (* Worker death with the slot's leases still on disk means the task
     under each lease may have killed the process: strike it, free the
     lease for the survivors, and poison it once it has demonstrably
     taken [max_strikes] workers down. Digests whose task file is gone
     or whose result is already published are merely reclaimed — a
     worker dying between publish and complete must not poison a
     perfectly good task (and poisoning it would double-count the
     digest in the completion arithmetic). *)
  let strike_leases slot =
    List.iter
      (fun digest ->
        let still_pending =
          Task_queue.read_spec queue ~digest <> None
          && not
               (match Hashtbl.find_opt cfg_of digest with
               | Some c -> Rc.published ~dir:cfg.store_dir c
               | None -> false)
        in
        if still_pending then begin
          let n =
            1
            + (match Hashtbl.find_opt strikes digest with
              | Some n -> n
              | None -> 0)
          in
          Hashtbl.replace strikes digest n;
          tax.t_strikes <- tax.t_strikes + 1;
          if n >= cfg.max_strikes then begin
            Task_queue.poison queue ~digest
              ~message:
                (Printf.sprintf
                   "%d worker death(s) while leased (crash-loop circuit \
                    breaker)"
                   n);
            Printf.eprintf
              "ebrc serve: task %s poisoned after %d worker death(s)\n%!"
              digest n
          end
        end)
      (Task_queue.reclaim_worker queue ~worker:(worker_id slot.index))
  in
  let handle_death slot ~now ~clean ~outstanding =
    strike_leases slot;
    if clean && not outstanding then slot.retired <- true
    else begin
      slot.deaths <- slot.deaths + 1;
      if slot.deaths > max_barren_restarts then begin
        slot.retired <- true;
        Printf.eprintf
          "ebrc serve: worker %d retired after %d deaths without fleet \
           progress\n\
           %!"
          slot.index slot.deaths
      end
      else slot.spawn_after <- now +. backoff (slot.deaths - 1)
    end
  in
  let live () = Array.to_list slots |> List.filter_map (fun s -> s.proc) in
  (* Reaping closes the exit fd and drops it from the select set, so a
     dead worker's EOF never wakes the loop twice. *)
  let reap_exited exited on_exit =
    Array.iter
      (fun slot ->
        match slot.proc with
        | Some c when List.memq c exited ->
            slot.proc <- None;
            on_exit slot (reap c)
        | _ -> ())
      slots
  in
  let heartbeat slot now =
    (* Stream growth is the heartbeat: workers wall-tick while polling
       and stream sim-time deltas while running, so a silent stream is
       a hung process, not a busy one. *)
    match Unix.stat slot.stream with
    | st ->
        if st.Unix.st_size <> slot.stream_size then begin
          slot.stream_size <- st.Unix.st_size;
          slot.beat <- now
        end
    | exception Unix.Unix_error _ -> ()
  in
  Array.iter spawn slots;
  say (Printf.sprintf "serve: spawned %d worker(s)" cfg.workers);
  let last_published = ref (-1) in
  let rec watch last_line =
    let now = Unix.gettimeofday () in
    let p = progress ~store_dir:cfg.store_dir ~queue m in
    if p.published > !last_published then begin
      if !last_published >= 0 then
        Array.iter (fun s -> s.deaths <- 0) slots;
      last_published := p.published
    end;
    let line =
      if cfg.quiet then "" else progress_line p (fleet_view queue)
    in
    if line <> last_line then say line;
    if p.published + p.failed + p.poisoned >= p.total then p
    else begin
      let outstanding = p.queued > 0 || p.leased > 0 in
      Array.iter
        (fun slot ->
          match slot.proc with
          | Some c ->
              heartbeat slot now;
              if cfg.watchdog > 0.0 && now -. slot.beat > cfg.watchdog
              then begin
                Printf.eprintf
                  "ebrc serve: worker %d stalled (no heartbeat for %.0f \
                   s); killing\n\
                   %!"
                  slot.index cfg.watchdog;
                kill c;
                tax.t_stall_kills <- tax.t_stall_kills + 1
              end
          | None ->
              if (not slot.retired) && outstanding && now >= slot.spawn_after
              then begin
                tax.t_restarts <- tax.t_restarts + 1;
                spawn slot
              end)
        slots;
      (match monkey with
      | Some (g, next_kill) when now >= !next_kill -> (
          next_kill := now +. 0.5 +. (1.5 *. Prng.float_unit g);
          match live () with
          | [] -> ()
          | live ->
              kill (List.nth live (Prng.int g (List.length live)));
              tax.t_chaos_kills <- tax.t_chaos_kills + 1)
      | _ -> ());
      let all_retired =
        Array.for_all (fun s -> s.retired && s.proc = None) slots
      in
      if all_retired then begin
        Printf.eprintf
          "ebrc serve: every worker slot retired with work remaining\n%!";
        p
      end
      else begin
        (* Block until a worker exits or the next supervision tick,
           whichever comes first; an exit is reaped at once and the
           loop re-checks completion straight away. *)
        reap_exited (await_exits (live ()) cfg.poll) (fun slot clean ->
            handle_death slot ~now:(Unix.gettimeofday ()) ~clean
              ~outstanding);
        watch line
      end
    end
  in
  let p = watch "" in
  (* Collect the fleet. Post-completion the queue has no task files,
     so live workers exit on their own; give them a grace period, then
     SIGKILL stragglers (a worker hung inside a poisoned task's
     simulation would otherwise wedge serve itself). *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec collect () =
    match live () with
    | [] -> ()
    | children ->
        let left = deadline -. Unix.gettimeofday () in
        if left > 0.0 then begin
          reap_exited (await_exits children left) (fun _ _ -> ());
          collect ()
        end
        else begin
          List.iter kill children;
          reap_exited children (fun _ _ -> ())
        end
  in
  collect ();
  (p, tax)

(* ------------------------------- run ------------------------------ *)

let run cfg =
  match Manifest.load ~path:cfg.manifest_path with
  | Error msg ->
      Printf.eprintf "ebrc serve: %s: %s\n%!" cfg.manifest_path msg;
      2
  | Ok m ->
      let queue = Task_queue.create ~dir:cfg.queue_dir () in
      let outstanding =
        plan ~gc_max_age:(2.0 *. cfg.ttl) ~store_dir:cfg.store_dir ~queue m
      in
      let say fmt =
        Printf.ksprintf
          (fun s -> if not cfg.quiet then print_endline s)
          fmt
      in
      (* [plan] has just checked every record; reuse its verdicts
         rather than loading the store a second time. *)
      let total = List.length (distinct_tasks m) in
      let p0 = progress_of ~queue ~total ~published:(total - outstanding) in
      say "serve: %d task(s), %d already published, %d outstanding"
        p0.total p0.published outstanding;
      let finish ?tax p =
        (match tax with
        | Some t ->
            say
              "serve: exit taxonomy — %d clean completion(s), %d \
               restart(s), %d stall kill(s), %d chaos kill(s), %d lease \
               strike(s), %d poisoned"
              p.published t.t_restarts t.t_stall_kills t.t_chaos_kills
              t.t_strikes p.poisoned
        | None -> ());
        if p.published = p.total then begin
          say "serve: complete (%d/%d published)" p.published p.total;
          0
        end
        else begin
          List.iter
            (fun (digest, msg) ->
              Printf.eprintf "ebrc serve: task %s failed: %s\n%!" digest msg)
            (Task_queue.failed queue);
          List.iter
            (fun (digest, msg) ->
              Printf.eprintf "ebrc serve: task %s poisoned: %s\n%!" digest
                msg)
            (Task_queue.poisoned queue);
          Printf.eprintf
            "ebrc serve: incomplete (%d/%d published, %d failed, %d \
             poisoned)\n\
             %!"
            p.published p.total p.failed p.poisoned;
          1
        end
      in
      if outstanding = 0 then
        (* Warm resume: everything already in the store. *)
        finish p0
      else if cfg.workers <= 0 then begin
        (* Prime-only mode: external workers will drain the queue. *)
        say "serve: queue primed at %s (no workers spawned)" cfg.queue_dir;
        if p0.failed > 0 || p0.poisoned > 0 then finish p0 else 0
      end
      else begin
        let p, tax =
          supervise cfg ~queue
            ~say:(fun s -> if not cfg.quiet then print_endline s)
            m
        in
        finish ~tax p
      end
