(* Fixed reference kernel of the repository benchmark.

     calib ROUNDS

   run.py runs it before every repetition of the figures workload and
   scales that workload's times by the square root of its CPU time
   (relative to a quiet host), so that most of the drift of a shared
   host's speed, tens of percent over minutes, cancels out of the
   reported figures. It links the standard library only and
   is compiled by run.py with plain ocamlopt, so it never changes with
   the code or the build flags of the program the benchmark measures.

   Its work resembles the simulator's in the way that matters for host
   noise: a live set of ~10 MB of boxed records that keeps changing, so
   that most of the time goes to minor and major GC and to memory, plus
   some float arithmetic and hashing. It prints a checksum, which
   run.py checks, so the work cannot be optimised away. *)

type r = { key : int; v : float; link : int list }

let state = ref 0x2545f491

let next () =
  state := ((!state * 1103515245) + 12345) land 0x3fffffff;
  !state

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let n = 1 lsl 18 in
  let live = Array.init n (fun i -> { key = i; v = 0.0; link = [ i ] }) in
  let recent = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for _ = 1 to rounds * 400_000 do
    let i = next () land (n - 1) and j = next () land (n - 1) in
    let a = live.(j) in
    live.(i) <- { key = i; v = a.v +. 1.0; link = [ i; a.key ] };
    if i land 7 = 0 then Hashtbl.replace recent (i land 4095) a;
    acc := !acc +. (sqrt (float_of_int (List.length a.link)) *. 0.5)
  done;
  Printf.printf "%.17g %d\n" !acc (Hashtbl.length recent)
