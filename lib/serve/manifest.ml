(* Canonical JSON codec for sweep manifests.

   Floats are rendered as "%h" hex strings and parsed back with
   [float_of_string], the same discipline as the result store, so a
   config survives save/load bit-exactly — which is what makes the
   content digest (Result_cache's canonical key) stable across
   processes and machines. Field order is fixed, so re-saving a loaded
   manifest is byte-identical. *)

module Scenario = Ebrc_exp.Scenario
module Result_cache = Ebrc_exp.Result_cache
module Qd = Ebrc_net.Queue_discipline
module Fault = Ebrc_net.Fault
module Formula = Ebrc_formulas.Formula
module Json = Ebrc_obs.Json

type t = { tasks : Scenario.config list }

let codec_version = "ebrc-manifest-v1"
let digest = Result_cache.digest_of_config

(* ---------------------------- encoding ---------------------------- *)

let add_float buf f =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Printf.sprintf "%h" f);
  Buffer.add_char buf '"'

let add_field buf ~first name payload =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_char buf '"';
  Buffer.add_string buf name;
  Buffer.add_string buf "\":";
  payload ()

let obj buf fields =
  let first = ref true in
  Buffer.add_char buf '{';
  List.iter (fun (name, payload) -> add_field buf ~first name payload) fields;
  Buffer.add_char buf '}'

let fint buf n () = Buffer.add_string buf (string_of_int n)
let ffloat buf f () = add_float buf f
let fbool buf b () = Buffer.add_string buf (string_of_bool b)

let fstr buf s () =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Json.escape s);
  Buffer.add_char buf '"'

let add_queue buf (q : Scenario.queue_config) () =
  match q with
  | Scenario.Drop_tail { capacity } ->
      obj buf
        [ ("kind", fstr buf "droptail"); ("capacity", fint buf capacity) ]
  | Scenario.Red_auto { capacity } ->
      obj buf
        [ ("kind", fstr buf "red-auto"); ("capacity", fint buf capacity) ]
  | Scenario.Red_manual { capacity; params = p } ->
      obj buf
        [
          ("kind", fstr buf "red");
          ("capacity", fint buf capacity);
          ("min_th", ffloat buf p.Qd.min_th);
          ("max_th", ffloat buf p.max_th);
          ("max_p", ffloat buf p.max_p);
          ("wq", ffloat buf p.wq);
          ("byte_mode", fbool buf p.byte_mode);
          ("mean_pktsize", fint buf p.mean_pktsize);
          ("gentle", fbool buf p.gentle);
        ]

let add_formula buf (k : Formula.kind) () =
  match k with
  | Formula.Sqrt -> obj buf [ ("kind", fstr buf "sqrt") ]
  | Formula.Pftk_standard -> obj buf [ ("kind", fstr buf "pftk") ]
  | Formula.Pftk_simplified -> obj buf [ ("kind", fstr buf "pftk-simple") ]
  | Formula.Aimd { alpha; beta } ->
      obj buf
        [
          ("kind", fstr buf "aimd");
          ("alpha", ffloat buf alpha);
          ("beta", ffloat buf beta);
        ]

let add_window buf (w : Fault.window) () =
  obj buf
    [
      ("start", ffloat buf w.Fault.start);
      ("length", ffloat buf w.length);
      ("period", ffloat buf w.period);
    ]

let add_opt buf add = function
  | None -> fun () -> Buffer.add_string buf "null"
  | Some v -> add v

let add_faults buf (fc : Fault.config) () =
  obj buf
    [
      ( "flaps",
        add_opt buf
          (fun (f : Fault.flaps) () ->
            obj buf
              [
                ("first_down", ffloat buf f.Fault.first_down);
                ("down_mean", ffloat buf f.down_mean);
                ("up_mean", ffloat buf f.up_mean);
                ("flap_jitter", ffloat buf f.flap_jitter);
                ("park", fbool buf f.park);
              ])
          fc.Fault.flaps );
      ( "blackouts",
        fun () ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i w ->
              if i > 0 then Buffer.add_char buf ',';
              add_window buf w ())
            fc.blackouts;
          Buffer.add_char buf ']' );
      ( "spike",
        add_opt buf
          (fun (w, d) () ->
            obj buf [ ("window", add_window buf w); ("delay", ffloat buf d) ])
          fc.spike );
      ( "reorder",
        add_opt buf
          (fun (w, p, h) () ->
            obj buf
              [
                ("window", add_window buf w);
                ("prob", ffloat buf p);
                ("hold", ffloat buf h);
              ])
          fc.reorder );
      ( "duplicate",
        add_opt buf
          (fun (w, p) () ->
            obj buf [ ("window", add_window buf w); ("prob", ffloat buf p) ])
          fc.duplicate );
    ]

let add_background buf (bg : Scenario.background) () =
  obj buf
    [
      ("bg_flows", fint buf bg.Scenario.bg_flows);
      ("bg_share_cap", ffloat buf bg.bg_share_cap);
      ("bg_resolution", ffloat buf bg.bg_resolution);
    ]

let add_task buf (c : Scenario.config) =
  obj buf
    [
      ("seed", fint buf c.Scenario.seed);
      ("bottleneck_bps", ffloat buf c.bottleneck_bps);
      ("one_way_delay", ffloat buf c.one_way_delay);
      ("queue", add_queue buf c.queue);
      ("packet_size", fint buf c.packet_size);
      ("n_tfrc", fint buf c.n_tfrc);
      ("n_tcp", fint buf c.n_tcp);
      ("with_probe", fbool buf c.with_probe);
      ("tfrc_l", fint buf c.tfrc_l);
      ("formula", add_formula buf c.tfrc_formula_kind);
      ("comprehensive", fbool buf c.tfrc_comprehensive);
      ("conform", fbool buf c.tfrc_conform_to_analysis);
      ("reverse_jitter", ffloat buf c.reverse_jitter);
      ("duration", ffloat buf c.duration);
      ("warmup", ffloat buf c.warmup);
      ("faults", add_opt buf (add_faults buf) c.faults);
      ("background", add_opt buf (add_background buf) c.background);
    ]

let task_to_json c =
  let buf = Buffer.create 512 in
  add_task buf c;
  Buffer.contents buf

let to_json { tasks } =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":1,\"codec\":\"%s\",\"tasks\":[" codec_version);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      add_task buf c)
    tasks;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ---------------------------- decoding ---------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let get_int name j =
  match Json.to_int (member name j) with
  | Some n -> n
  | None -> fail "field %S: expected an integer" name

let get_bool name j =
  match member name j with
  | Json.Bool b -> b
  | _ -> fail "field %S: expected a boolean" name

let get_str name j =
  match Json.to_string (member name j) with
  | Some s -> s
  | None -> fail "field %S: expected a string" name

(* Hex-float strings; plain JSON numbers are also accepted so
   hand-written manifests work. *)
let get_float name j =
  match member name j with
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> fail "field %S: unparsable float %S" name s)
  | Json.Num f -> f
  | _ -> fail "field %S: expected a float" name

let get_opt name j f =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some (f v)

let window_of j : Fault.window =
  {
    Fault.start = get_float "start" j;
    length = get_float "length" j;
    period = get_float "period" j;
  }

let queue_of j : Scenario.queue_config =
  match get_str "kind" j with
  | "droptail" -> Scenario.Drop_tail { capacity = get_int "capacity" j }
  | "red-auto" -> Scenario.Red_auto { capacity = get_int "capacity" j }
  | "red" ->
      Scenario.Red_manual
        {
          capacity = get_int "capacity" j;
          params =
            {
              Qd.min_th = get_float "min_th" j;
              max_th = get_float "max_th" j;
              max_p = get_float "max_p" j;
              wq = get_float "wq" j;
              byte_mode = get_bool "byte_mode" j;
              mean_pktsize = get_int "mean_pktsize" j;
              gentle = get_bool "gentle" j;
            };
        }
  | k -> fail "unknown queue kind %S" k

let formula_of j : Formula.kind =
  match get_str "kind" j with
  | "sqrt" -> Formula.Sqrt
  | "pftk" -> Formula.Pftk_standard
  | "pftk-simple" -> Formula.Pftk_simplified
  | "aimd" ->
      Formula.Aimd { alpha = get_float "alpha" j; beta = get_float "beta" j }
  | k -> fail "unknown formula kind %S" k

let faults_of j : Fault.config =
  {
    Fault.flaps =
      get_opt "flaps" j (fun f ->
          {
            Fault.first_down = get_float "first_down" f;
            down_mean = get_float "down_mean" f;
            up_mean = get_float "up_mean" f;
            flap_jitter = get_float "flap_jitter" f;
            park = get_bool "park" f;
          });
    blackouts =
      (match member "blackouts" j with
      | Json.List ws -> List.map window_of ws
      | _ -> fail "field \"blackouts\": expected a list");
    spike =
      get_opt "spike" j (fun s ->
          (window_of (member "window" s), get_float "delay" s));
    reorder =
      get_opt "reorder" j (fun s ->
          (window_of (member "window" s), get_float "prob" s,
           get_float "hold" s));
    duplicate =
      get_opt "duplicate" j (fun s ->
          (window_of (member "window" s), get_float "prob" s));
  }

let background_of j : Scenario.background =
  {
    Scenario.bg_flows = get_int "bg_flows" j;
    bg_share_cap = get_float "bg_share_cap" j;
    bg_resolution = get_float "bg_resolution" j;
  }

let fields_of j : Scenario.config =
  {
    Scenario.seed = get_int "seed" j;
    bottleneck_bps = get_float "bottleneck_bps" j;
    one_way_delay = get_float "one_way_delay" j;
    queue = queue_of (member "queue" j);
    packet_size = get_int "packet_size" j;
    n_tfrc = get_int "n_tfrc" j;
    n_tcp = get_int "n_tcp" j;
    with_probe = get_bool "with_probe" j;
    tfrc_l = get_int "tfrc_l" j;
    tfrc_formula_kind = formula_of (member "formula" j);
    tfrc_comprehensive = get_bool "comprehensive" j;
    tfrc_conform_to_analysis = get_bool "conform" j;
    reverse_jitter = get_float "reverse_jitter" j;
    duration = get_float "duration" j;
    warmup = get_float "warmup" j;
    faults = get_opt "faults" j faults_of;
    background = get_opt "background" j background_of;
  }

let config_of j =
  let cfg = fields_of j in
  match Scenario.validate cfg with
  | Ok () -> cfg
  | Error m -> fail "invalid scenario config: %s" m

let task_of_json s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> ( try Ok (config_of j) with Bad m -> Error m)

let of_json s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> (
      try
        (match Json.to_int (member "schema" j) with
        | Some 1 -> ()
        | _ -> fail "unsupported manifest schema");
        (match get_str "codec" j with
        | v when v = codec_version -> ()
        | v -> fail "unsupported manifest codec %S (want %S)" v codec_version);
        match member "tasks" j with
        | Json.List ts -> Ok { tasks = List.map config_of ts }
        | _ -> fail "field \"tasks\": expected a list"
      with Bad m -> Error m)

(* ------------------------------- io ------------------------------- *)

let save ~path m =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json m));
  Sys.rename tmp path

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_json s
  | exception Sys_error msg -> Error msg

(* ------------------------------ demo ------------------------------ *)

let demo ?(seed0 = 42) ?(duration = 10.0) ~tasks () =
  let task i =
    let queue =
      if i mod 2 = 0 then Scenario.Drop_tail { capacity = 25 }
      else Scenario.Red_auto { capacity = 0 }
    in
    {
      Scenario.default_config with
      seed = seed0 + i;
      bottleneck_bps = 5e6;
      queue;
      n_tfrc = 1;
      n_tcp = 1;
      with_probe = false;
      duration;
      warmup = duration /. 5.0;
    }
  in
  { tasks = List.init (max 0 tasks) task }
