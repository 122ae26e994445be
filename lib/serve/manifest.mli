(** Sweep manifests: the canonical on-disk description of an ensemble
    of scenario runs for the multi-process sweep service.

    A manifest is a JSON object

    {v
    {"schema": 1, "codec": "ebrc-manifest-v1", "tasks": [<config>, ...]}
    v}

    where each [<config>] is a complete {!Ebrc_exp.Scenario.config}
    rendered with every float as a hex-float string, so a config
    round-trips bit-exactly and its content key — the existing
    {!Ebrc_exp.Result_cache} digest — is identical on every machine
    that loads the manifest. The task list is ordered, but order only
    affects scheduling preference: task identity is the digest, so
    duplicated configs collapse to one result record. *)

type t = { tasks : Ebrc_exp.Scenario.config list }

val digest : Ebrc_exp.Scenario.config -> string
(** The content key of one task: {!Ebrc_exp.Result_cache.digest_of_config}. *)

val task_to_json : Ebrc_exp.Scenario.config -> string
(** One config as a canonical single-line JSON object (the payload of
    a queue task file). *)

val task_of_json : string -> (Ebrc_exp.Scenario.config, string) result
(** [Error] on malformed JSON, a missing or mistyped field, or a config
    {!Ebrc_exp.Scenario.validate} rejects (e.g. a NaN duration). *)

val to_json : t -> string
(** Canonical rendering: loading and re-saving a manifest is
    byte-identical. *)

val of_json : string -> (t, string) result
(** [Error] under the same rules as {!task_of_json}, for any task. *)

val save : path:string -> t -> unit
(** Atomic tmp+rename write. *)

val load : path:string -> (t, string) result

val demo : ?seed0:int -> ?duration:float -> tasks:int -> unit -> t
(** A small self-contained manifest for demos, CI and the bench:
    [tasks] scaled-down dumbbell configs (1 TFRC + 1 TCP flow,
    alternating DropTail/RED, consecutive seeds from [seed0], default
    42) of [duration] simulated seconds (default 10). *)
