(** Shared pieces of the command-line front ends: one error exit, and
    one cmdliner definition of the seed / jobs / obs-out flags, whose
    validation is {!V1}'s, so the API parser ({!V1.of_args}) and the
    cmdliner commands of [graphs_cli], [experiments_cli] and [serve]
    reject the same inputs with the same messages. *)

val fail : Error.t -> 'a
(** Print {!Error.to_string} on stderr and exit with {!Error.exit_code}:
    the one fatal-error path of every binary. *)

val seed : int Cmdliner.Term.t
(** [--seed N], default 42. *)

val jobs : int option Cmdliner.Term.t
(** [-j N] / [--jobs N]: worker domains (0 = all cores). *)

val apply_jobs : int option -> (unit, [> `Msg of string ]) result
(** Validate (via {!V1.parse_jobs}) and apply to {!Parallel.Global}. *)

val obs_out : string option Cmdliner.Term.t
(** [--obs-out FILE]: JSONL run-manifest destination. *)

val with_manifest :
  command:string ->
  seed:int ->
  string option ->
  (unit -> (unit, 'e) result) ->
  (unit, 'e) result
(** Run [f] under a [cli.<command>] span; on success, append one
    manifest line (metrics snapshot + span tree) to the given path. *)
