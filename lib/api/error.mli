(** The shared error taxonomy of the v1 API.

    Every failure the system reports across a boundary — a daemon
    response line, a CLI diagnostic, a [bench scale] gate — carries
    one of these codes.  The string codes are wire-stable (clients and
    CI scripts match on them) and each code maps to a fixed process
    exit status, so shell callers can branch on either.  Free-form
    detail goes in the [message]; the [code] is the contract. *)

type code =
  | Bad_request  (** malformed request: unparseable JSON, unknown flag, bad value *)
  | Unsupported_version
      (** the request declared an API or framing version this server
          does not speak; the message names the supported range *)
  | Unknown_instance  (** request names an instance the registry does not hold *)
  | Overloaded
      (** bounded queue or batch limit exceeded; retry later (the
          backpressure signal — never queued unboundedly) *)
  | Deadline  (** the request's deadline expired before completion *)
  | Draining  (** the server is shutting down and refuses new work *)
  | Io  (** a file could not be read, written or parsed *)
  | Usage  (** command line misuse *)
  | Incomparable
      (** two artifacts cannot be compared.  No caller raises it; it
          stays because it is part of the pinned v1 wire taxonomy. *)
  | Regression  (** a bench gate tripped: measured regression beyond threshold *)
  | Internal  (** unexpected exception; a bug, not a caller error *)

val all_codes : code list

val code_string : code -> string
(** Stable kebab-case wire code, e.g. ["overloaded"], ["deadline"],
    ["perf-regression"].  Pinned by tests — changing one is a protocol
    break. *)

val code_of_string : string -> code option

val exit_code : code -> int
(** Fixed process exit status per code.  [Regression] is 1 (a gate
    verdict), caller errors ([Usage], [Io], [Incomparable],
    [Bad_request], [Unsupported_version], [Unknown_instance]) are 2,
    transient server-side conditions ([Overloaded], [Deadline],
    [Draining]) are 75 (EX_TEMPFAIL: retryable), [Internal] is 70
    (EX_SOFTWARE). *)

type t = { code : code; message : string }

val make : code -> ('a, unit, string, t) format4 -> 'a
(** [make code fmt ...] builds an error with a formatted message. *)

val to_string : t -> string
(** ["error [<code>] <message>"] — the one human-readable spelling,
    used verbatim by the CLIs on stderr. *)

val to_json : t -> Obs.Export.json
(** [{"code": <code_string>, "message": <message>}]. *)

val of_json : Obs.Export.json -> (t, string) result
