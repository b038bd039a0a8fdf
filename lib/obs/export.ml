(* Exporters: Prometheus-style text dump of a metrics registry, and the
   JSONL run manifest (one self-contained JSON object per line; schema
   documented in README.md "Observability").  The JSON emitter is local —
   no third-party dependency — and always single-line, so a manifest file
   is valid JSONL by construction. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec add_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* Shortest of %.9g/%.17g that parses back to the same double, so
         values (event timestamps in particular) round-trip exactly. *)
      if Float.is_finite f then begin
        let s = Printf.sprintf "%.9g" f in
        let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
        Buffer.add_string buf s
      end
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          add_json buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

(* Recursive-descent parser for the same JSON subset the emitter
   produces (the v1 JSON codec, trace and event readers use it). *)
let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> failwith m) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then error "expected %c at offset %d" c !pos;
    advance ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then error "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then error "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   if
                     not
                       (String.for_all
                          (function
                            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                            | _ -> false)
                          hex)
                   then error "bad \\u escape \\u%s at offset %d" hex (!pos - 1);
                   let code = int_of_string ("0x" ^ hex) in
                   pos := !pos + 4;
                   (* The emitter only writes \u for control characters;
                      anything outside one byte degrades to '?'. *)
                   Buffer.add_char buf (if code < 0x100 then Char.chr code else '?')
               | c -> error "bad escape \\%c" c);
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error "bad number %S" tok
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> error "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Failure m -> Error m

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let rec span_to_json (s : Span.t) =
  Obj
    [
      ("name", Str s.name);
      ("count", Int s.count);
      ("wall_s", Float s.wall_s);
      ("self_s", Float (Span.self_s s));
      ("alloc_bytes", Float s.alloc_bytes);
      ("children", Arr (List.map span_to_json s.children));
    ]

let value_to_json = function
  | Metrics.Counter_v v -> Int v
  | Metrics.Gauge_v v -> Float v
  | Metrics.Histogram_v h ->
      Obj
        [
          ("count", Int h.count);
          ("sum", Float h.sum);
          ("min", if h.count = 0 then Null else Float h.min);
          ("max", if h.count = 0 then Null else Float h.max);
          ("buckets", Arr (List.map (fun (ub, c) -> Arr [ Float ub; Int c ]) h.buckets));
        ]

let snapshot_to_json snap = Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

(* Best-effort revision: env override, then .git/HEAD relative to cwd.
   Symbolic refs resolve through the loose ref file, falling back to
   .git/packed-refs (after `git pack-refs` the loose file disappears). *)
let git_rev () =
  match Sys.getenv_opt "SMALLWORLD_GIT_REV" with
  | Some rev -> rev
  | None -> (
      let read_line_of path =
        try In_channel.with_open_text path (fun ic -> In_channel.input_line ic)
        with Sys_error _ -> None
      in
      let packed_ref name =
        let lines =
          try In_channel.with_open_text ".git/packed-refs" In_channel.input_lines
          with Sys_error _ -> []
        in
        List.find_map
          (fun line ->
            (* "<hash> <refname>"; '#' header and '^' peeled-tag lines skip. *)
            match String.index_opt line ' ' with
            | Some i
              when String.length line > 0
                   && line.[0] <> '#'
                   && line.[0] <> '^'
                   && String.sub line (i + 1) (String.length line - i - 1) = name ->
                Some (String.sub line 0 i)
            | Some _ | None -> None)
          lines
      in
      match read_line_of ".git/HEAD" with
      | None -> "unknown"
      | Some head -> (
          match
            if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
              let name = String.trim (String.sub head 5 (String.length head - 5)) in
              match read_line_of (Filename.concat ".git" name) with
              | Some _ as rev -> rev
              | None -> packed_ref name
            end
            else Some head
          with
          | Some rev when String.trim rev <> "" -> String.trim rev
          | Some _ | None -> "unknown"))

let schema_version = "smallworld.obs.v1"

let manifest_line ?(extra = []) ~experiment ~seed ~scale ~registry ~span () =
  json_to_string
    (Obj
       ([
          ("schema", Str schema_version);
          ("experiment", Str experiment);
          ("seed", Int seed);
          ("scale", Str scale);
          ("git_rev", Str (git_rev ()));
          ( "wall_s",
            match span with Some (s : Span.t) -> Float s.wall_s | None -> Null );
          ("span", match span with Some s -> span_to_json s | None -> Null);
          ("metrics", snapshot_to_json (Metrics.snapshot registry));
        ]
       @ extra))

(* Flight-recorder export: one self-contained JSON object per event per
   line (schema smallworld.events.v1), flat fields so downstream tools
   can grep/jq a replay without schema knowledge. *)
let events_schema_version = "smallworld.events.v1"

let event_to_json (e : Events.event) =
  let common = [ ("schema", Str events_schema_version); ("seq", Int e.seq); ("t", Float e.time) ] in
  let typed = ("type", Str (Events.payload_kind e.payload)) in
  let msg_fields ~trace ~msg ~parent ~src ~dst ~kind ~sim_time =
    [
      ("trace", Int trace);
      ("msg", Int msg);
      ("parent", if parent < 0 then Null else Int parent);
      ("src", Int src);
      ("dst", Int dst);
      ("kind", Str kind);
      ("sim_time", Float sim_time);
    ]
  in
  let rest =
    match e.payload with
    | Events.Route_hop { route; hop; vertex; objective } ->
        [ ("route", Int route); ("hop", Int hop); ("vertex", Int vertex); ("objective", Float objective) ]
    | Events.Dead_end { route; vertex } -> [ ("route", Int route); ("vertex", Int vertex) ]
    | Events.Patch_enter { route; vertex; phi } | Events.Patch_exit { route; vertex; phi } ->
        [ ("route", Int route); ("vertex", Int vertex); ("phi", Float phi) ]
    | Events.Phase_switch { route; vertex; phase } ->
        [ ("route", Int route); ("vertex", Int vertex); ("phase", Str phase) ]
    | Events.Msg_send { trace; msg; parent; src; dst; kind; sim_time }
    | Events.Msg_recv { trace; msg; parent; src; dst; kind; sim_time } ->
        msg_fields ~trace ~msg ~parent ~src ~dst ~kind ~sim_time
  in
  Obj ((common @ [ typed ]) @ rest)

let event_line e = json_to_string (event_to_json e)

let write_events oc events =
  List.iter
    (fun e ->
      output_string oc (event_line e);
      output_char oc '\n')
    events

(* Field accessors for the decoders below: each one fails with the field
   name so a bad record pinpoints what was missing or mistyped. *)
let get_field what key j =
  match member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing field %S" what key)

let as_int what key = function
  | Int i -> i
  | _ -> failwith (Printf.sprintf "%s: field %S is not an int" what key)

let as_float what key = function
  | Int i -> float_of_int i
  | Float f -> f
  | Null -> Float.nan  (* the emitter writes non-finite floats as null *)
  | _ -> failwith (Printf.sprintf "%s: field %S is not a number" what key)

let as_str what key = function
  | Str s -> s
  | _ -> failwith (Printf.sprintf "%s: field %S is not a string" what key)

let int_field what key j = as_int what key (get_field what key j)
let float_field what key j = as_float what key (get_field what key j)
let str_field what key j = as_str what key (get_field what key j)

let event_of_json j =
  let what = "smallworld.events.v1" in
  match
    (match member "schema" j with
    | Some (Str s) when s <> events_schema_version ->
        failwith (Printf.sprintf "%s: unexpected schema %S" what s)
    | _ -> ());
    let i k = int_field what k j and f k = float_field what k j in
    let s k = str_field what k j in
    let route () = i "route" and vertex () = i "vertex" in
    let msg con =
      let parent = match member "parent" j with Some (Int p) -> p | _ -> -1 in
      con ~trace:(i "trace") ~msg:(i "msg") ~parent ~src:(i "src") ~dst:(i "dst")
        ~kind:(s "kind") ~sim_time:(f "sim_time")
    in
    let payload =
      match s "type" with
      | "route_hop" ->
          Events.Route_hop
            { route = route (); hop = i "hop"; vertex = vertex (); objective = f "objective" }
      | "dead_end" -> Events.Dead_end { route = route (); vertex = vertex () }
      | "patch_enter" ->
          Events.Patch_enter { route = route (); vertex = vertex (); phi = f "phi" }
      | "patch_exit" ->
          Events.Patch_exit { route = route (); vertex = vertex (); phi = f "phi" }
      | "phase_switch" ->
          Events.Phase_switch { route = route (); vertex = vertex (); phase = s "phase" }
      | "msg_send" ->
          msg (fun ~trace ~msg ~parent ~src ~dst ~kind ~sim_time ->
              Events.Msg_send { trace; msg; parent; src; dst; kind; sim_time })
      | "msg_recv" ->
          msg (fun ~trace ~msg ~parent ~src ~dst ~kind ~sim_time ->
              Events.Msg_recv { trace; msg; parent; src; dst; kind; sim_time })
      | other -> failwith (Printf.sprintf "%s: unknown event type %S" what other)
    in
    { Events.seq = int_field what "seq" j; time = float_field what "t" j; payload }
  with
  | e -> Ok e
  | exception Failure m -> Error m

let rec span_of_json j =
  let what = "span" in
  let children =
    match member "children" j with
    | Some (Arr xs) -> List.map span_of_json xs
    | Some _ -> failwith "span: field \"children\" is not an array"
    | None -> []
  in
  (* self_s is derived, so the decoder ignores it; the emitter writes it
     for human readers and jq pipelines only. *)
  {
    Span.name = str_field what "name" j;
    count = int_field what "count" j;
    wall_s = float_field what "wall_s" j;
    alloc_bytes = float_field what "alloc_bytes" j;
    children;
  }

(* One span tree captured for one request, addressable within a trace:
   [root] hangs under span [parent] of some other record of the same
   [trace], letting client and server records merge offline into one
   tree (see {!Profile}). *)
let trace_schema_version = "smallworld.trace.v1"

type trace_record = {
  tr_trace : string;
  tr_span : int;
  tr_parent : int option;
  tr_origin : string;
  tr_t0 : float;
  tr_root : Span.t;
}

let trace_to_json r =
  Obj
    [
      ("schema", Str trace_schema_version);
      ("trace", Str r.tr_trace);
      ("span", Int r.tr_span);
      ("parent", (match r.tr_parent with Some p -> Int p | None -> Null));
      ("origin", Str r.tr_origin);
      ("t0", Float r.tr_t0);
      ("root", span_to_json r.tr_root);
    ]

let trace_line r = json_to_string (trace_to_json r)

let trace_of_json j =
  let what = trace_schema_version in
  match
    (match member "schema" j with
    | Some (Str s) when s = trace_schema_version -> ()
    | Some (Str s) -> failwith (Printf.sprintf "%s: unexpected schema %S" what s)
    | _ -> failwith (Printf.sprintf "%s: missing field \"schema\"" what));
    {
      tr_trace = str_field what "trace" j;
      tr_span = int_field what "span" j;
      tr_parent =
        (match member "parent" j with
        | Some (Int p) -> Some p
        | Some Null | None -> None
        | Some _ -> failwith (Printf.sprintf "%s: field \"parent\" is not an int" what));
      tr_origin = str_field what "origin" j;
      tr_t0 = float_field what "t0" j;
      tr_root = span_of_json (get_field what "root" j);
    }
  with
  | r -> Ok r
  | exception Failure m -> Error m

(* Chrome trace-event JSON (the chrome://tracing / Perfetto "JSON Array
   Format"): one complete ("X") event per span node.  Span trees are
   rolled-up profiles without per-invocation timestamps, so a synthetic
   timeline is laid out instead: the root starts at t0 and each child
   starts where its previous sibling ended, clamped so children never
   overrun their parent (sibling walls can sum past the parent's wall
   when clocks jitter). *)
let chrome_trace ?(t0 = 0.0) (root : Span.t) =
  let events = ref [] in
  let rec layout start (s : Span.t) =
    let dur = Float.max 0.0 s.wall_s in
    events :=
      Obj
        [
          ("name", Str s.name);
          ("ph", Str "X");
          ("ts", Float (start *. 1e6));
          ("dur", Float (dur *. 1e6));
          ("pid", Int 1);
          ("tid", Int 1);
          ( "args",
            Obj
              [
                ("count", Int s.count);
                ("self_s", Float (Span.self_s s));
                ("alloc_bytes", Float s.alloc_bytes);
              ] );
        ]
      :: !events;
    let stop = start +. dur in
    ignore
      (List.fold_left
         (fun at (c : Span.t) ->
           let at = Float.min at stop in
           let c_dur = Float.min (Float.max 0.0 c.wall_s) (stop -. at) in
           layout at { c with wall_s = c_dur };
           at +. c_dur)
         start s.children)
  in
  layout t0 root;
  json_to_string
    (Obj [ ("traceEvents", Arr (List.rev !events)); ("displayTimeUnit", Str "ms") ])

(* Folded-stack flamegraph text (flamegraph.pl / speedscope): one line
   per tree node, "root;child;leaf <count>", where the count is the
   node's self time in integer microseconds.  Frame separators in span
   names are sanitized since ';' and ' ' are the grammar's delimiters. *)
let folded_stacks (root : Span.t) =
  let sanitize name =
    String.map (function ';' -> ':' | ' ' -> '_' | c -> c) name
  in
  let buf = Buffer.create 256 in
  let rec go prefix (s : Span.t) =
    let frame = match prefix with "" -> sanitize s.name | p -> p ^ ";" ^ sanitize s.name in
    let self_us = int_of_float (Float.round (Span.self_s s *. 1e6)) in
    if self_us > 0 || s.children = [] then
      Buffer.add_string buf (Printf.sprintf "%s %d\n" frame (max 0 self_us));
    List.iter (go frame) s.children
  in
  go "" root;
  Buffer.contents buf

(* ASCII table of one span tree, indented by depth. *)
let span_table (root : Span.t) =
  let mb bytes = bytes /. 1048576.0 in
  let buf = Buffer.create 512 in
  let rec go indent (s : Span.t) =
    let label = indent ^ s.name in
    Buffer.add_string buf
      (Printf.sprintf "%-44s %9.3fs %7.3fs self %6dx %9.1fMB\n" label s.wall_s
         (Span.self_s s) s.count (mb s.alloc_bytes));
    List.iter (go (indent ^ "  ")) s.children
  in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %10s %12s %7s %11s\n" "span" "wall" "self" "count" "alloc");
  go "" root;
  Buffer.contents buf

(* Prometheus text format: dots and other separators become underscores,
   everything is prefixed with smallworld_.  Histograms are emitted with
   cumulative le buckets as the convention requires. *)
let prometheus_name name =
  let buf = Buffer.create (String.length name + 11) in
  Buffer.add_string buf "smallworld_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let prometheus_of_snapshot snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = prometheus_name name in
      match v with
      | Metrics.Counter_v n ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname n)
      | Metrics.Gauge_v x ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" pname pname x)
      | Metrics.Histogram_v h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" pname);
          let cum = ref 0 in
          List.iter
            (fun (ub, c) ->
              cum := !cum + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" pname ub !cum))
            h.buckets;
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.count);
          Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" pname h.sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" pname h.count))
    snap;
  Buffer.contents buf

let prometheus registry = prometheus_of_snapshot (Metrics.snapshot registry)
