(** Persistence for complete GIRG instances (parameters, weights, positions,
    edges), so that expensive samples can be routed on repeatedly or shared
    with external tooling.

    Two codecs share one loader:

    - {b v1 text} ({!save}): a ["# smallworld-girg"] header carrying the
      parameters, one ["v w x_1 .. x_d"] line per vertex, an ["edges m"]
      separator, then one ["u v"] line per edge — human-inspectable, kept
      for debugging.
    - {b v2 binary} ({!save_binary}): magic ["SWGIRGB1"], endian tag,
      parameter block, then packed little-endian sections (weights and
      positions as f64, CSR offsets/targets as i64, all 8-byte aligned).
      Loads without any text parsing, and the CSR sections can be
      memory-mapped ({!load_mmap}).

    {!load} auto-detects the format by the first byte ([#] introduces the
    text header). *)

val save : path:string -> Instance.t -> unit

val save_binary : path:string -> Instance.t -> unit
(** Writes the v2 binary snapshot.  Positions are written from the packed
    coordinate buffer, CSR arrays straight from the graph — values
    round-trip bit-exactly, as in the text format. *)

val binary_header_bytes : int
(** Byte offset of the weights section in a v2 snapshot (fixed header plus
    alignment padding). *)

val load : path:string -> (Instance.t, string) result
(** [Error] with a diagnostic on malformed or unreadable files.  Loading
    reconstructs exactly the saved weights/positions/edges (text floats
    round-trip through ["%h"]; binary sections are bit copies).  Both
    formats are validated structurally — truncated files, bad magic,
    endianness mismatches, and counts that disagree with the file size or
    exceed array limits all yield [Error], never a crash.

    Cost: a binary file's sections are each read once, into the arrays
    the instance keeps; the positions section becomes the packed
    coordinate store as read (8·dim bytes per vertex, no per-vertex
    point).  The text loader parses coordinates straight into one flat
    array. *)

val load_mmap : path:string -> (Instance.t, string) result
(** Binary snapshots only.  Weights and positions are read onto the heap
    as in {!load}, but the CSR offsets/targets sections are
    [Unix.map_file]'d read-only and traversed zero-copy: the graph pages in lazily and stays
    out of the OCaml heap, so peak RSS stays well below {!load} for large
    instances.  The mapping lives as long as the returned graph's arrays;
    the snapshot file must not be modified while the instance is in use. *)
