(** [can-trace/1] corpus files: NDJSON trace logs on disk.

    A corpus is one header line followed by one JSON object per line:

    {v
    {"schema":"can-trace/1","generator":"ota-fault","seed":7,"dbc":"..."}
    {"s":"s00000","meta":{"drop":0.12,...}}
    {"s":"s00000","t":150,"n":"VMG","d":"tx","id":257,"data":[1]}
    ...
    v}

    Every post-header line carries ["s"], the stream it belongs to;
    entry lines are the {!Canbus.Trace_log} codec with ["s"] prepended,
    [meta] lines attach generator metadata (e.g. the fault plan) to a
    stream. Streams may interleave arbitrarily — the checker keeps one
    cursor per stream, so corpora are written in whatever order the
    generator produces entries.

    Files are written through {!Fsio} (atomic + durable); reading never
    raises on corrupt input — a bad line is reported as {!Malformed} and
    costs at most its own stream, mirroring the cache's
    corrupt-file-degrades-to-miss policy. Only a missing or foreign
    {e header} fails the whole corpus: there is no way to interpret the
    rest of the file without it. *)

val schema : string
(** ["can-trace/1"] (equal to [Canbus.Trace_log.schema]). *)

type header = {
  generator : string option;
  seed : int option;
  dbc : string option;  (** embedded CAN database source (.dbc text) *)
}

val empty_header : header
val header_to_json : header -> Obs.Json.t
val header_of_line : string -> (header, string) result

type line =
  | Meta of { stream : string; meta : Obs.Json.t }
  | Entry of { stream : string; entry : Canbus.Trace_log.entry }
  | Malformed of { stream : string option; reason : string }
      (** corrupt line; [stream] when the ["s"] field was recoverable *)

val parse_line : string -> line
(** Classify one post-header line. Total — never raises.

    The entry lines {!write_entry} emits — the keys [s t n d id ext data]
    in any order, without whitespace, escapes or non-integer numbers —
    are decoded straight from the bytes into the entry's fields. Every
    other line (meta lines, whitespace, escapes, [1.0] or [1e2], unknown
    or repeated keys, and any invalid entry) is parsed as an
    {!Obs.Json} tree and read with {!Canbus.Trace_log.entry_of_json},
    which alone decides what is [Meta] or [Malformed] and why; the
    direct path only ever returns the [Entry] that one would. *)

val parse_line_json : string -> line
(** The {!Obs.Json} classification {!parse_line} falls back on, applied
    to every line. It returns what {!parse_line} returns on every input,
    only slower; the tests keep it as their oracle. *)

(** {1 Writing} *)

type writer

val with_writer : path:string -> header:header -> (writer -> 'a) -> 'a
(** Write a corpus through {!Fsio.with_atomic_out}: the header goes out
    first, then whatever the callback emits; the file appears atomically
    on clean return and not at all if the callback raises. *)

val write_meta : writer -> stream:string -> Obs.Json.t -> unit
val write_entry : writer -> stream:string -> Canbus.Trace_log.entry -> unit

(** {1 Reading} *)

val read_header : path:string -> (header, string) result
(** Read and parse only the header line. *)
