let schema = Canbus.Trace_log.schema

type header = {
  generator : string option;
  seed : int option;
  dbc : string option;
}

let empty_header = { generator = None; seed = None; dbc = None }

let header_to_json h =
  let open Obs.Json in
  Obj
    (("schema", Str schema)
    :: ((match h.generator with
         | Some g -> [ ("generator", Str g) ]
         | None -> [])
       @ (match h.seed with
          | Some s -> [ ("seed", Num (float_of_int s)) ]
          | None -> [])
       @ match h.dbc with Some d -> [ ("dbc", Str d) ] | None -> []))

let header_of_line line =
  let open Obs.Json in
  match parse line with
  | Error msg -> Error ("corpus header is not JSON: " ^ msg)
  | Ok json -> (
    let str k = Option.bind (member k json) to_str in
    match str "schema" with
    | Some s when String.equal s schema ->
      Ok
        {
          generator = str "generator";
          seed = Option.bind (member "seed" json) to_int;
          dbc = str "dbc";
        }
    | Some s ->
      Error (Printf.sprintf "unsupported corpus schema %S (want %S)" s schema)
    | None -> Error "corpus header has no \"schema\"")

type line =
  | Meta of { stream : string; meta : Obs.Json.t }
  | Entry of { stream : string; entry : Canbus.Trace_log.entry }
  | Malformed of { stream : string option; reason : string }

(* The [Obs.Json] path: parse a tree, then walk it with [member]. It
   decides every line the direct decoder below does not recognise, so
   it alone defines what is [Meta], what is [Malformed] and why. *)
let parse_line_json raw =
  let open Obs.Json in
  match parse raw with
  | Error msg -> Malformed { stream = None; reason = "not JSON: " ^ msg }
  | Ok json -> (
    let stream = Option.bind (member "s" json) to_str in
    match stream with
    | None -> Malformed { stream = None; reason = "line has no stream \"s\"" }
    | Some stream -> (
      match member "meta" json with
      | Some meta -> Meta { stream; meta }
      | None -> (
        match Canbus.Trace_log.entry_of_json json with
        | Ok entry -> Entry { stream; entry }
        | Error reason -> Malformed { stream = Some stream; reason })))

(* The direct decoder: the writer's entry object, read byte by byte into
   the entry's fields with no tree in between. It knows only what
   [write_entry] emits — the keys [s t n d id ext data] in any order,
   each at most once, no whitespace, strings without escapes, plain
   integers of at most 15 digits (exact as floats, so they read as
   [Obs.Json] reads them) and [true]/[false] for ["ext"]. Anything else,
   and any entry [Frame.make] or the timestamp check rejects, raises
   [Unrecognised] and is decided by [parse_line_json]. *)

exception Unrecognised

(* The decoder's helpers are top-level functions over one cursor per
   line, so decoding allocates the fields it returns and nothing else:
   no closures, no intermediate strings for keys or numbers. The small
   ones are inlined; as calls they cost a quarter of the decode. *)
type cursor = { raw : string; mutable i : int }

(* The byte [k] places ahead of the cursor, or NUL past the end. *)
let[@inline] at c k =
  let j = c.i + k in
  if j < String.length c.raw then String.unsafe_get c.raw j else '\000'

(* Step over [ch], which must come next. *)
let[@inline] expect c ch =
  if at c 0 = ch then c.i <- c.i + 1 else raise_notrace Unrecognised

let rec looking_at c word k =
  k = String.length word
  || (at c k = String.unsafe_get word k && looking_at c word (k + 1))

(* Step over [word], which must come next. *)
let skip c word =
  if looking_at c word 0 then c.i <- c.i + String.length word
  else raise_notrace Unrecognised

(* The rest of a string without escapes, up to and past its closing
   quote. *)
let rec string_tail c j =
  if j >= String.length c.raw then raise_notrace Unrecognised
  else
    match String.unsafe_get c.raw j with
    | '"' ->
      let s = String.sub c.raw c.i (j - c.i) in
      c.i <- j + 1;
      s
    | '\\' -> raise_notrace Unrecognised
    | _ -> string_tail c (j + 1)

let read_string c =
  expect c '"';
  string_tail c c.i

let rec digits c start acc =
  match at c 0 with
  | '0' .. '9' as d ->
    c.i <- c.i + 1;
    digits c start ((acc * 10) + Char.code d - Char.code '0')
  | _ ->
    if c.i = start || c.i - start > 15 then raise_notrace Unrecognised;
    acc

let read_int c =
  if at c 0 = '-' then (
    c.i <- c.i + 1;
    -digits c c.i 0)
  else digits c c.i 0

let read_direction c =
  expect c '"';
  match at c 0 with
  | 't' when at c 1 = 'x' && at c 2 = '"' ->
    c.i <- c.i + 3;
    Canbus.Trace_log.Tx
  | 'r' when at c 1 = 'x' && at c 2 = ':' ->
    c.i <- c.i + 3;
    Canbus.Trace_log.Rx (string_tail c c.i)
  | _ ->
    skip c "fault:";
    Canbus.Trace_log.Fault (string_tail c c.i)

let read_bool c =
  if at c 0 = 't' then (
    skip c "true";
    true)
  else (
    skip c "false";
    false)

(* At most 8 bytes: more is a frame [Frame.make] rejects anyway. *)
let rec items c k =
  if k > 8 then raise_notrace Unrecognised;
  let b = read_int c in
  if at c 0 = ',' then (
    c.i <- c.i + 1;
    b :: items c (k + 1))
  else (
    expect c ']';
    [ b ])

let read_bytes c =
  expect c '[';
  if at c 0 = ']' then (
    c.i <- c.i + 1;
    [])
  else items c 1

(* The end of a key whose [len] letters were matched: its closing
   quote and colon. *)
let[@inline] field c len bit =
  if at c len = '"' && at c (len + 1) = ':' then (
    c.i <- c.i + len + 2;
    bit)
  else raise_notrace Unrecognised

(* A key and its colon, as the bit of the field it names. The letters
   are matched in place, without a call per byte. *)
let read_key c =
  expect c '"';
  match at c 0 with
  | 's' -> field c 1 0
  | 't' -> field c 1 1
  | 'n' -> field c 1 2
  | 'd' when at c 1 = '"' -> field c 1 3
  | 'i' when at c 1 = 'd' -> field c 2 4
  | 'e' when at c 1 = 'x' && at c 2 = 't' -> field c 3 5
  | 'd' when at c 1 = 'a' && at c 2 = 't' && at c 3 = 'a' -> field c 4 6
  | _ -> raise_notrace Unrecognised

let required = 0b1011111 (* every field but "ext" *)

let decode_entry raw =
  let c = { raw; i = 0 } in
  let stream = ref "" and time = ref 0 and node = ref "" in
  let direction = ref Canbus.Trace_log.Tx and id = ref 0 in
  let extended = ref false and data = ref [] in
  let seen = ref 0 and more = ref true in
  expect c '{';
  while !more do
    let bit = read_key c in
    if !seen land (1 lsl bit) <> 0 then raise_notrace Unrecognised;
    seen := !seen lor (1 lsl bit);
    (match bit with
     | 0 -> stream := read_string c
     | 1 -> time := read_int c
     | 2 -> node := read_string c
     | 3 -> direction := read_direction c
     | 4 -> id := read_int c
     | 5 -> extended := read_bool c
     | _ -> data := read_bytes c);
    if at c 0 = ',' then c.i <- c.i + 1
    else (
      expect c '}';
      more := false)
  done;
  if c.i <> String.length raw || !seen land required <> required || !time < 0
  then raise_notrace Unrecognised;
  match Canbus.Frame.make ~extended:!extended ~id:!id !data with
  | frame ->
    Entry
      {
        stream = !stream;
        entry =
          {
            Canbus.Trace_log.time = !time;
            node = !node;
            direction = !direction;
            frame;
          };
      }
  | exception Canbus.Frame.Invalid_frame _ -> raise_notrace Unrecognised

(* Classify one post-header line. Corrupt input comes back as
   [Malformed] — attributed to its stream when the ["s"] field is still
   recoverable — never as an exception: one truncated line must cost one
   stream, not the corpus (the [Cache] corrupt-file-degrades-to-miss
   policy, applied to corpora). *)
let parse_line raw =
  match decode_entry raw with
  | line -> line
  | exception Unrecognised -> parse_line_json raw

(* {1 Writing} *)

type writer = { oc : out_channel }

let write_json w json =
  output_string w.oc (Obs.Json.to_string json);
  output_char w.oc '\n'

let write_meta w ~stream meta =
  write_json w (Obs.Json.Obj [ ("s", Obs.Json.Str stream); ("meta", meta) ])

let write_entry w ~stream entry =
  match Canbus.Trace_log.entry_to_json entry with
  | Obs.Json.Obj fields ->
    write_json w (Obs.Json.Obj (("s", Obs.Json.Str stream) :: fields))
  | json -> write_json w json

let with_writer ~path ~header f =
  let result = ref None in
  Fsio.with_atomic_out ~path (fun oc ->
      let w = { oc } in
      write_json w (header_to_json header);
      result := Some (f w));
  match !result with
  | Some r -> r
  | None -> invalid_arg "Trace_io.with_writer: writer did not run"

(* {1 Reading} *)

let with_in path f =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
  | exception Sys_error msg -> Error msg

let read_header ~path =
  with_in path (fun ic ->
      match input_line ic with
      | exception End_of_file -> Error "empty corpus (no header line)"
      | first -> header_of_line first)
