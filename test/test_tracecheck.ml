(* The streaming trace-containment engine and the corpus pipeline built
   on it: cursor semantics (skip / tick / latch), an exhaustive qcheck
   agreement property against the denotational trace semantics, the
   can-trace/1 codec round-trip, fixed-seed corpus determinism, the
   direct line decoder against its Obs.Json oracle, malformed-line
   containment, and corpus reports that do not depend on which decoder
   read the lines. *)

open Csp
open Helpers

let alphabet = [ "a"; "b"; "c"; "done_" ]

let compile_exn ?(alphabet = alphabet) defs p =
  match Tracecheck.compile ~alphabet defs p with
  | Ok t -> t
  | Error msg -> Alcotest.failf "Tracecheck.compile: %s" msg

let show_verdict = function
  | Tracecheck.Accepted -> "accepted"
  | Tracecheck.Rejected { position; offending; expected } ->
    Format.asprintf "rejected@%d %a {%s}" position Event.pp_label offending
      (String.concat ","
         (List.map (Format.asprintf "%a" Event.pp_label) expected))

let verdict_t = Alcotest.testable (Fmt.of_to_string show_verdict) ( = )

(* ------------------------------------------------------------------ *)
(* Cursor semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_accept_reject () =
  let defs = make_defs () in
  let spec = send "a" 0 (send "b" 1 Proc.stop) in
  let t = compile_exn defs spec in
  let check tr = Tracecheck.check_trace t tr in
  Alcotest.check verdict_t "empty" Tracecheck.Accepted (check []);
  Alcotest.check verdict_t "prefix" Tracecheck.Accepted (check [ vis "a" 0 ]);
  Alcotest.check verdict_t "full" Tracecheck.Accepted
    (check [ vis "a" 0; vis "b" 1 ]);
  (match check [ vis "b" 1 ] with
  | Tracecheck.Rejected { position = 0; offending; expected = [ e ] } ->
    Alcotest.check label "offending" (vis "b" 1) offending;
    Alcotest.check label "expected" (vis "a" 0) e
  | v -> Alcotest.failf "expected rejection at 0, got %s" (show_verdict v));
  (match check [ vis "a" 0; vis "b" 0 ] with
  | Tracecheck.Rejected { position = 1; _ } -> ()
  | v -> Alcotest.failf "expected rejection at 1, got %s" (show_verdict v))

let test_latch () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.stop in
  let t = compile_exn defs spec in
  (* once rejected, later (even valid-looking) labels change nothing *)
  match Tracecheck.check_trace t [ vis "b" 1; vis "a" 0; vis "a" 0 ] with
  | Tracecheck.Rejected { position = 0; _ } -> ()
  | v -> Alcotest.failf "verdict did not latch: %s" (show_verdict v)

let test_tick () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.skip in
  let t = compile_exn defs spec in
  Alcotest.check verdict_t "terminates" Tracecheck.Accepted
    (Tracecheck.check_trace t [ vis "a" 0; Event.Tick ]);
  (match Tracecheck.check_trace t [ Event.Tick ] with
  | Tracecheck.Rejected { position = 0; _ } -> ()
  | v -> Alcotest.failf "early tick accepted: %s" (show_verdict v));
  match Tracecheck.check_trace t [ vis "a" 0; Event.Tick; vis "a" 0 ] with
  | Tracecheck.Rejected { position = 2; _ } -> ()
  | v -> Alcotest.failf "label after tick accepted: %s" (show_verdict v)

let test_out_of_alphabet_skipped () =
  let defs = make_defs () in
  let spec = send "a" 0 Proc.stop in
  let t = compile_exn ~alphabet:[ "a" ] defs spec in
  let c = Tracecheck.start t in
  let c = List.fold_left (Tracecheck.step t) c
      [ vis "c" 0; vis "a" 0; vis "b" 2 ]
  in
  Alcotest.check verdict_t "b and c skipped" Tracecheck.Accepted
    (Tracecheck.verdict c);
  Alcotest.(check int) "consumed" 3 (Tracecheck.consumed c);
  Alcotest.(check int) "skipped" 2 (Tracecheck.skipped c)

(* ------------------------------------------------------------------ *)
(* Agreement with the denotational trace semantics                     *)
(* ------------------------------------------------------------------ *)

(* Every candidate label over the standard environment. *)
let candidate_labels =
  [ vis "a" 0; vis "a" 1; vis "a" 2; vis "b" 0; vis "b" 1; vis "b" 2;
    vis "c" 0; vis "c" 1; Event.Vis (ev0 "done_"); Event.Tick ]

(* All label sequences of length <= 3 (1111 of them). *)
let candidate_traces =
  let rec extend traces n =
    if n = 0 then traces
    else
      extend
        (List.concat_map
           (fun tr -> List.map (fun l -> l :: tr) candidate_labels)
           traces
         @ traces)
        (n - 1)
  in
  List.map List.rev (extend [ [] ] 3)

let trace_equal t1 t2 =
  List.length t1 = List.length t2 && List.for_all2 Event.equal_label t1 t2

(* [check_trace] accepts exactly the traces of the denotational
   semantics: for random processes, exhaustively over every candidate
   trace of length <= 3. This is the containment engine's version of
   the operational-vs-denotational differential test. *)
let agreement_test =
  QCheck.Test.make ~count:80 ~name:"check_trace agrees with Traces.of_proc"
    arb_proc (fun p ->
      let defs = make_defs () in
      match Traces.of_proc ~depth:4 defs p with
      | exception Traces.Unguarded _ -> QCheck.assume_fail ()
      | trace_set ->
        let t = compile_exn defs p in
        List.for_all
          (fun tr ->
            let accepted = Tracecheck.check_trace t tr = Tracecheck.Accepted in
            let member = List.exists (trace_equal tr) trace_set in
            if accepted <> member then
              QCheck.Test.fail_reportf
                "disagree on [%s] for %s: checker=%b oracle=%b"
                (String.concat ", "
                   (List.map (Format.asprintf "%a" Event.pp_label) tr))
                (Proc.to_string p) accepted member
            else true)
          candidate_traces)

(* ------------------------------------------------------------------ *)
(* check_streams: positional results and summary counts               *)
(* ------------------------------------------------------------------ *)

let test_check_streams_counts () =
  let defs = make_defs () in
  let spec = send "a" 0 (send "b" 1 Proc.skip) in
  let t = compile_exn defs spec in
  let streams =
    Array.init 60 (fun i ->
        let body =
          match i mod 3 with
          | 0 -> [ vis "a" 0; vis "b" 1; Event.Tick ]
          | 1 -> [ vis "a" 0; vis "b" 0 ]
          | _ -> [ vis "b" 1 ]
        in
        (Printf.sprintf "s%02d" i, List.to_seq body))
  in
  let results, summary = Tracecheck.check_streams t streams in
  Alcotest.(check int) "streams" 60 summary.Tracecheck.streams;
  Alcotest.(check int) "accepted" 20 summary.Tracecheck.accepted;
  Alcotest.(check int) "rejected" 40 summary.Tracecheck.rejected;
  Alcotest.(check int) "events" 120 summary.Tracecheck.events;
  Array.iteri
    (fun i (r : Tracecheck.stream_result) ->
      Alcotest.(check string) "positional" (Printf.sprintf "s%02d" i) r.stream;
      Alcotest.(check bool)
        (r.stream ^ " verdict")
        (i mod 3 = 0)
        (r.verdict = Tracecheck.Accepted))
    results

(* ------------------------------------------------------------------ *)
(* can-trace/1 codec round-trip                                        *)
(* ------------------------------------------------------------------ *)

let gen_entry : Canbus.Trace_log.entry QCheck.Gen.t =
  let open QCheck.Gen in
  let* time = int_range 0 1_000_000 in
  let* node = oneofl [ "VMG"; "ECU"; "GW" ] in
  let* direction =
    oneofl
      [ Canbus.Trace_log.Tx; Canbus.Trace_log.Rx "ECU";
        Canbus.Trace_log.Fault "corrupt"; Canbus.Trace_log.Fault "drop" ]
  in
  let* extended = bool in
  let* id = int_range 0 (if extended then 0x1FFFFFFF else 0x7FF) in
  let* data = list_size (int_range 0 8) (int_range 0 255) in
  return
    {
      Canbus.Trace_log.time;
      node;
      direction;
      frame = Canbus.Frame.make ~extended ~id data;
    }

let codec_roundtrip_test =
  QCheck.Test.make ~count:300 ~name:"can-trace/1 entry codec round-trips"
    (QCheck.make gen_entry) (fun entry ->
      let line = Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry) in
      match Obs.Json.parse line with
      | Error msg -> QCheck.Test.fail_reportf "emitted unparseable %s: %s"
                       line msg
      | Ok json ->
        (match Canbus.Trace_log.entry_of_json json with
        | Error msg ->
          QCheck.Test.fail_reportf "decode of %s failed: %s" line msg
        | Ok entry' ->
          let line' =
            Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry')
          in
          if line <> line' then
            QCheck.Test.fail_reportf "not byte-identical: %s vs %s" line line'
          else true))

let test_entry_of_json_rejects () =
  let bad s =
    match Obs.Json.parse s with
    | Error _ -> ()
    | Ok json ->
      (match Canbus.Trace_log.entry_of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid entry %s" s)
  in
  bad {|{"t":-1,"n":"VMG","d":"tx","id":257,"data":[1]}|};
  bad {|{"t":0,"n":"VMG","d":"tx","id":4096,"data":[1]}|};
  bad {|{"t":0,"n":"VMG","d":"tx","id":257,"data":[256]}|};
  bad {|{"t":0,"n":"VMG","d":"sideways","id":257,"data":[]}|};
  bad {|{"n":"VMG","d":"tx","id":257,"data":[]}|}

(* ------------------------------------------------------------------ *)
(* Corpus generator determinism                                        *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_tmp f =
  let path = Filename.temp_file "tracecheck_test" ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_corpus_deterministic () =
  with_tmp @@ fun p1 ->
  with_tmp @@ fun p2 ->
  let gen ~seed path =
    Ota.Corpus.generate ~seed ~streams:6 ~until_ms:100 ~flawed_rate:0.5 ~path
      ()
  in
  let s1 = gen ~seed:7 p1 in
  let s2 = gen ~seed:7 p2 in
  Alcotest.(check int) "streams" 6 s1.Ota.Corpus.streams;
  Alcotest.(check int) "streams again" 6 s2.Ota.Corpus.streams;
  Alcotest.(check bool) "same seed, byte-identical" true
    (read_file p1 = read_file p2);
  let _ = gen ~seed:8 p2 in
  Alcotest.(check bool) "different seed, different bytes" false
    (read_file p1 = read_file p2)

(* ------------------------------------------------------------------ *)
(* Malformed lines: contained, never raised                            *)
(* ------------------------------------------------------------------ *)

let test_parse_line () =
  (match Serve.Trace_io.parse_line "not json at all" with
  | Serve.Trace_io.Malformed { stream = None; _ } -> ()
  | _ -> Alcotest.fail "garbage line not Malformed{stream=None}");
  (match Serve.Trace_io.parse_line {|{"s":"s1","t":"soon"}|} with
  | Serve.Trace_io.Malformed { stream = Some "s1"; _ } -> ()
  | _ -> Alcotest.fail "bad entry did not recover its stream");
  (* numbers past the int range are bad fields, not time 0 / id 0 *)
  List.iter
    (fun raw ->
      match Serve.Trace_io.parse_line raw with
      | Serve.Trace_io.Malformed { stream = Some "a"; _ } -> ()
      | line ->
        Alcotest.failf "out-of-range line %S not Malformed: %s" raw
          (match line with
          | Serve.Trace_io.Entry { entry; _ } ->
            Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry)
          | _ -> "meta"))
    [ {|{"s":"a","t":1e20,"n":"VMG","d":"tx","id":1e20,"data":[1]}|};
      {|{"s":"a","t":1,"n":"VMG","d":"tx","id":18446744073709551873,"data":[1]}|} ];
  (match Serve.Trace_io.parse_line {|{"s":"s1","meta":{"drop":0.5}}|} with
  | Serve.Trace_io.Meta { stream = "s1"; _ } -> ()
  | _ -> Alcotest.fail "meta line not recognised");
  match
    Serve.Trace_io.parse_line
      {|{"s":"s1","t":10,"n":"VMG","d":"tx","id":257,"data":[1]}|}
  with
  | Serve.Trace_io.Entry { stream = "s1"; entry } ->
    Alcotest.(check int) "id" 257 entry.Canbus.Trace_log.frame.Canbus.Frame.id
  | _ -> Alcotest.fail "entry line not recognised"

(* ------------------------------------------------------------------ *)
(* The direct decoder agrees with its Obs.Json oracle                  *)
(* ------------------------------------------------------------------ *)

let show_line = function
  | Serve.Trace_io.Entry { stream; entry } ->
    Printf.sprintf "Entry %S %s" stream
      (Obs.Json.to_string (Canbus.Trace_log.entry_to_json entry))
  | Serve.Trace_io.Meta { stream; meta } ->
    Printf.sprintf "Meta %S %s" stream (Obs.Json.to_string meta)
  | Serve.Trace_io.Malformed { stream; reason } ->
    Printf.sprintf "Malformed %s %S"
      (Option.fold ~none:"-" ~some:(Printf.sprintf "%S") stream)
      reason

(* [parse_line] must return exactly what the oracle returns — the same
   constructor, stream, entry, meta and reason. *)
let disagreement raw =
  let fast = Serve.Trace_io.parse_line raw in
  let oracle = Serve.Trace_io.parse_line_json raw in
  if fast = oracle then None
  else
    Some
      (Printf.sprintf "line %S\nparse_line: %s\noracle:     %s" raw
         (show_line fast) (show_line oracle))

(* The writer's line for an entry, as {!Serve.Trace_io.write_entry}
   emits it. *)
let writer_fields stream entry =
  match Canbus.Trace_log.entry_to_json entry with
  | Obs.Json.Obj fields -> ("s", Obs.Json.Str stream) :: fields
  | _ -> invalid_arg "entry_to_json: not an object"

let gen_stream = QCheck.Gen.oneofl [ "s00000"; "s1"; ""; "a/b"; "\xc3\xa9" ]

let gen_wide_entry : Canbus.Trace_log.entry QCheck.Gen.t =
  let open QCheck.Gen in
  let* entry = gen_entry in
  let* node = oneofl [ entry.Canbus.Trace_log.node; "" ] in
  let* direction =
    oneofl
      [ entry.Canbus.Trace_log.direction; Canbus.Trace_log.Rx "";
        Canbus.Trace_log.Fault "" ]
  in
  return { entry with node; direction }

(* How one line is spelled. Each liberty is taken on about a third of
   the lines, independently, so many lines carry exactly one of them. *)
type spelling = {
  spaces : bool;
  escapes : bool;  (** in values *)
  escaped_keys : bool;
  numbers : bool;
}

let gen_spelling =
  let open QCheck.Gen in
  let sometimes = frequencyl [ (2, false); (1, true) ] in
  let* spaces = sometimes and* escapes = sometimes and* numbers = sometimes in
  let* escaped_keys = frequencyl [ (5, false); (1, true) ] in
  return { spaces; escapes; escaped_keys; numbers }

let gen_ws sp =
  if sp.spaces then
    QCheck.Gen.frequencyl
      [ (4, ""); (1, " "); (1, "\t"); (1, "\r"); (1, " \r ") ]
  else QCheck.Gen.return ""

(* Valid JSON for [v] in the line's spelling: whitespace around tokens,
   escapes in strings, integers written as [1.0], [1e0], [100] as [1e2]
   or with a leading zero; integers too large for a float print in
   full. *)
let rec gen_render sp v =
  let open QCheck.Gen in
  let* before = gen_ws sp in
  let* body =
    match v with
    | Obs.Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      let n = string_of_int (int_of_float f) in
      if sp.numbers then
        frequencyl
          ([ (2, n); (1, n ^ ".0"); (1, n ^ "e0") ]
          @ (if f > 0. && Float.rem f 100. = 0. then
               [ (1, string_of_int (int_of_float f / 100) ^ "e2") ]
             else [])
          @ if f >= 0. then [ (1, "0" ^ n) ] else [])
      else return n
    | Obs.Json.Num f when Float.is_integer f ->
      frequencyl [ (1, Printf.sprintf "%.0f" f); (1, Obs.Json.to_string v) ]
    | Obs.Json.Str s -> gen_string sp s
    | Obs.Json.List items ->
      let* items = flatten_l (List.map (gen_render sp) items) in
      return ("[" ^ String.concat "," items ^ "]")
    | Obs.Json.Obj fields -> gen_object sp fields
    | v -> return (Obs.Json.to_string v)
  in
  let* after = gen_ws sp in
  return (before ^ body ^ after)

and gen_string sp s =
  let open QCheck.Gen in
  let char c =
    let quoted = Obs.Json.to_string (Obs.Json.Str (String.make 1 c)) in
    let plain = String.sub quoted 1 (String.length quoted - 2) in
    if sp.escapes then
      frequencyl
        ([ (3, plain); (1, Printf.sprintf "\\u%04x" (Char.code c)) ]
        @ if c = '/' then [ (1, "\\/") ] else [])
    else return plain
  in
  let* chars = flatten_l (List.init (String.length s) (fun i -> char s.[i])) in
  return ("\"" ^ String.concat "" chars ^ "\"")

and gen_object sp fields =
  let open QCheck.Gen in
  let* fields =
    flatten_l
      (List.map
         (fun (k, v) ->
           let* key = gen_string { sp with escapes = sp.escaped_keys } k in
           let* ws = gen_ws sp in
           let* value = gen_render sp v in
           return (ws ^ key ^ ws ^ ":" ^ value))
         fields)
  in
  return ("{" ^ String.concat "," fields ^ "}")

(* Values a field may wrongly carry: fractions, out-of-range numbers,
   wrong types, oversized payloads. *)
let gen_bad_value =
  let open Obs.Json in
  QCheck.Gen.oneofl
    [ Num (-1.); Num 1.5; Num 256.; Num 4096.; Num 1e16; Num 1e20; Num (-0.);
      Str "x";
      Str "tx"; Bool true; Bool false; Null; List [ Num 1.; Num 300. ];
      List (List.init 9 (fun _ -> Num 0.)); Obj [] ]

(* The writer's fields, reordered and sometimes with a key repeated,
   added (an explicit "ext":false or an unknown key), dropped, or given
   a wrong value. *)
let gen_variant_fields =
  let open QCheck.Gen in
  let* stream = gen_stream and* entry = gen_wide_entry in
  let fields = writer_fields stream entry in
  let* fields = shuffle_l fields in
  let* extra =
    frequency
      [ (4, return []);
        (1, return [ ("ext", Obs.Json.Bool false) ]);
        (1, map (fun f -> [ f ]) (oneofl fields));
        (1, return [ ("x", Obs.Json.Num 1.) ]);
        (1, map (fun v -> [ ("t", v) ]) gen_bad_value) ]
  in
  let* fields = shuffle_l (fields @ extra) in
  frequency
    [ (6, return fields);
      (1, map (fun i -> List.filteri (fun j _ -> j <> i) fields)
            (int_bound (List.length fields - 1)));
      (2,
       let* i = int_bound (List.length fields - 1) and* v = gen_bad_value in
       return
         (List.mapi (fun j (k, old) -> (k, if i = j then v else old)) fields))
    ]

(* A writer line with one field's value replaced by a boundary or
   near-miss spelling, written as raw JSON text, or with one key
   renamed to a near miss. *)
let edge_values =
  [
    ("s", [ {|""|}; "1"; "null" ]);
    ("t", [ "-1"; "-0"; "0"; "1e2"; "1.5"; {|"5"|}; "999999999999999";
            "1000000000000000"; "10000000000000000000";
            "100000000000000000000" ]);
    ("n", [ {|""|}; "5" ]);
    ("d", [ {|"rx:"|}; {|"fault:"|}; {|"rx"|}; {|"rx.ECU"|}; {|"fault.x"|};
            {|"tx "|}; {|"TX"|}; {|"t"|} ]);
    ("id", [ "-1"; "2047"; "2048"; "536870911"; "536870912" ]);
    ("ext", [ "true"; "false"; "flase"; "fals"; "tru"; "null"; "1" ]);
    ("data", [ "[]"; "[255]"; "[256]"; "[-1]"; "[0,0,0,0,0,0,0,0]";
               "[0,0,0,0,0,0,0,0,0]"; "[1,]"; "[,1]"; "[1.0]"; "[01]" ]);
  ]

let gen_edge_line =
  let open QCheck.Gen in
  let* stream = gen_stream and* entry = gen_wide_entry in
  let fields =
    List.map
      (fun (k, v) -> (k, Obs.Json.to_string v))
      (writer_fields stream entry)
  in
  let* key, values = oneofl edge_values in
  let* text = oneofl values in
  let* rename = frequencyl [ (3, None); (1, Some ()) ] in
  let* near =
    oneofl
      [ ("s", "S"); ("t", "tt"); ("n", ""); ("d", "dd"); ("id", "ix");
        ("id", "i"); ("ext", "ex"); ("ext", "exit"); ("data", "dat");
        ("data", "datum") ]
  in
  let fields =
    match rename with
    | Some () ->
      List.map (fun (k, v) -> ((if k = fst near then snd near else k), v)) fields
    | None when List.mem_assoc key fields ->
      List.map (fun (k, v) -> (k, if k = key then text else v)) fields
    | None -> fields @ [ (key, text) ]
  in
  let* fields = shuffle_l fields in
  return
    ("{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
    ^ "}")

let gen_meta_line =
  let open QCheck.Gen in
  let* stream = gen_stream and* drop = float_bound_inclusive 1. in
  return
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("s", Obs.Json.Str stream);
            ("meta", Obs.Json.Obj [ ("drop", Obs.Json.Num drop) ]) ]))

let gen_mutated =
  Helpers.gen_byte_edits
    ~interesting:
      [ '"'; '\\'; ','; ':'; '{'; '}'; '['; ']'; '-'; '.'; 'e'; '0'; '9'; ' ';
        '\r'; 't'; 'f' ]

let gen_trace_line =
  let open QCheck.Gen in
  let writer =
    map2
      (fun stream entry ->
        Obs.Json.to_string (Obs.Json.Obj (writer_fields stream entry)))
      gen_stream gen_wide_entry
  in
  let spelled =
    let* fields = gen_variant_fields and* sp = gen_spelling in
    gen_object sp fields
  in
  let whitespace =
    let* line = writer and* tail = oneofl [ "\r"; " "; "\t\r" ] in
    return (line ^ tail)
  in
  frequency
    [
      (4, writer);
      (2, map (fun f -> Obs.Json.to_string (Obs.Json.Obj f)) gen_variant_fields);
      (3, spelled);
      (1, whitespace);
      (1, gen_meta_line);
      (3, gen_edge_line);
      (4, oneof [ writer; spelled; gen_edge_line; gen_meta_line ] >>= gen_mutated);
    ]

let decoder_agrees_test =
  QCheck.Test.make ~count:5000
    ~name:"parse_line agrees with the Obs.Json oracle"
    (QCheck.make ~print:String.escaped gen_trace_line)
    (fun raw ->
      match disagreement raw with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Every line of a generated corpus, header aside. *)
let test_decoder_on_corpus () =
  with_tmp @@ fun path ->
  ignore
    (Ota.Corpus.generate ~seed:3 ~streams:20 ~until_ms:200 ~flawed_rate:0.5
       ~path ());
  let lines = String.split_on_char '\n' (read_file path) in
  let entries = ref 0 and metas = ref 0 in
  List.iteri
    (fun i raw ->
      if i > 0 && raw <> "" then begin
        Option.iter (Alcotest.failf "line %d: %s" (i + 1)) (disagreement raw);
        match Serve.Trace_io.parse_line raw with
        | Serve.Trace_io.Entry _ -> incr entries
        | Serve.Trace_io.Meta _ -> incr metas
        | Serve.Trace_io.Malformed { reason; _ } ->
          Alcotest.failf "line %d malformed: %s" (i + 1) reason
      end)
    lines;
  Alcotest.(check int) "one meta line per stream" 20 !metas;
  Alcotest.(check bool) "entries decoded" true (!entries > 0)

(* A hand-built two-stream corpus with one recoverable and one
   unrecoverable corrupt line: the bad stream is poisoned, the good one
   still checked, nothing raises. *)
let test_corrupt_stream_contained () =
  with_tmp @@ fun path ->
  let entry time id =
    {
      Canbus.Trace_log.time;
      node = "VMG";
      direction = Canbus.Trace_log.Tx;
      frame = Canbus.Frame.make ~id [ 1 ];
    }
  in
  Serve.Trace_io.with_writer ~path ~header:Serve.Trace_io.empty_header
    (fun w ->
      Serve.Trace_io.write_entry w ~stream:"good" (entry 10 0);
      Serve.Trace_io.write_entry w ~stream:"bad" (entry 20 1);
      Serve.Trace_io.write_entry w ~stream:"good" (entry 30 2));
  (* append one corrupt line per failure mode, outside the atomic writer *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"s\":\"bad\",\"t\":\"not-a-time\"}\n";
  output_string oc "utter garbage\n";
  close_out oc;
  let defs = make_defs () in
  let spec =
    Proc.prefix_items
      ( "a",
        [ Proc.In ("x", None) ],
        Proc.prefix_items ("a", [ Proc.In ("y", None) ], Proc.stop) )
  in
  let t = compile_exn defs spec in
  let map (e : Canbus.Trace_log.entry) =
    match e.direction with
    | Canbus.Trace_log.Tx -> Some (vis "a" (e.frame.Canbus.Frame.id mod 3))
    | _ -> None
  in
  match
    Serve.Trace_run.check_corpus ~map ~requirements:[ ("SPEC", t) ] ~path ()
  with
  | Error msg -> Alcotest.failf "check_corpus errored: %s" msg
  | Ok report ->
    Alcotest.(check int) "streams" 2 report.Serve.Trace_run.streams;
    Alcotest.(check int) "malformed lines" 2 report.Serve.Trace_run.malformed;
    Alcotest.(check bool) "not passed" false (Serve.Trace_run.passed report);
    (match report.Serve.Trace_run.requirements with
    | [ r ] ->
      Alcotest.(check int) "accepted" 1 r.Serve.Trace_run.accepted;
      Alcotest.(check int) "corrupt" 1 r.Serve.Trace_run.corrupt
    | rs -> Alcotest.failf "expected 1 requirement, got %d" (List.length rs))

(* Rejected streams are attributed to the fault kinds their meta lines
   declared; a stream without a meta (or with an all-zero one) lands in
   the "none" bucket, and a meta line alone never makes a stream exist. *)
let test_rejection_attribution () =
  with_tmp @@ fun path ->
  let entry time id =
    {
      Canbus.Trace_log.time;
      node = "VMG";
      direction = Canbus.Trace_log.Tx;
      frame = Canbus.Frame.make ~id [ 1 ];
    }
  in
  let meta fields = Obs.Json.Obj fields in
  Serve.Trace_io.with_writer ~path ~header:Serve.Trace_io.empty_header
    (fun w ->
      Serve.Trace_io.write_meta w ~stream:"bad1"
        (meta
           [ "drop", Obs.Json.Num 0.2; "corrupt", Obs.Json.Num 0.;
             "babble", Obs.Json.Bool true ]);
      Serve.Trace_io.write_meta w ~stream:"ghost"
        (meta [ "drop", Obs.Json.Num 0.9 ]);
      (* "ok" stays within the spec's two events; the others overrun *)
      Serve.Trace_io.write_entry w ~stream:"ok" (entry 10 0);
      List.iter
        (fun t ->
          Serve.Trace_io.write_entry w ~stream:"bad1" (entry t 1);
          Serve.Trace_io.write_entry w ~stream:"bad2" (entry t 2))
        [ 20; 30; 40 ])
  ;
  let defs = make_defs () in
  let spec =
    Proc.prefix_items
      ( "a",
        [ Proc.In ("x", None) ],
        Proc.prefix_items ("a", [ Proc.In ("y", None) ], Proc.stop) )
  in
  let t = compile_exn defs spec in
  let map (e : Canbus.Trace_log.entry) =
    match e.direction with
    | Canbus.Trace_log.Tx -> Some (vis "a" (e.frame.Canbus.Frame.id mod 3))
    | _ -> None
  in
  match
    Serve.Trace_run.check_corpus ~map ~requirements:[ ("SPEC", t) ] ~path ()
  with
  | Error msg -> Alcotest.failf "check_corpus errored: %s" msg
  | Ok report ->
    Alcotest.(check int)
      "meta alone creates no stream" 3 report.Serve.Trace_run.streams;
    Alcotest.(check int)
      "two rejected" 2 report.Serve.Trace_run.streams_rejected;
    Alcotest.(check (list (pair string int)))
      "attribution buckets"
      [ "babble", 1; "drop", 1; "none", 1 ]
      report.Serve.Trace_run.rejected_by_fault;
    (* the JSON document carries the same buckets, additively *)
    (match
       Obs.Json.member "rejected_by_fault"
         (Serve.Trace_run.json_of_report ~timing:false report)
     with
     | Some (Obs.Json.Obj fields) ->
       Alcotest.(check (list string))
         "json keys" [ "babble"; "drop"; "none" ] (List.map fst fields)
     | _ -> Alcotest.fail "report JSON lacks rejected_by_fault object")

(* ------------------------------------------------------------------ *)
(* Corpus driver: one report whichever decoder reads the lines         *)
(* ------------------------------------------------------------------ *)

let ota_specs =
  "channel reqSw : {0..3}\n\
   channel rptSw : {0..7}\n\
   channel reqApp : {0..7}.{0..7}\n\
   channel rptUpd : {0..7}\n\
   secret = 5\n\
   mac(v) = (v + secret) % 8\n\
   ANY = reqSw?p -> ANY [] rptSw?v -> ANY [] reqApp?v?t -> ANY\n\
   \      [] rptUpd?v -> ANY\n\
   SPEC_ORDER = reqSw?p -> ANY\n\
   pow2(n) = if n == 0 then 1 else 2 * pow2(n - 1)\n\
   bit(m, v) = (m / pow2(v)) % 2\n\
   grant(m, v) = if bit(m, v) == 1 then m else m + pow2(v)\n\
   AUTH(m) =\n\
   \  reqSw?p -> AUTH(m)\n\
   \  [] rptSw?v -> AUTH(m)\n\
   \  [] reqApp?v?t -> (if t == mac(v) then AUTH(grant(m, v)) else AUTH(m))\n\
   \  [] ([] v : {0..7} @ bit(m, v) == 1 & rptUpd!v -> AUTH(m))\n\
   SPEC_AUTH = AUTH(0)\n"

(* The same corpus twice: as the writer spelled it, which the direct
   decoder reads, and respelled with the keys reversed and a space after
   every colon and comma, which only the Obs.Json path reads. The
   reports must match byte for byte. *)
let respell raw =
  match Obs.Json.parse raw with
  | Ok (Obs.Json.Obj fields) ->
    "{"
    ^ String.concat ", "
        (List.rev_map
           (fun (k, v) -> Printf.sprintf "%S: %s" k (Obs.Json.to_string v))
           fields)
    ^ "}"
  | Ok _ | Error _ -> raw

let test_corpus_decoders_identical () =
  with_tmp @@ fun path ->
  let summary =
    Ota.Corpus.generate ~seed:11 ~streams:10 ~until_ms:150 ~flawed_rate:0.5
      ~path ()
  in
  Alcotest.(check int) "streams generated" 10 summary.Ota.Corpus.streams;
  let script = Cspm.Elaborate.load_string ota_specs in
  let map, requirements =
    match
      Serve.Trace_run.prepare ~script ~specs:[] ~dbc:None ~corpus:path ()
    with
    | Ok v -> v
    | Error msg -> Alcotest.failf "prepare: %s" msg
  in
  Alcotest.(check int) "two requirements" 2 (List.length requirements);
  let doc () =
    match Serve.Trace_run.check_corpus ~map ~requirements ~path () with
    | Ok report ->
      Obs.Json.to_string (Serve.Trace_run.json_of_report ~timing:false report)
    | Error msg -> Alcotest.failf "check_corpus: %s" msg
  in
  let direct = doc () in
  (match String.split_on_char '\n' (read_file path) with
   | header :: lines ->
     let oc = open_out_bin path in
     output_string oc header;
     List.iter
       (fun raw -> if raw <> "" then output_string oc ("\n" ^ respell raw))
       lines;
     output_char oc '\n';
     close_out oc
   | [] -> Alcotest.fail "empty corpus");
  Alcotest.(check string) "byte-identical report" direct (doc ())

let suite =
  ( "tracecheck",
    [
    Alcotest.test_case "accept and reject with positions" `Quick
      test_accept_reject;
    Alcotest.test_case "verdict latches after rejection" `Quick test_latch;
    Alcotest.test_case "tick only at termination" `Quick test_tick;
    Alcotest.test_case "out-of-alphabet events skipped" `Quick
      test_out_of_alphabet_skipped;
    QCheck_alcotest.to_alcotest agreement_test;
    Alcotest.test_case "check_streams keeps order and counts" `Quick
      test_check_streams_counts;
    QCheck_alcotest.to_alcotest codec_roundtrip_test;
    Alcotest.test_case "codec rejects invalid entries" `Quick
      test_entry_of_json_rejects;
    Alcotest.test_case "corpus generation is seed-deterministic" `Quick
      test_corpus_deterministic;
    Alcotest.test_case "parse_line classifies corrupt lines" `Quick
      test_parse_line;
    QCheck_alcotest.to_alcotest decoder_agrees_test;
    Alcotest.test_case "parse_line agrees with the oracle on a corpus"
      `Quick test_decoder_on_corpus;
    Alcotest.test_case "corrupt line poisons only its stream" `Quick
      test_corrupt_stream_contained;
    Alcotest.test_case "rejections attributed to declared faults" `Quick
      test_rejection_attribution;
    Alcotest.test_case "corpus verdicts identical across decoders" `Quick
      test_corpus_decoders_identical;
  ] )
