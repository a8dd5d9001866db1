(* Byte-level robustness of every decoder that reads outside input:
   valid inputs with one to three bytes replaced, cut off, inserted or
   appended. The source parsers (CSPm, CAPL, DBC) may raise only their
   documented syntax errors; the daemon's request decoder
   (cspm-checkd/2) and the can-trace/1 header decoder must answer
   [Error] and never raise. (The can-trace/1 line decoder is held to
   its Obs.Json oracle, mutated lines included, in [Test_tracecheck].) *)

(* Valid CSPm: channels with types, a datatype, functions, set
   comprehension, replicated choice, the parallel and hiding operators,
   guards, if-then-else and every assertion form. *)
let cspm_scripts =
  [
    {q|datatype Msg = reqSw | rptSw | reqApp | rptUpd
channel send : Msg
channel rec : Msg
double(x) = x + x
SP02 = send!reqSw -> rec!rptSw -> SP02
VMG = send!reqSw -> rec?r -> VMG
ECU = send?m -> rec!rptSw -> ECU
SYSTEM = VMG [| {| send, rec |} |] ECU
assert SP02 [T= SYSTEM
assert SYSTEM :[deadlock free [F]]
|q};
    {q|channel reqSw : {0..3}
channel reqApp : {0..7}.{0..7}
channel rptUpd : {0..7}
secret = 5
mac(v) = (v + secret) % 8
pow2(n) = if n == 0 then 1 else 2 * pow2(n - 1)
AUTH(m) =
  reqSw?p -> AUTH(m)
  [] reqApp?v?t -> (if t == mac(v) then AUTH(m + pow2(v)) else AUTH(m))
  [] ([] v : {0..7} @ (m / pow2(v)) % 2 == 1 & rptUpd!v -> AUTH(m))
SPEC = AUTH(0)
assert SPEC [F= AUTH(0) \ {| reqSw |}
|q};
    {q|datatype D = x | y.{0..1}
channel c : D
channel done
P(n) = c!x -> P(n) |~| c.y!n -> SKIP ; done -> STOP
Q = (P(0) ||| P(1)) [| {done} |] done -> STOP
assert P(1) [FD= Q
assert Q :[divergence free]
assert Q :[deterministic]
|q};
  ]

let syntax_bytes = [ '('; ')'; '['; ']'; '{'; '}'; '|'; '-'; '>'; '!'; '?';
                     '='; '.'; ','; ':'; ';'; '@'; '&'; '\\'; '"'; '\n';
                     ' '; '0'; '9'; 'a' ]

let json_bytes = [ '"'; '\\'; ','; ':'; '{'; '}'; '['; ']'; '-'; '.'; 'e';
                   '0'; '9'; ' '; 't'; 'f'; 'n' ]

let gen_mutant ~interesting seeds =
  QCheck.Gen.(oneofl seeds >>= Helpers.gen_byte_edits ~interesting)

(* [decode] either returns or raises an exception [documented] accepts. *)
let raises_only ~name ~count ~interesting ~seeds ~documented decode =
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:String.escaped (gen_mutant ~interesting seeds))
    (fun input ->
      match decode input with
      | _ -> true
      | exception e when documented e -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let cspm_raises_only_syntax_errors =
  raises_only ~name:"CSPm parser raises only its syntax errors" ~count:1000
    ~interesting:syntax_bytes ~seeds:cspm_scripts
    ~documented:(function
      | Cspm.Parser.Parse_error _ | Cspm.Lexer.Lex_error _ -> true
      | _ -> false)
    Cspm.Parser.script

let capl_raises_only_syntax_errors =
  raises_only ~name:"CAPL parser raises only its syntax errors" ~count:1000
    ~interesting:syntax_bytes
    ~seeds:
      [ Ota.Capl_sources.vmg; Ota.Capl_sources.ecu;
        Ota.Capl_sources.ecu_nocheck ]
    ~documented:(function
      | Capl.Parser.Parse_error _ | Capl.Lexer.Lex_error _ -> true
      | _ -> false)
    Capl.Parser.program

let dbc_raises_only_parse_errors =
  raises_only ~name:"DBC parser raises only Parse_error" ~count:1000
    ~interesting:syntax_bytes ~seeds:[ Ota.Capl_sources.dbc ]
    ~documented:(function Candb.Dbc_parser.Parse_error _ -> true | _ -> false)
    Candb.Dbc_parser.parse

(* Requests of every op and job kind, with every optional field. *)
let requests =
  [
    {|{"op":"health"}|};
    {|{"schema":"cspm-checkd/2","op":"drain"}|};
    {|{"op":"submit","id":"j1","script":"channel a\nP = a -> P\nassert P [T= P"}|};
    {|{"schema":"cspm-checkd/1","op":"submit","id":"j2","path":"model.csp","deadline_s":2.5,"workers":2,"max_states":1000,"max_retries":3,"reductions":"none","lint":true,"deny_warnings":false}|};
    {|{"schema":"cspm-checkd/2","op":"submit","id":"t1","kind":"trace-check","corpus":"fleet.ndjson","specs":["SPEC_AUTH","SPEC_ORDER"],"dbc":"ota.dbc","path":"specs.csp"}|};
    {|{"op":"submit","id":"t2","kind":"trace-check","corpus":"c.ndjson","spec":"SPEC","script":"SPEC = STOP"}|};
  ]

let no_raise ~name ~count ~seeds decode =
  raises_only ~name ~count ~interesting:json_bytes ~seeds
    ~documented:(fun _ -> false) decode

let protocol_never_raises =
  no_raise ~name:"cspm-checkd/2 request decoding never raises" ~count:2000
    ~seeds:requests (fun line ->
      match Serve.Protocol.request_of_line line with Ok _ | Error _ -> ())

let headers =
  List.map
    (fun h -> Obs.Json.to_string (Serve.Trace_io.header_to_json h))
    [
      Serve.Trace_io.empty_header;
      { generator = Some "ota-fault"; seed = Some 7;
        dbc = Some Ota.Capl_sources.dbc };
    ]

let header_never_raises =
  no_raise ~name:"can-trace/1 header decoding never raises" ~count:1000
    ~seeds:headers (fun line ->
      match Serve.Trace_io.header_of_line line with Ok _ | Error _ -> ())

(* The mutants start from inputs each decoder accepts. *)
let test_seeds_decode () =
  List.iter (fun s -> ignore (Cspm.Parser.script s)) cspm_scripts;
  List.iter
    (fun s -> ignore (Capl.Parser.program s))
    [
      Ota.Capl_sources.vmg; Ota.Capl_sources.ecu; Ota.Capl_sources.ecu_nocheck;
    ];
  ignore (Candb.Dbc_parser.parse Ota.Capl_sources.dbc);
  List.iter
    (fun line ->
      match Serve.Protocol.request_of_line line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "request %s: %s" line msg)
    requests;
  List.iter
    (fun line ->
      match Serve.Trace_io.header_of_line line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "header %s: %s" line msg)
    headers

let suite =
  ( "decoders",
    Alcotest.test_case "the unmutated inputs decode" `Quick test_seeds_decode
    :: List.map QCheck_alcotest.to_alcotest
      [
        cspm_raises_only_syntax_errors;
        capl_raises_only_syntax_errors;
        dbc_raises_only_parse_errors;
        protocol_never_raises;
        header_never_raises;
      ] )
