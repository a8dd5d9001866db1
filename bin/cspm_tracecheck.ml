(* cspm_tracecheck — fleet-scale offline trace checking.

   Two subcommands close the scenario-factory loop: [generate] runs the
   OTA demonstration network under seeded fault plans and mass-produces
   a can-trace/1 NDJSON corpus; [check] streams a corpus through the
   trace-containment engine — the spec script's processes compiled once
   to normal form, one O(1) cursor per (stream, requirement) — and
   prints per-requirement verdict counts as text or the stable
   trace-check/1 JSON document. *)

let load_script path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | source -> (
    match Cspm.Elaborate.load_string source with
    | loaded -> Ok loaded
    | exception Cspm.Parser.Parse_error (msg, pos) ->
      Error (Format.asprintf "%a: syntax error: %s" Cspm.Ast.pp_pos pos msg)
    | exception Cspm.Lexer.Lex_error (msg, pos) ->
      Error (Format.asprintf "%a: lexical error: %s" Cspm.Ast.pp_pos pos msg)
    | exception Cspm.Elaborate.Elab_error (msg, pos) ->
      Error
        (match pos with
        | Some pos -> Format.asprintf "%a: %s" Cspm.Ast.pp_pos pos msg
        | None -> msg))
  | exception Sys_error msg -> Error msg

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

let run_check script corpus specs dbc () max_states format sample_limit
    trace_out =
  let trace_oc = Option.map open_out trace_out in
  let obs =
    match trace_oc with
    | Some oc -> Obs.create (Obs.Jsonl oc)
    | None -> Obs.silent
  in
  let finish code =
    Obs.flush obs;
    Option.iter close_out_noerr trace_oc;
    code
  in
  let fail msg =
    prerr_endline ("cspm_tracecheck: " ^ msg);
    finish 2
  in
  let config =
    let open Csp.Check_config in
    let c = default |> with_obs obs in
    match max_states with Some n -> with_max_states n c | None -> c
  in
  let ( let* ) v k = match v with Error m -> `Exit (fail m) | Ok v -> k v in
  match
    let* loaded = load_script script in
    let* dbc_text =
      match dbc with None -> Ok None | Some p -> Result.map Option.some (read_file p)
    in
    let* map, requirements =
      Serve.Trace_run.prepare ~config ~script:loaded ~specs ~dbc:dbc_text
        ~corpus ()
    in
    let* report =
      Serve.Trace_run.check_corpus ~obs ~sample_limit ~map
        ~requirements ~path:corpus ()
    in
    (match format with
     | `Json ->
       print_string (Obs.Json.to_string (Serve.Trace_run.json_of_report report));
       print_newline ()
     | `Pretty -> Format.printf "%a@." Serve.Trace_run.pp_report report);
    `Exit (finish (if Serve.Trace_run.passed report then 0 else 1))
  with
  | `Exit code -> code

let run_generate out streams seed until_ms flawed_rate no_dbc =
  match
    Ota.Corpus.generate ~seed ~streams ~until_ms ~flawed_rate
      ~embed_dbc:(not no_dbc) ~path:out ()
  with
  | s ->
    Printf.printf
      "wrote %s: %d streams, %d entries (%d fault entries, %d flawed \
       streams), seed %d\n"
      out s.Ota.Corpus.streams s.Ota.Corpus.entries s.Ota.Corpus.faults
      s.Ota.Corpus.flawed seed;
    0
  | exception Sys_error msg ->
    prerr_endline ("cspm_tracecheck: " ^ msg);
    2

open Cmdliner

(* generate *)

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the can-trace/1 corpus to $(docv) (atomic + durable).")

let streams_arg =
  Arg.(
    value & opt int 1000
    & info [ "streams" ] ~docv:"N"
        ~doc:"Number of independent simulation runs (corpus streams).")

let gen_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Master seed. Every fault plan derives from it by PRNG splits, \
           so equal seeds give byte-identical corpora.")

let until_ms_arg =
  Arg.(
    value & opt int 400
    & info [ "until-ms" ] ~docv:"MS"
        ~doc:"Simulated milliseconds per stream.")

let flawed_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "flawed-rate" ] ~docv:"P"
        ~doc:
          "Probability a stream runs the flawed ECU (no tag \
           verification) — the planted R05 violation.")

let no_dbc_arg =
  Arg.(
    value & flag
    & info [ "no-dbc" ]
        ~doc:
          "Do not embed the CAN database in the corpus header (checking \
           will then need an explicit $(b,--dbc)).")

let generate_cmd =
  let doc = "mass-produce an adversarial OTA trace corpus" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the paper's demonstration network (VMG + target ECU) once \
         per stream under a seeded random fault plan — frame drops, bit \
         corruption, delay, duplication, babbling-idiot interference — \
         and streams every trace-log entry to a can-trace/1 NDJSON \
         corpus. Each stream opens with a $(b,meta) line recording its \
         plan; the CAN database is embedded in the header so the corpus \
         is self-contained.";
    ]
  in
  Cmd.v
    (Cmd.info "generate" ~doc ~man)
    Term.(
      const run_generate $ out_arg $ streams_arg $ gen_seed_arg
      $ until_ms_arg $ flawed_rate_arg $ no_dbc_arg)

(* check *)

let script_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SCRIPT" ~doc:"CSPm script defining the specs.")

let corpus_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "corpus" ] ~docv:"FILE" ~doc:"can-trace/1 NDJSON corpus.")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "spec" ] ~docv:"NAME"
        ~doc:
          "Nullary process to check trace containment against \
           (repeatable). Default: every definition named SPEC*.")

let dbc_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "dbc" ] ~docv:"FILE"
        ~doc:
          "CAN database mapping frames to spec events. Default: the \
           database embedded in the corpus header.")

(* Parsed and ignored: the corpus is checked in one sequential pass. *)
let workers_arg =
  Term.(
    const (fun (_ : int) -> ())
    $ Arg.(
        value & opt int 1
        & info [ "j"; "workers" ] ~docv:"N"
            ~doc:
              "Accepted for compatibility; has no effect. A corpus is \
               checked in one sequential pass."))

let max_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"State budget for compiling each spec's normal form.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("pretty", `Pretty); ("json", `Json) ]) `Pretty
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,pretty) text or the stable $(b,json) \
           trace-check/1 document.")

let sample_limit_arg =
  Arg.(
    value & opt int 5
    & info [ "sample-limit" ] ~docv:"N"
        ~doc:"Rejection examples retained per requirement.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the observability stream (tracecheck.* counters, \
           events/s histogram, spans) to $(docv) as JSON Lines.")

let check_cmd =
  let doc = "check a trace corpus against CSPm specs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each spec once to its normal form (through the \
         content-addressed LTS cache when warm), maps every logged \
         frame to a spec event via the extractor's channel alphabet, \
         and advances one O(1) cursor per (stream, requirement) — no \
         state-space search, constant memory per stream, one \
         sequential pass over the corpus. A corrupt corpus line costs \
         only its own stream.";
      `S Manpage.s_exit_status;
      `P "0 — every stream accepted by every requirement.";
      `P "1 — some stream rejected, corrupt, or malformed.";
      `P "2 — the script, database, or corpus could not be loaded.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man)
    Term.(
      const run_check $ script_arg $ corpus_arg $ spec_arg $ dbc_arg
      $ workers_arg $ max_states_arg $ format_arg $ sample_limit_arg
      $ trace_out_arg)

let cmd =
  let doc = "streaming trace containment for CAN trace corpora" in
  Cmd.group (Cmd.info "cspm_tracecheck" ~version:"1.0.0" ~doc)
    [ generate_cmd; check_cmd ]

let () = exit (Cmd.eval' cmd)
