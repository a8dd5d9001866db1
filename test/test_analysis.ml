(* The pre-check static analysis: diagnostic plumbing (ordering, blocking,
   JSON), every CAPL and CSPm check's positive and negative cases, purity
   (lint never changes refinement verdicts), and robustness properties —
   the analyzers never raise, whatever AST they are fed. *)

open Analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let has code diags = List.exists (fun d -> d.Diag.code = code) diags
let count_code code diags =
  List.length (List.filter (fun d -> d.Diag.code = code) diags)

(* ------------------------------------------------------------------ *)
(* Diag                                                                *)
(* ------------------------------------------------------------------ *)

let test_diag_basics () =
  let d ?file ?pos sev code = Diag.make ?file ?pos sev ~code "m" in
  let unsorted =
    [
      d ~file:"b" Diag.Warning "X002";
      d ~file:"a" ~pos:{ Diag.line = 9; col = 1 } Diag.Info "X003";
      d ~file:"a" ~pos:{ Diag.line = 2; col = 5 } Diag.Error "X001";
      d ~file:"a" ~pos:{ Diag.line = 2; col = 5 } Diag.Error "X001";
    ]
  in
  let sorted = Diag.sort unsorted in
  check_int "dedup removes the exact duplicate" 3 (List.length sorted);
  check_string "file order first" "X001" (List.nth sorted 0).Diag.code;
  check_string "then position order" "X003" (List.nth sorted 1).Diag.code;
  check_bool "errors always block" true
    (Diag.blocking ~deny_warnings:false [ d Diag.Error "E" ]);
  check_bool "warnings block only when denied" false
    (Diag.blocking ~deny_warnings:false [ d Diag.Warning "W" ]);
  check_bool "warnings block when denied" true
    (Diag.blocking ~deny_warnings:true [ d Diag.Warning "W" ]);
  check_bool "infos never block" false
    (Diag.blocking ~deny_warnings:true [ d Diag.Info "I" ]);
  check_int "exit code is stable" 4 Diag.exit_code;
  let rendered =
    Format.asprintf "%a" Diag.pp
      (d ~file:"f.csp" ~pos:{ Diag.line = 3; col = 7 } Diag.Warning "X009")
  in
  check_string "pp format" "f.csp:3:7: warning[X009]: m" rendered

let test_diag_severity_tiebreak () =
  (* identical in every component but severity: both survive dedup, and
     the more severe one leads — so cross-file report order is total *)
  let d sev =
    Diag.make ~file:"n" ~pos:{ Diag.line = 1; col = 1 } sev ~code:"X001" "m"
  in
  let sorted = Diag.sort [ d Diag.Warning; d Diag.Error ] in
  check_int "both survive" 2 (List.length sorted);
  check_bool "error first" true
    ((List.hd sorted).Diag.severity = Diag.Error);
  (* and the order is independent of input order *)
  let flipped = Diag.sort [ d Diag.Error; d Diag.Warning ] in
  check_bool "deterministic across input orders" true (sorted = flipped)

let test_diag_json () =
  let diags =
    [
      Diag.make ~file:"n" ~pos:{ Diag.line = 1; col = 2 } Diag.Error
        ~code:"CAPL001" "boom";
      Diag.make Diag.Info ~code:"CSPM003" "quiet";
    ]
  in
  let doc = Obs.Json.to_string (Diag.json_of_list diags) in
  match Obs.Json.parse doc with
  | Error msg -> Alcotest.fail ("diagnostics JSON does not parse: " ^ msg)
  | Ok j ->
    (match Obs.Json.member "schema" j with
     | Some (Obs.Json.Str s) -> check_string "schema tag" "diagnostics/1" s
     | _ -> Alcotest.fail "missing schema tag");
    (match Obs.Json.member "summary" j with
     | Some summary ->
       let n field =
         match Obs.Json.member field summary with
         | Some (Obs.Json.Num f) -> int_of_float f
         | _ -> -1
       in
       check_int "total" 2 (n "total");
       check_int "errors" 1 (n "errors");
       check_int "infos" 1 (n "infos")
     | None -> Alcotest.fail "missing summary")

(* ------------------------------------------------------------------ *)
(* CAPL lint                                                           *)
(* ------------------------------------------------------------------ *)

let demo_dbc =
  "VERSION \"1\"\n\n\
   BO_ 256 Req: 2 VMG\n\
  \ SG_ cmd : 0|8@1+ (1,0) [0|3] \"\" ECU\n\n\
   BO_ 512 Resp: 2 ECU\n\
  \ SG_ status : 0|8@1+ (1,0) [0|3] \"\" VMG\n"

let demo_db () = Candb.To_capl.msgdb (Candb.Dbc_parser.parse demo_dbc)

let lint_src ?db src =
  Capl_lint.lint ?db ~name:"node" (Capl.Parser.program src)

let lint_srcs ?db named =
  Capl_lint.lint_nodes ?db
    (List.map (fun (n, s) -> n, Capl.Parser.program s) named)

let test_capl_unknown_message () =
  let diags =
    lint_src ~db:(demo_db ())
      "variables { message Bogus mBad; }\non message Ghost { }\n"
  in
  check_int "both selector sites flagged" 2 (count_code "CAPL001" diags);
  check_bool "CAPL001 is an error" true
    (List.exists
       (fun d -> d.Diag.code = "CAPL001" && d.Diag.severity = Diag.Error)
       diags);
  (* without a database the check stays quiet *)
  check_int "no db, no CAPL001" 0
    (count_code "CAPL001"
       (lint_src "variables { message Bogus mBad; }\non message Ghost { }\n"))

let test_capl_message_flow () =
  (* a handler nothing sends to, and an output nothing handles *)
  let diags =
    lint_src "variables { message Req mReq; }\n\
              on start { output(mReq); }\n\
              on message Resp { }\n"
  in
  check_bool "orphan handler flagged" true (has "CAPL002" diags);
  check_bool "orphan output flagged" true (has "CAPL003" diags);
  (* cross-node: one node outputs what the other handles — clean *)
  let diags =
    lint_srcs
      [
        "tx", "variables { message Req mReq; }\non start { output(mReq); }\n";
        "rx", "on message Req { }\n";
      ]
  in
  check_int "cross-node flow is clean" 0
    (count_code "CAPL002" diags + count_code "CAPL003" diags);
  (* a catch-all handler absorbs any output *)
  let diags =
    lint_srcs
      [
        "tx", "variables { message Req mReq; }\non start { output(mReq); }\n";
        "spy", "on message * { }\n";
      ]
  in
  check_int "catch-all suppresses CAPL003" 0 (count_code "CAPL003" diags)

let test_capl_timers () =
  let diags =
    lint_src "variables { timer tick; timer idle; }\n\
              on start { setTimer(tick, 5); }\n\
              on timer idle { }\n"
  in
  check_bool "armed but unhandled" true (has "CAPL004" diags);
  check_bool "handled but never armed" true (has "CAPL005" diags);
  let diags =
    lint_src "variables { timer tick; }\n\
              on start { setTimer(tick, 5); }\n\
              on timer tick { setTimer(tick, 5); }\n"
  in
  check_int "matched timer is clean" 0
    (count_code "CAPL004" diags + count_code "CAPL005" diags)

let test_capl_use_before_init () =
  let diags =
    lint_src "variables { int g; }\non message * { g = g + 1; }\n"
  in
  check_bool "uninitialised global read" true (has "CAPL006" diags);
  let diags =
    lint_src "variables { int g; }\n\
              on start { g = 0; }\n\
              on message * { g = g + 1; }\n"
  in
  check_int "on start assignment initialises" 0 (count_code "CAPL006" diags);
  let diags =
    lint_src "variables { int g = 0; }\non message * { g = g + 1; }\n"
  in
  check_int "initialiser initialises" 0 (count_code "CAPL006" diags)

let test_capl_path_sensitive_init () =
  (* the dataflow CAPL006: an assignment under a condition covers only
     one path, so the read after the join is still suspect... *)
  let diags =
    lint_src "variables { int g; int c = 1; }\n\
              on start { if (c) { g = 1; } g = g + 1; }\n"
  in
  check_bool "one-armed if leaves a path uninitialised" true
    (has "CAPL006" diags);
  (* ...while assigning on both arms initialises on every path *)
  let diags =
    lint_src "variables { int g; int c = 1; }\n\
              on start { if (c) { g = 1; } else { g = 2; } g = g + 1; }\n"
  in
  check_int "both-armed if is clean" 0 (count_code "CAPL006" diags);
  (* interprocedural: a called function's unconditional assignment
     counts through its must-assign summary *)
  let diags =
    lint_src "variables { int g; }\n\
              void setup() { g = 0; }\n\
              on start { setup(); g = g + 1; }\n"
  in
  check_int "call credited via must-assign summary" 0
    (count_code "CAPL006" diags)

let test_capl_interval_narrowing () =
  (* the interval-gated CAPL008: a narrowing store whose value provably
     fits is no longer noise... *)
  let diags = lint_src "on start { int w = 5; byte b; b = w; }\n" in
  check_int "provably fitting narrowing is clean" 0
    (count_code "CAPL008" diags);
  (* ...but a cross-handler reassignment makes the range unknown at the
     store, so the old warning survives *)
  let diags =
    lint_src "variables { int w = 5; byte b = 7; }\n\
              on timer t { w = 30000; }\n\
              on start { b = w; }\n"
  in
  check_bool "cross-handler hazard still warns" true (has "CAPL008" diags)

let test_capl_taint_secret () =
  (* CAPL101: a secret-named global reaching output() unencrypted *)
  let diags =
    lint_src "variables { message Req mReq; int netKey = 42; }\n\
              on start { mReq.cmd = netKey; output(mReq); }\n"
  in
  check_bool "plaintext key leak flagged" true (has "CAPL101" diags);
  (* routing it through a sanitizer-named call clears the taint *)
  let diags =
    lint_src "variables { message Req mReq; int netKey = 42; }\n\
              on start { mReq.cmd = encryptByte(netKey); output(mReq); }\n"
  in
  check_int "encrypted key is clean" 0 (count_code "CAPL101" diags)

let test_capl_taint_verify () =
  (* CAPL102 on the paper's case study: the tag-skipping ECU forwards
     this.version on every path without calling valid(), the conformant
     one guards every use — the flaw the 63 s corpus check rejects
     dynamically is caught here statically. *)
  let parse srcs =
    List.map (fun (n, src) -> n, Capl.Parser.program src) srcs
  in
  let flawed = Capl_lint.lint_nodes (parse Ota.Capl_sources.sources_flawed) in
  check_int "both unverified outputs flagged" 2
    (count_code "CAPL102" flawed);
  check_bool "attributed to the ECU node" true
    (List.for_all
       (fun d -> d.Diag.code <> "CAPL102" || d.Diag.file = Some "ECU")
       flawed);
  let fixed = Capl_lint.lint_nodes (parse Ota.Capl_sources.sources) in
  check_int "conformant firmware draws no taint diagnostics" 0
    (count_code "CAPL101" fixed + count_code "CAPL102" fixed)

let test_capl_dead_code () =
  let diags = lint_src "void f() { return; f(); }\non start { f(); }\n" in
  check_bool "statement after return" true (has "CAPL007" diags);
  let diags =
    lint_src "void f() { while (1) { break; f(); } }\non start { f(); }\n"
  in
  check_bool "statement after break" true (has "CAPL007" diags)

let test_capl_narrowing () =
  let diags = lint_src "variables { byte b = 300; }\non start { b = 1; }\n" in
  check_bool "narrowing initialiser" true (has "CAPL008" diags);
  let diags =
    lint_src "variables { byte b = 7; int w = 70000; }\n\
              on start { b = w; }\n"
  in
  check_bool "narrowing assignment" true (has "CAPL008" diags);
  let diags = lint_src "variables { byte b = 255; }\non start { b = 0; }\n" in
  check_int "fitting literal is clean" 0 (count_code "CAPL008" diags)

let test_capl_unused () =
  let diags =
    lint_src "variables { int used = 1; int unused = 2; }\n\
              on start { used = used + 1; }\n"
  in
  check_int "exactly the unused global" 1 (count_code "CAPL009" diags);
  check_bool "CAPL009 is info" true
    (List.for_all
       (fun d -> d.Diag.code <> "CAPL009" || d.Diag.severity = Diag.Info)
       diags);
  let diags = lint_src "on start { int local; }\n" in
  check_bool "unused local flagged" true (has "CAPL009" diags)

let test_capl_positions_and_file () =
  let diags =
    lint_src "variables {\n  timer tick;\n}\non start { setTimer(tick, 5); }\n"
  in
  (match List.find_opt (fun d -> d.Diag.code = "CAPL004") diags with
   | None -> Alcotest.fail "expected CAPL004"
   | Some d ->
     check_string "node name as file" "node" (Option.get d.Diag.file);
     (* the handler starts on line 4 *)
     check_int "nearest enclosing position" 4
       (Option.get d.Diag.pos).Diag.line)

let test_capl_stock_sources_clean () =
  let db = Candb.To_capl.msgdb (Candb.Dbc_parser.parse Ota.Capl_sources.dbc) in
  let diags =
    Capl_lint.lint_nodes ~db
      (List.map
         (fun (n, src) -> n, Capl.Parser.program src)
         Ota.Capl_sources.sources)
  in
  let blocking =
    List.filter (fun d -> d.Diag.severity <> Diag.Info) diags
  in
  check_int
    (Format.asprintf "OTA sources lint without errors or warnings: %a"
       Diag.pp_list blocking)
    0 (List.length blocking)

(* ------------------------------------------------------------------ *)
(* CSPm analysis                                                       *)
(* ------------------------------------------------------------------ *)

let load = Cspm.Elaborate.load_string

let analyze_src src = Cspm_analyze.analyze_loaded ~file:"s.csp" (load src)

let test_cspm_unguarded () =
  let diags =
    analyze_src
      "channel a : {0..2}\nP = P [] a!1 -> P\nassert P :[deadlock free]\n"
  in
  check_bool "direct unguarded self-call" true (has "CSPM001" diags);
  (* mutual unguarded recursion through another definition *)
  let diags =
    analyze_src
      "channel a : {0..2}\n\
       P = Q\n\
       Q = P [] a!1 -> Q\n\
       assert P :[deadlock free]\n"
  in
  check_int "both cycle members flagged" 2 (count_code "CSPM001" diags);
  (* guarded recursion is clean, including through sequencing *)
  let diags =
    analyze_src
      "channel a : {0..2}\n\
       P = a!1 -> P\n\
       Q = a?x -> SKIP ; Q\n\
       assert P :[deadlock free]\n"
  in
  check_int "guarded recursion is clean" 0 (count_code "CSPM001" diags)

let test_cspm_impossible_sync () =
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       channel b : {0..1}\n\
       P = a!0 -> P\n\
       Q = b!0 -> Q\n\
       SYS = P [| {| a, b |} |] Q\n\
       assert SYS :[deadlock free]\n"
  in
  check_int "one per starved side" 2 (count_code "CSPM002" diags);
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       P = a!0 -> P\n\
       Q = a?x -> Q\n\
       SYS = P [| {| a |} |] Q\n\
       assert SYS :[deadlock free]\n"
  in
  check_int "honest sync is clean" 0 (count_code "CSPM002" diags)

let test_cspm_unreachable () =
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       P = a!0 -> P\n\
       ORPHAN = a!1 -> ORPHAN\n\
       assert P :[deadlock free]\n"
  in
  check_int "orphan flagged once" 1 (count_code "CSPM003" diags);
  check_bool "the root itself is reachable" true
    (List.for_all
       (fun d ->
         d.Diag.code <> "CSPM003"
         || Helpers.contains d.Diag.message "ORPHAN")
       diags);
  (* no assertions: the check stays quiet rather than flagging everything *)
  let diags = analyze_src "channel a : {0..1}\nP = a!0 -> P\n" in
  check_int "no roots, no CSPM003" 0 (count_code "CSPM003" diags)

let test_cspm_dead_channel () =
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       channel ghost : {0..1}\n\
       P = a!0 -> P\n\
       assert P :[deadlock free]\n"
  in
  check_int "dead channel flagged" 1 (count_code "CSPM004" diags);
  (match List.find_opt (fun d -> d.Diag.code = "CSPM004") diags with
   | Some d ->
     check_bool "names the channel" true
       (Helpers.contains d.Diag.message "ghost");
     check_int "position of the declaration" 2
       (Option.get d.Diag.pos).Diag.line
   | None -> Alcotest.fail "expected CSPM004")

let test_cspm_unbounded_data () =
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       P(n) = a!0 -> P(n + 1)\n\
       assert P(0) :[deadlock free]\n"
  in
  check_bool "growing parameter flagged" true (has "CSPM005" diags);
  let diags =
    analyze_src
      "channel a : {0..1}\n\
       P(n) = a!0 -> P((n + 1) % 4)\n\
       assert P(0) :[deadlock free]\n"
  in
  check_int "mod-bounded recursion is clean" 0 (count_code "CSPM005" diags)

(* Purity: running the analysis does not perturb the checker. Verdicts and
   counterexamples must match exactly, analysis or not. *)
let test_cspm_verdicts_unchanged () =
  let src =
    "channel a : {0..1}\n\
     channel ghost : {0..1}\n\
     P = a!0 -> STOP\n\
     SPEC = a!0 -> STOP\n\
     DEAD = a!0 -> a!1 -> STOP\n\
     assert SPEC [T= P\n\
     assert DEAD [T= P\n\
     assert P :[deadlock free]\n"
  in
  let digest loaded =
    List.map
      (fun (o : Cspm.Check.outcome) ->
        let verdict =
          match o.Cspm.Check.result with
          | Csp.Refine.Holds _ -> "holds"
          | Csp.Refine.Fails cex ->
            Format.asprintf "fails %a" Csp.Refine.pp_counterexample cex
          | Csp.Refine.Inconclusive _ -> "inconclusive"
        in
        Format.asprintf "%a => %s" Cspm.Print.pp_assertion
          o.Cspm.Check.assertion verdict)
      (Cspm.Check.run loaded)
  in
  let plain = digest (load src) in
  let linted =
    let loaded = load src in
    let diags = Cspm_analyze.analyze_loaded loaded in
    check_bool "fixture does produce diagnostics" true (diags <> []);
    digest loaded
  in
  Alcotest.(check (list string))
    "verdicts and counterexamples identical" plain linted

let test_obs_instrumentation () =
  let tmp = Filename.temp_file "analysis" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      let obs = Obs.create (Obs.Jsonl oc) in
      let diags =
        Cspm_analyze.analyze_loaded ~obs
          (load "channel a : {0..1}\nP = P\nassert P :[deadlock free]\n")
      in
      Obs.flush obs;
      close_out oc;
      check_bool "found something" true (diags <> []);
      let ic = open_in_bin tmp in
      let stream =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_bool "span recorded" true
        (Helpers.contains stream "\"name\":\"analysis.cspm\"");
      check_int "diag counter matches" (List.length diags)
        (Obs.counter_value (Obs.counter obs "analysis.diags")))

(* ------------------------------------------------------------------ *)
(* Robustness properties                                               *)
(* ------------------------------------------------------------------ *)

(* Any process term: the analyzer returns (possibly empty) diagnostics,
   never raises — even on terms with impossible syncs, empty hides, etc. *)
let cspm_never_raises =
  QCheck.Test.make ~count:200 ~name:"cspm analysis total on random processes"
    Helpers.arb_proc (fun p ->
      let defs = Helpers.make_defs () in
      Csp.Defs.define_proc defs "MAIN" [] p;
      let _ = Cspm_analyze.analyze ~roots:[ "MAIN" ] defs in
      true)

(* Random CAPL programs assembled directly as ASTs, unconstrained by the
   parser: undeclared identifiers, self-assignments, nested dead code,
   bogus selectors. The linter must stay total. *)
let gen_capl_program : Capl.Ast.program QCheck.Gen.t =
  let open QCheck.Gen in
  let open Capl.Ast in
  let pos = { line = 1; col = 1 } in
  let ident = oneofl [ "x"; "y"; "g"; "mReq"; "tick"; "foo" ] in
  let ty =
    oneofl
      [
        T_int; T_byte; T_word; T_long; T_char; T_timer; T_ms_timer;
        T_message (Msg_name "Req"); T_message (Msg_id 256); T_message Msg_any;
      ]
  in
  let expr =
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun i -> E_int i) (int_range (-70000) 70000);
                 map (fun v -> E_ident v) ident;
                 return E_this;
               ]
           else
             oneof
               [
                 map2 (fun v e -> E_assign (A_eq, E_ident v, e)) ident
                   (self (n - 1));
                 map2 (fun a b -> E_binop (B_add, a, b)) (self (n / 2))
                   (self (n / 2));
                 map (fun v -> E_member (E_ident v, "cmd")) ident;
                 map2
                   (fun f args -> E_call (f, args))
                   (oneofl
                      [ "output"; "setTimer"; "cancelTimer"; "foo";
                        "helper" ])
                   (list_size (int_range 0 2) (self (n / 2)));
               ])
  in
  let decl =
    map3
      (fun t v init ->
        { var_ty = t; var_name = v; var_dims = []; var_init = init;
          var_pos = pos })
      ty ident (option expr)
  in
  let stmt =
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun e -> S_expr e) expr;
                 map (fun d -> S_decl [ d ]) decl;
                 return S_break;
                 return S_continue;
                 map (fun e -> S_return e) (option expr);
               ]
           else
             oneof
               [
                 map3
                   (fun c a b -> S_if (c, a, b))
                   expr (self (n / 2)) (option (self (n / 2)));
                 (* every loop shape: cond None/Some x test_first x step *)
                 map2
                   (fun (cond, test_first) (step, body) ->
                     S_loop { cond; body; step; test_first })
                   (pair (option expr) bool)
                   (pair (option expr) (self (n - 1)));
                 map2
                   (fun e cases -> S_switch (e, cases))
                   expr
                   (list_size (int_range 0 3)
                      (map2
                         (fun l b -> { case_label = l; case_body = b })
                         (option expr)
                         (list_size (int_range 0 2) (self (n / 2)))));
                 map (fun ss -> S_block ss)
                   (list_size (int_range 0 3) (self (n / 2)));
               ])
  in
  let body = list_size (int_range 0 4) stmt in
  let event =
    oneofl
      [
        Ev_start; Ev_prestart; Ev_stop; Ev_key 'k'; Ev_timer "tick";
        Ev_message (Msg_name "Req"); Ev_message (Msg_id 512);
        Ev_message Msg_any;
      ]
  in
  let handler =
    map2 (fun e b -> { event = e; body = b; handler_pos = pos }) event body
  in
  let func =
    map2
      (fun name b ->
        { fn_ret = T_void; fn_name = name; fn_params = [ T_int, "p" ];
          fn_body = b; fn_pos = pos })
      (oneofl [ "foo"; "helper" ])
      body
  in
  map3
    (fun vars handlers funcs ->
      { includes = []; variables = vars; handlers; functions = funcs })
    (list_size (int_range 0 3) decl)
    (list_size (int_range 0 3) handler)
    (list_size (int_range 0 2) func)

let arb_capl_program =
  QCheck.make
    ~print:(fun (p : Capl.Ast.program) ->
      Printf.sprintf "<program: %d vars, %d handlers, %d functions>"
        (List.length p.Capl.Ast.variables)
        (List.length p.Capl.Ast.handlers)
        (List.length p.Capl.Ast.functions))
    gen_capl_program

let capl_never_raises =
  QCheck.Test.make ~count:200 ~name:"capl lint total on random programs"
    arb_capl_program (fun prog ->
      let _ = Capl_lint.lint prog in
      let _ = Capl_lint.lint ~db:(demo_db ()) prog in
      true)

(* The dataflow passes on their own: every solve — CFG fixpoints, the
   interprocedural summary rounds, the cross-handler global round — is
   bounded, so the analyses return on any program the generator can
   assemble (loops, switches with fallthrough, recursive "helper"
   calls) rather than iterating forever or raising. *)
let capl_dataflow_terminates =
  QCheck.Test.make ~count:200
    ~name:"capl dataflow fixpoints terminate on random programs"
    arb_capl_program (fun prog ->
      let _ = Valueflow.check prog in
      let _ = Taint.check prog in
      true)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "Diag ordering, blocking, pp" `Quick test_diag_basics;
      Alcotest.test_case "Diag severity tiebreak" `Quick
        test_diag_severity_tiebreak;
      Alcotest.test_case "Diag JSON document" `Quick test_diag_json;
      Alcotest.test_case "CAPL001 unknown message" `Quick
        test_capl_unknown_message;
      Alcotest.test_case "CAPL002/003 message flow" `Quick
        test_capl_message_flow;
      Alcotest.test_case "CAPL004/005 timers" `Quick test_capl_timers;
      Alcotest.test_case "CAPL006 use before init" `Quick
        test_capl_use_before_init;
      Alcotest.test_case "CAPL006 path-sensitive init" `Quick
        test_capl_path_sensitive_init;
      Alcotest.test_case "CAPL007 dead code" `Quick test_capl_dead_code;
      Alcotest.test_case "CAPL008 narrowing" `Quick test_capl_narrowing;
      Alcotest.test_case "CAPL008 interval gating" `Quick
        test_capl_interval_narrowing;
      Alcotest.test_case "CAPL101 secret leak" `Quick test_capl_taint_secret;
      Alcotest.test_case "CAPL102 unverified payload" `Quick
        test_capl_taint_verify;
      Alcotest.test_case "CAPL009 unused variables" `Quick test_capl_unused;
      Alcotest.test_case "positions and node labels" `Quick
        test_capl_positions_and_file;
      Alcotest.test_case "stock OTA sources lint clean" `Quick
        test_capl_stock_sources_clean;
      Alcotest.test_case "CSPM001 unguarded recursion" `Quick
        test_cspm_unguarded;
      Alcotest.test_case "CSPM002 impossible sync" `Quick
        test_cspm_impossible_sync;
      Alcotest.test_case "CSPM003 unreachable defs" `Quick
        test_cspm_unreachable;
      Alcotest.test_case "CSPM004 dead channels" `Quick test_cspm_dead_channel;
      Alcotest.test_case "CSPM005 unbounded data" `Quick
        test_cspm_unbounded_data;
      Alcotest.test_case "verdicts unchanged by analysis" `Quick
        test_cspm_verdicts_unchanged;
      Alcotest.test_case "obs span and counter" `Quick test_obs_instrumentation;
      QCheck_alcotest.to_alcotest cspm_never_raises;
      QCheck_alcotest.to_alcotest capl_never_raises;
      QCheck_alcotest.to_alcotest capl_dataflow_terminates;
    ] )
