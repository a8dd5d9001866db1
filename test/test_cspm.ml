(* Tests for the CSPm front end: lexing, parsing, elaboration, printing
   (round trip), and assertion checking. *)

open Cspm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map fst (Lexer.tokens src)

let test_lexer_symbols () =
  check_int "dense symbols"
    (List.length
       [ Lexer.EXTCHOICE; Lexer.INTCHOICE; Lexer.INTERLEAVE; Lexer.LINTERFACE;
         Lexer.RINTERFACE; Lexer.LCHANSET; Lexer.RCHANSET; Lexer.REFINES_T;
         Lexer.REFINES_F; Lexer.EOF ])
    (List.length (toks "[] |~| ||| [| |] {| |} [T= [F="));
  (match toks "a -> b" with
   | [ Lexer.IDENT "a"; Lexer.ARROW; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "arrow lexing");
  match toks "P [[ a <- b ]]" with
  | [ Lexer.IDENT "P"; Lexer.LRENAME; Lexer.IDENT "a"; Lexer.LARROW;
      Lexer.IDENT "b"; Lexer.RRENAME; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "rename lexing"

let test_lexer_comments () =
  (match toks "a -- comment\nb" with
   | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "line comment");
  (match toks "a {- x {- nested -} y -} b" with
   | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "nested block comment");
  try
    ignore (toks "{- unterminated");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error _ -> ()

let test_lexer_positions () =
  match Lexer.tokens "a\n  b" with
  | [ (_, p1); (_, p2); _ ] ->
    check_int "line 1" 1 p1.Ast.line;
    check_int "line 2" 2 p2.Ast.line;
    check_int "col 3" 3 p2.Ast.col
  | _ -> Alcotest.fail "token count"

(* A literal wider than the native int must be a positioned lexical
   error, not an uncaught [Failure "int_of_string"]. *)
let test_lexer_int_overflow () =
  (match toks (string_of_int max_int) with
   | [ Lexer.NUM n; Lexer.EOF ] -> check_int "max_int still lexes" max_int n
   | _ -> Alcotest.fail "max_int lexing");
  try
    ignore (Lexer.tokens "P = c!99999999999999999999 -> STOP");
    Alcotest.fail "expected Lex_error"
  with Lexer.Lex_error (msg, pos) ->
    check_bool "message names the literal" true
      (Helpers.contains msg "99999999999999999999");
    check_bool "message says out of range" true (Helpers.contains msg "out of range");
    check_int "error line" 1 pos.Ast.line;
    check_int "error col is the token start" 7 pos.Ast.col

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_precedence () =
  (* ; binds tighter than [], which binds tighter than |||, loosest \ *)
  (match Parser.term "P; Q [] R" with
   | Ast.T_extchoice (Ast.T_seq _, Ast.T_id "R") -> ()
   | t -> Alcotest.failf "seq vs choice: %a" Print.pp_term t);
  (match Parser.term "P [] Q ||| R" with
   | Ast.T_interleave (Ast.T_extchoice _, Ast.T_id "R") -> ()
   | t -> Alcotest.failf "choice vs interleave: %a" Print.pp_term t);
  (match Parser.term "P ||| Q \\ {| a |}" with
   | Ast.T_hide (Ast.T_interleave _, _) -> ()
   | t -> Alcotest.failf "hide loosest: %a" Print.pp_term t);
  match Parser.term "a -> b -> STOP [] c -> STOP" with
  | Ast.T_extchoice (Ast.T_prefix _, Ast.T_prefix _) -> ()
  | t -> Alcotest.failf "prefix vs choice: %a" Print.pp_term t

let test_parse_prefix_fields () =
  match Parser.term "c!1?x:{0..2}.y -> STOP" with
  | Ast.T_prefix ({ Ast.chan = "c"; fields }, Ast.T_stop) ->
    (match fields with
     | [ Ast.F_out (Ast.T_num 1);
         Ast.F_in ("x", Some (Ast.T_range (Ast.T_num 0, Ast.T_num 2)));
         Ast.F_dot (Ast.T_id "y") ] -> ()
     | _ -> Alcotest.fail "field shapes")
  | _ -> Alcotest.fail "prefix shape"

let test_parse_backtracking () =
  (* an identifier that is not a communication parses as an expression *)
  (match Parser.term "x + 1" with
   | Ast.T_bin (Ast.B_add, Ast.T_id "x", Ast.T_num 1) -> ()
   | _ -> Alcotest.fail "expression after failed comm parse");
  match Parser.term "f(1, 2)" with
  | Ast.T_app ("f", [ Ast.T_num 1; Ast.T_num 2 ]) -> ()
  | _ -> Alcotest.fail "application"

let test_parse_declarations () =
  let script =
    Parser.script
      "datatype D = x | y.{0..1}\n\
       nametype N = {1..4}\n\
       channel c, d : D.N\n\
       P(n) = c!x!n -> P(n)\n\
       assert P(1) [T= P(1)\n\
       assert P(1) :[deadlock free [F]]\n\
       assert P(1) :[divergence free]"
  in
  check_int "declaration count" 7 (List.length script.Ast.decls)

let test_parse_replicated () =
  match Parser.term "[] x : {0..3} @ c!x -> STOP" with
  | Ast.T_repl (Ast.R_ext, "x", Ast.T_range _, Ast.T_prefix _) -> ()
  | _ -> Alcotest.fail "replicated external choice"

let test_parse_errors_have_positions () =
  try
    ignore (Parser.script "channel c :");
    Alcotest.fail "expected Parse_error"
  with Parser.Parse_error (_, pos) -> check_bool "line known" true (pos.Ast.line >= 1)

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

let ota_script =
  {q|
datatype Msg = reqSw | rptSw | reqApp | rptUpd
channel send : Msg
channel rec : Msg
double(x) = x + x
SP02 = send!reqSw -> rec!rptSw -> SP02
VMG = send!reqSw -> rec?r -> VMG
ECU = send?m -> rec!rptSw -> ECU
SYSTEM = VMG [| {| send, rec |} |] ECU
assert SP02 [T= SYSTEM
|q}

let test_elaborate_classification () =
  let loaded = Elaborate.load_string ota_script in
  let defs = loaded.Elaborate.defs in
  check_bool "SP02 is a process" true (Option.is_some (Csp.Defs.proc defs "SP02"));
  check_bool "SYSTEM is a process" true (Option.is_some (Csp.Defs.proc defs "SYSTEM"));
  check_bool "double is a function" true (Option.is_some (Csp.Defs.fenv defs "double"));
  check_bool "double is not a process" true (Option.is_none (Csp.Defs.proc defs "double"))

let test_elaborate_errors () =
  let expect_error src =
    try
      ignore (Elaborate.load_string src);
      Alcotest.failf "expected Elab_error for %s" src
    with Elaborate.Elab_error _ -> ()
  in
  expect_error "P = undeclared!1 -> STOP";
  expect_error "channel c : {0..1}\nP = c!1 -> Q";
  expect_error "channel c : Int\nP = c?x -> STOP";
  expect_error "channel c : {0..1}\nP = c!1 -> STOP\nP = STOP"

let test_check_assertions () =
  let loaded = Elaborate.load_string ota_script in
  let outcomes = Check.run loaded in
  check_int "one assertion" 1 (List.length outcomes);
  check_bool "SP02 holds" true (Check.all_pass outcomes)

let test_counterexample_through_cspm () =
  let bad =
    ota_script ^ "\nBAD = send?m -> rec!rptUpd -> BAD\nassert SP02 [T= VMG [| {| send, rec |} |] BAD"
  in
  let outcomes = Check.run (Elaborate.load_string bad) in
  check_bool "flaw found" false (Check.all_pass outcomes)

(* ------------------------------------------------------------------ *)
(* Budget slicing and scheduling                                       *)
(* ------------------------------------------------------------------ *)

let test_slice_arithmetic () =
  let check_float = Alcotest.(check (float 1e-9)) in
  check_float "even split" 2.5 (Check.slice ~remaining_wall:10.0 ~remaining:4);
  check_float "last assertion gets everything" 9.0
    (Check.slice ~remaining_wall:9.0 ~remaining:1);
  check_float "overspent budget clamps to zero" 0.0
    (Check.slice ~remaining_wall:(-3.0) ~remaining:2);
  check_float "no assertions left passes the wall through" 7.0
    (Check.slice ~remaining_wall:7.0 ~remaining:0)

(* Nine trivial assertions followed by one that actually has to search:
   under the old fixed up-front split the hard one only ever saw a tenth
   of the budget; with rolling slices the time the trivial ones leave
   unused carries forward and the whole script passes under one
   --timeout. *)
let rolling_script =
  let trivial = "assert T [T= T\n" in
  "channel c : {0..9}\n\
   P(n) = c!n -> P((n+1)%10)\n\
   T = c?x -> T\n\
   SYS = P(0) ||| P(2) ||| P(4) ||| P(6)\n"
  ^ String.concat "" (List.init 9 (fun _ -> trivial))
  ^ "assert T [T= SYS\n"

let test_rolling_budget () =
  let loaded = Elaborate.load_string rolling_script in
  let outcomes = Check.run ~config:Csp.Check_config.(default |> with_deadline 60.0) loaded in
  check_int "ten assertions" 10 (List.length outcomes);
  check_bool "all pass under one rolling budget" true (Check.all_pass outcomes)

(* Without a deadline, [run ~workers] schedules whole assertions onto
   idle domains; outcomes must come back in script order and render to
   the same cspm-check/1 bytes as the sequential run, counterexample
   traces included. Only the two timing fields are masked. *)
let test_concurrent_run_matches_sequential () =
  let script =
    ota_script
    ^ "\nBAD = send?m -> rec!rptUpd -> BAD\n\
       assert SP02 [T= VMG [| {| send, rec |} |] BAD\n\
       assert SYSTEM :[deadlock free [F]]"
  in
  let rec mask_timing = function
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "wall_s" | "states_per_sec" -> k, Obs.Json.Null
             | _ -> k, mask_timing v)
           fields)
    | Obs.Json.List items -> Obs.Json.List (List.map mask_timing items)
    | v -> v
  in
  let rendered outcomes =
    List.mapi
      (fun i o -> Obs.Json.to_string (mask_timing (Check.json_of_outcome i o)))
      outcomes
  in
  let loaded = Elaborate.load_string script in
  let seq = Check.run loaded in
  check_bool "the script has a failing assertion" true (Check.any_fails seq);
  let expected = rendered seq in
  List.iter
    (fun w ->
      let par =
        Check.run ~config:Csp.Check_config.(default |> with_workers w) loaded
      in
      Alcotest.(check (list string))
        (Printf.sprintf "workers=%d report bytes in script order" w)
        expected (rendered par))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Printing round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_script_roundtrip () =
  let loaded = Elaborate.load_string ota_script in
  let printed =
    Print.script
      ~assertions:(List.map fst loaded.Elaborate.assertions)
      loaded.Elaborate.defs
  in
  let reloaded = Elaborate.load_string printed in
  check_bool "assertions survive" true
    (List.length reloaded.Elaborate.assertions
     = List.length loaded.Elaborate.assertions);
  check_bool "still checks" true (Check.all_pass (Check.run reloaded))

(* Printing a random process and parsing it back yields a process with
   the same traces. *)
let print_parse_roundtrip =
  QCheck.Test.make ~count:150 ~name:"print/parse round trip preserves traces"
    Helpers.arb_proc (fun p ->
      let defs = Helpers.make_defs () in
      let printed = Print.proc_to_string p in
      let term = Parser.term printed in
      (* reuse the loaded environment only for channels *)
      let loaded =
        Elaborate.load_string
          "channel a : {0..2}\nchannel b : {0..2}\nchannel c : {0..1}\nchannel done_"
      in
      let q = Elaborate.proc_of_term loaded term in
      let t1 = Csp.Traces.of_lts ~depth:3 (Csp.Lts.compile defs p) in
      let t2 =
        Csp.Traces.of_lts ~depth:3 (Csp.Lts.compile loaded.Elaborate.defs q)
      in
      if Csp.Traces.subset t1 t2 && Csp.Traces.subset t2 t1 then true
      else
        QCheck.Test.fail_reportf "printed %s@.got different traces" printed)

let suite =
  ( "cspm",
    [
      Alcotest.test_case "lexer symbols" `Quick test_lexer_symbols;
      Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
      Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
      Alcotest.test_case "int literal overflow" `Quick test_lexer_int_overflow;
      Alcotest.test_case "budget slice arithmetic" `Quick test_slice_arithmetic;
      Alcotest.test_case "rolling timeout budget" `Quick test_rolling_budget;
      Alcotest.test_case "concurrent run matches sequential" `Quick
        test_concurrent_run_matches_sequential;
      Alcotest.test_case "operator precedence" `Quick test_parse_precedence;
      Alcotest.test_case "prefix fields" `Quick test_parse_prefix_fields;
      Alcotest.test_case "expression backtracking" `Quick test_parse_backtracking;
      Alcotest.test_case "declarations" `Quick test_parse_declarations;
      Alcotest.test_case "replicated operators" `Quick test_parse_replicated;
      Alcotest.test_case "parse errors carry positions" `Quick
        test_parse_errors_have_positions;
      Alcotest.test_case "process/function classification" `Quick
        test_elaborate_classification;
      Alcotest.test_case "elaboration errors" `Quick test_elaborate_errors;
      Alcotest.test_case "assertion checking" `Quick test_check_assertions;
      Alcotest.test_case "counterexamples through CSPm" `Quick
        test_counterexample_through_cspm;
      Alcotest.test_case "script round trip" `Quick test_script_roundtrip;
      QCheck_alcotest.to_alcotest print_parse_roundtrip;
    ] )
