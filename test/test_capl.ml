(* Tests for the CAPL front end: lexer, parser, semantic checks. *)

open Capl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let toks src = List.map fst (Lexer.tokens src)

let test_lexer_literals () =
  (match toks "0x1A3 42 2.5 'x' \"hi\\n\"" with
   | [ Lexer.INT 0x1A3; Lexer.INT 42; Lexer.FLOAT 2.5; Lexer.CHAR 'x';
       Lexer.STRING "hi\n"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "literal lexing");
  match toks "a++ --b a<<=2" with
  | [ Lexer.IDENT "a"; Lexer.PLUSPLUS; Lexer.MINUSMINUS; Lexer.IDENT "b";
      Lexer.IDENT "a"; Lexer.SHL_ASSIGN; Lexer.INT 2; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing"

(* Literals wider than the native int (or float) must surface as
   positioned lexical errors, not as an uncaught [Failure]. *)
let test_lexer_literal_overflow () =
  (try
     ignore (toks "x = 99999999999999999999;");
     Alcotest.fail "expected Lex_error on decimal overflow"
   with Lexer.Lex_error (msg, pos) ->
     check_bool "decimal message" true (Helpers.contains msg "out of range");
     check_int "decimal line" 1 pos.Ast.line;
     check_int "decimal col is the token start" 5 pos.Ast.col);
  try
    ignore (toks "x = 0xFFFFFFFFFFFFFFFFFF;");
    Alcotest.fail "expected Lex_error on hex overflow"
  with Lexer.Lex_error (msg, pos) ->
    check_bool "hex message" true (Helpers.contains msg "out of range");
    check_bool "hex message names the literal" true
      (Helpers.contains msg "0xFFFFFFFFFFFFFFFFFF");
    check_int "hex col is the token start" 5 pos.Ast.col

let test_lexer_comments_include () =
  (match toks "a // line\n/* block\nmore */ b" with
   | [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ] -> ()
   | _ -> Alcotest.fail "comments");
  match toks "#include \"common.cin\"" with
  | [ Lexer.HASH_INCLUDE "common.cin"; Lexer.EOF ] -> ()
  | _ -> Alcotest.fail "include"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_program_structure () =
  let prog =
    Parser.program
      {|
includes { #include "shared.cin" }
variables {
  int counter = 0;
  msTimer t1;
  message EngineData msg1;
  byte buf[8];
}
on start { counter = 1; }
on timer t1 { counter++; }
on key 'r' { counter = 0; }
on message EngineData { counter = counter + 1; }
on message 0x1A0 { }
on message * { }
int helper(int a, int b) { return a + b; }
|}
  in
  check_int "includes" 1 (List.length prog.Ast.includes);
  check_int "variables" 4 (List.length prog.Ast.variables);
  check_int "handlers" 6 (List.length prog.Ast.handlers);
  check_int "functions" 1 (List.length prog.Ast.functions);
  (* message selector variety *)
  let selectors =
    List.filter_map
      (fun h ->
        match h.Ast.event with Ast.Ev_message s -> Some s | _ -> None)
      prog.Ast.handlers
  in
  check_int "three message handlers" 3 (List.length selectors);
  check_bool "named" true (List.mem (Ast.Msg_name "EngineData") selectors);
  check_bool "by id" true (List.mem (Ast.Msg_id 0x1A0) selectors);
  check_bool "wildcard" true (List.mem Ast.Msg_any selectors);
  (* array dims *)
  let buf = List.find (fun v -> v.Ast.var_name = "buf") prog.Ast.variables in
  Alcotest.(check (list int)) "dims" [ 8 ] buf.Ast.var_dims

let test_parse_expressions () =
  (match Parser.expr "a = b ? 1 + 2 * 3 : x[4].sig" with
   | Ast.E_assign (Ast.A_eq, Ast.E_ident "a", Ast.E_ternary (_, _, _)) -> ()
   | _ -> Alcotest.fail "assignment of ternary");
  (match Parser.expr "this.byte(0) | mask" with
   | Ast.E_binop (Ast.B_bor, Ast.E_method (Ast.E_this, "byte", [ Ast.E_int 0 ]), _) -> ()
   | _ -> Alcotest.fail "method call and bitor");
  match Parser.expr "a << 2 == 8 && !done" with
  | Ast.E_binop (Ast.B_land, Ast.E_binop (Ast.B_eq, Ast.E_binop (Ast.B_shl, _, _), _), Ast.E_unop (Ast.U_not, _)) -> ()
  | _ -> Alcotest.fail "C precedence"

let test_parse_statements () =
  (match Parser.stmt "for (i = 0; i < 8; i++) total += i;" with
   | Ast.S_block
       [ Ast.S_expr _;
         Ast.S_loop
           { cond = Some _; body = Ast.S_expr _; step = Some _;
             test_first = true } ] -> ()
   | _ -> Alcotest.fail "for");
  (match Parser.stmt "for (;;) break;" with
   | Ast.S_block
       [ Ast.S_loop
           { cond = None; body = Ast.S_break; step = None; test_first = true }
       ] -> ()
   | _ -> Alcotest.fail "for (;;)");
  (match Parser.stmt "while (x) x--;" with
   | Ast.S_loop { cond = Some _; step = None; test_first = true; _ } -> ()
   | _ -> Alcotest.fail "while");
  (match Parser.stmt "switch (x) { case 1: a = 1; break; default: a = 2; }" with
   | Ast.S_switch (_, [ { Ast.case_label = Some _; _ }; { Ast.case_label = None; _ } ]) -> ()
   | _ -> Alcotest.fail "switch");
  (match Parser.stmt "do { x--; } while (x > 0);" with
   | Ast.S_loop
       { cond = Some _; body = Ast.S_block _; step = None; test_first = false }
     -> ()
   | _ -> Alcotest.fail "do-while");
  match Parser.stmt "if (a) b = 1; else { b = 2; c = 3; }" with
  | Ast.S_if (_, _, Some (Ast.S_block [ _; _ ])) -> ()
  | _ -> Alcotest.fail "if-else"

let test_parse_errors () =
  try
    ignore (Parser.program "on message { }");
    Alcotest.fail "expected Parse_error"
  with Parser.Parse_error (_, _) -> ()

(* ------------------------------------------------------------------ *)
(* Semantic checks                                                     *)
(* ------------------------------------------------------------------ *)

let db =
  Msgdb.of_messages
    [
      { Msgdb.msg_name = "EngineData"; msg_id = 0x1A0; msg_dlc = 8;
        signals =
          [ { Msgdb.sig_name = "speed"; start_bit = 0; length = 16;
              byte_order = Msgdb.Little_endian; signed = false;
              minimum = 0; maximum = 0 } ] };
    ]

let errors_of src = Sem.check ~db (Parser.program src)

let test_sem_clean_program () =
  let errs =
    errors_of
      {|
variables { int n = 0; message EngineData m; msTimer t; }
on start { setTimer(t, 100); }
on timer t { n++; output(m); }
on message EngineData { n = this.speed; }
|}
  in
  Alcotest.(check (list string)) "no errors" []
    (List.map (fun e -> e.Sem.message) errs)

let expect_error src fragment =
  let errs = errors_of src in
  check_bool
    (Printf.sprintf "expected error mentioning %S" fragment)
    true
    (List.exists
       (fun e ->
         let msg = e.Sem.message in
         let rec contains i =
           i + String.length fragment <= String.length msg
           && (String.sub msg i (String.length fragment) = fragment
               || contains (i + 1))
         in
         contains 0)
       errs)

let test_sem_errors () =
  expect_error "on start { undeclared = 1; }" "undeclared";
  expect_error "variables { int x; int x; }" "duplicate";
  expect_error "on start { break; }" "break";
  expect_error "variables { int x; } on start { output(x); }" "message";
  expect_error "variables { int x; } on start { setTimer(x, 5); }" "timer";
  expect_error "int f() { return; }" "without a value";
  expect_error "void f() { this.speed = 1; }" "'this'";
  expect_error "variables { message Bogus m; } on start { }" "unknown message";
  expect_error "on message EngineData { x = this.rpm; }" "no signal";
  expect_error "on start { 1 = 2; }" "non-lvalue";
  (* a switch takes break but not continue: that needs a loop *)
  expect_error "on key 'a' { switch (1) { case 1: continue; } }" "continue";
  expect_error "void f() { switch (1) { case 1: continue; } }" "continue";
  Alcotest.(check (list string)) "continue through a switch in a loop" []
    (List.map
       (fun e -> e.Sem.message)
       (errors_of
          "on key 'a' { int i; for (i = 0; i < 3; i++) { switch (i) { case \
           1: continue; default: break; } } }"))

let suite =
  ( "capl",
    [
      Alcotest.test_case "lexer literals and operators" `Quick test_lexer_literals;
      Alcotest.test_case "literal overflow" `Quick test_lexer_literal_overflow;
      Alcotest.test_case "lexer comments and includes" `Quick
        test_lexer_comments_include;
      Alcotest.test_case "program structure" `Quick test_parse_program_structure;
      Alcotest.test_case "expressions" `Quick test_parse_expressions;
      Alcotest.test_case "statements" `Quick test_parse_statements;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "clean program passes checks" `Quick test_sem_clean_program;
      Alcotest.test_case "semantic error detection" `Quick test_sem_errors;
    ] )
