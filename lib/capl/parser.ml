exception Parse_error of string * Ast.pos

type state = {
  toks : (Lexer.token * Ast.pos) array;
  mutable cursor : int;
}

let current st = fst st.toks.(st.cursor)
let current_pos st = snd st.toks.(st.cursor)

let fail st msg =
  raise
    (Parse_error
       ( Printf.sprintf "%s (found %s)" msg
           (Lexer.token_to_string (current st)),
         current_pos st ))

let advance st = if current st <> Lexer.EOF then st.cursor <- st.cursor + 1

let eat st tok =
  if current st = tok then advance st
  else fail st (Printf.sprintf "expected %s" (Lexer.token_to_string tok))

let eat_ident st =
  match current st with
  | Lexer.IDENT name ->
    advance st;
    name
  | _ -> fail st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let msg_selector st : Ast.msg_selector =
  match current st with
  | Lexer.IDENT name ->
    advance st;
    Ast.Msg_name name
  | Lexer.INT id ->
    advance st;
    Ast.Msg_id id
  | Lexer.STAR ->
    advance st;
    Ast.Msg_any
  | _ -> fail st "expected a message name, identifier or *"

let base_type st : Ast.ty option =
  match current st with
  | Lexer.KW_int -> advance st; Some Ast.T_int
  | Lexer.KW_long -> advance st; Some Ast.T_long
  | Lexer.KW_int64 -> advance st; Some Ast.T_int64
  | Lexer.KW_byte -> advance st; Some Ast.T_byte
  | Lexer.KW_word -> advance st; Some Ast.T_word
  | Lexer.KW_dword -> advance st; Some Ast.T_dword
  | Lexer.KW_qword -> advance st; Some Ast.T_qword
  | Lexer.KW_char -> advance st; Some Ast.T_char
  | Lexer.KW_float -> advance st; Some Ast.T_float
  | Lexer.KW_double -> advance st; Some Ast.T_double
  | Lexer.KW_void -> advance st; Some Ast.T_void
  | Lexer.KW_message ->
    advance st;
    Some (Ast.T_message (msg_selector st))
  | Lexer.KW_timer -> advance st; Some Ast.T_timer
  | Lexer.KW_msTimer -> advance st; Some Ast.T_ms_timer
  | _ -> None

let starts_type st =
  match current st with
  | Lexer.KW_int | Lexer.KW_long | Lexer.KW_int64 | Lexer.KW_byte
  | Lexer.KW_word | Lexer.KW_dword | Lexer.KW_qword | Lexer.KW_char
  | Lexer.KW_float | Lexer.KW_double | Lexer.KW_void | Lexer.KW_message
  | Lexer.KW_timer | Lexer.KW_msTimer ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions (C precedence)                                          *)
(* ------------------------------------------------------------------ *)

let rec expression st = assignment st

and assignment st =
  let left = ternary st in
  let op =
    match current st with
    | Lexer.ASSIGN -> Some Ast.A_eq
    | Lexer.PLUS_ASSIGN -> Some Ast.A_add
    | Lexer.MINUS_ASSIGN -> Some Ast.A_sub
    | Lexer.STAR_ASSIGN -> Some Ast.A_mul
    | Lexer.SLASH_ASSIGN -> Some Ast.A_div
    | Lexer.PERCENT_ASSIGN -> Some Ast.A_mod
    | Lexer.AMP_ASSIGN -> Some Ast.A_band
    | Lexer.PIPE_ASSIGN -> Some Ast.A_bor
    | Lexer.CARET_ASSIGN -> Some Ast.A_bxor
    | Lexer.SHL_ASSIGN -> Some Ast.A_shl
    | Lexer.SHR_ASSIGN -> Some Ast.A_shr
    | _ -> None
  in
  match op with
  | Some op ->
    advance st;
    let right = assignment st in
    Ast.E_assign (op, left, right)
  | None -> left

and ternary st =
  let cond = logical_or st in
  match current st with
  | Lexer.QUESTION ->
    advance st;
    let a = assignment st in
    eat st Lexer.COLON;
    let b = assignment st in
    Ast.E_ternary (cond, a, b)
  | _ -> cond

and logical_or st =
  let rec loop left =
    match current st with
    | Lexer.PIPEPIPE ->
      advance st;
      loop (Ast.E_binop (Ast.B_lor, left, logical_and st))
    | _ -> left
  in
  loop (logical_and st)

and logical_and st =
  let rec loop left =
    match current st with
    | Lexer.AMPAMP ->
      advance st;
      loop (Ast.E_binop (Ast.B_land, left, bit_or st))
    | _ -> left
  in
  loop (bit_or st)

and bit_or st =
  let rec loop left =
    match current st with
    | Lexer.PIPE ->
      advance st;
      loop (Ast.E_binop (Ast.B_bor, left, bit_xor st))
    | _ -> left
  in
  loop (bit_xor st)

and bit_xor st =
  let rec loop left =
    match current st with
    | Lexer.CARET ->
      advance st;
      loop (Ast.E_binop (Ast.B_bxor, left, bit_and st))
    | _ -> left
  in
  loop (bit_and st)

and bit_and st =
  let rec loop left =
    match current st with
    | Lexer.AMP ->
      advance st;
      loop (Ast.E_binop (Ast.B_band, left, equality st))
    | _ -> left
  in
  loop (equality st)

and equality st =
  let rec loop left =
    match current st with
    | Lexer.EQ ->
      advance st;
      loop (Ast.E_binop (Ast.B_eq, left, relational st))
    | Lexer.NEQ ->
      advance st;
      loop (Ast.E_binop (Ast.B_neq, left, relational st))
    | _ -> left
  in
  loop (relational st)

and relational st =
  let rec loop left =
    match current st with
    | Lexer.LT -> advance st; loop (Ast.E_binop (Ast.B_lt, left, shift st))
    | Lexer.LE -> advance st; loop (Ast.E_binop (Ast.B_le, left, shift st))
    | Lexer.GT -> advance st; loop (Ast.E_binop (Ast.B_gt, left, shift st))
    | Lexer.GE -> advance st; loop (Ast.E_binop (Ast.B_ge, left, shift st))
    | _ -> left
  in
  loop (shift st)

and shift st =
  let rec loop left =
    match current st with
    | Lexer.SHL -> advance st; loop (Ast.E_binop (Ast.B_shl, left, additive st))
    | Lexer.SHR -> advance st; loop (Ast.E_binop (Ast.B_shr, left, additive st))
    | _ -> left
  in
  loop (additive st)

and additive st =
  let rec loop left =
    match current st with
    | Lexer.PLUS ->
      advance st;
      loop (Ast.E_binop (Ast.B_add, left, multiplicative st))
    | Lexer.MINUS ->
      advance st;
      loop (Ast.E_binop (Ast.B_sub, left, multiplicative st))
    | _ -> left
  in
  loop (multiplicative st)

and multiplicative st =
  let rec loop left =
    match current st with
    | Lexer.STAR -> advance st; loop (Ast.E_binop (Ast.B_mul, left, unary st))
    | Lexer.SLASH -> advance st; loop (Ast.E_binop (Ast.B_div, left, unary st))
    | Lexer.PERCENT ->
      advance st;
      loop (Ast.E_binop (Ast.B_mod, left, unary st))
    | _ -> left
  in
  loop (unary st)

and unary st =
  match current st with
  | Lexer.MINUS ->
    advance st;
    Ast.E_unop (Ast.U_neg, unary st)
  | Lexer.BANG ->
    advance st;
    Ast.E_unop (Ast.U_not, unary st)
  | Lexer.TILDE ->
    advance st;
    Ast.E_unop (Ast.U_bnot, unary st)
  | Lexer.PLUSPLUS ->
    advance st;
    Ast.E_incr (true, true, unary st)
  | Lexer.MINUSMINUS ->
    advance st;
    Ast.E_incr (false, true, unary st)
  | _ -> postfix st

and postfix st =
  let rec loop left =
    match current st with
    | Lexer.DOT ->
      advance st;
      let member =
        match current st with
        | Lexer.IDENT m ->
          advance st;
          m
        (* members may collide with keywords, e.g. [m.byte(0)] *)
        | Lexer.KW_byte -> advance st; "byte"
        | Lexer.KW_word -> advance st; "word"
        | Lexer.KW_dword -> advance st; "dword"
        | _ -> fail st "expected member name after '.'"
      in
      (match current st with
       | Lexer.LPAREN ->
         advance st;
         let args = arguments st in
         eat st Lexer.RPAREN;
         loop (Ast.E_method (left, member, args))
       | _ -> loop (Ast.E_member (left, member)))
    | Lexer.LBRACKET ->
      advance st;
      let index = expression st in
      eat st Lexer.RBRACKET;
      loop (Ast.E_index (left, index))
    | Lexer.PLUSPLUS ->
      advance st;
      loop (Ast.E_incr (true, false, left))
    | Lexer.MINUSMINUS ->
      advance st;
      loop (Ast.E_incr (false, false, left))
    | _ -> left
  in
  loop (primary st)

and arguments st =
  match current st with
  | Lexer.RPAREN -> []
  | _ ->
    let rec more acc =
      let e = assignment st in
      match current st with
      | Lexer.COMMA ->
        advance st;
        more (e :: acc)
      | _ -> List.rev (e :: acc)
    in
    more []

and primary st =
  match current st with
  | Lexer.INT n -> advance st; Ast.E_int n
  | Lexer.FLOAT f -> advance st; Ast.E_float f
  | Lexer.CHAR c -> advance st; Ast.E_char c
  | Lexer.STRING s -> advance st; Ast.E_string s
  | Lexer.KW_this -> advance st; Ast.E_this
  | Lexer.IDENT name ->
    advance st;
    (match current st with
     | Lexer.LPAREN ->
       advance st;
       let args = arguments st in
       eat st Lexer.RPAREN;
       Ast.E_call (name, args)
     | _ -> Ast.E_ident name)
  | Lexer.LPAREN ->
    advance st;
    let e = expression st in
    eat st Lexer.RPAREN;
    e
  | _ -> fail st "expected an expression"

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let declarators st ty : Ast.var_decl list =
  let one () =
    let pos = current_pos st in
    let name = eat_ident st in
    let rec dims acc =
      match current st with
      | Lexer.LBRACKET ->
        advance st;
        let d =
          match current st with
          | Lexer.INT n ->
            advance st;
            n
          | _ -> fail st "expected array size"
        in
        eat st Lexer.RBRACKET;
        dims (d :: acc)
      | _ -> List.rev acc
    in
    let dims = dims [] in
    let init =
      match current st with
      | Lexer.ASSIGN ->
        advance st;
        Some (assignment st)
      | _ -> None
    in
    { Ast.var_ty = ty; var_name = name; var_dims = dims; var_init = init;
      var_pos = pos }
  in
  let rec more acc =
    let d = one () in
    match current st with
    | Lexer.COMMA ->
      advance st;
      more (d :: acc)
    | _ -> List.rev (d :: acc)
  in
  let ds = more [] in
  eat st Lexer.SEMI;
  ds

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec statement st : Ast.stmt =
  match current st with
  | Lexer.LBRACE ->
    advance st;
    let body = statements_until_rbrace st in
    Ast.S_block body
  | Lexer.KW_if ->
    advance st;
    eat st Lexer.LPAREN;
    let cond = expression st in
    eat st Lexer.RPAREN;
    let then_branch = statement st in
    (match current st with
     | Lexer.KW_else ->
       advance st;
       let else_branch = statement st in
       Ast.S_if (cond, then_branch, Some else_branch)
     | _ -> Ast.S_if (cond, then_branch, None))
  | Lexer.KW_while ->
    advance st;
    eat st Lexer.LPAREN;
    let cond = expression st in
    eat st Lexer.RPAREN;
    Ast.S_loop
      { cond = Some cond; body = statement st; step = None; test_first = true }
  | Lexer.KW_do ->
    advance st;
    let body = statement st in
    eat st Lexer.KW_while;
    eat st Lexer.LPAREN;
    let cond = expression st in
    eat st Lexer.RPAREN;
    eat st Lexer.SEMI;
    Ast.S_loop { cond = Some cond; body; step = None; test_first = false }
  | Lexer.KW_for ->
    advance st;
    eat st Lexer.LPAREN;
    let init =
      match current st with
      | Lexer.SEMI ->
        advance st;
        None
      | _ when starts_type st ->
        let ty = Option.get (base_type st) in
        Some (Ast.S_decl (declarators st ty))
      | _ ->
        let e = expression st in
        eat st Lexer.SEMI;
        Some (Ast.S_expr e)
    in
    let cond =
      match current st with
      | Lexer.SEMI -> None
      | _ -> Some (expression st)
    in
    eat st Lexer.SEMI;
    let step =
      match current st with
      | Lexer.RPAREN -> None
      | _ -> Some (expression st)
    in
    eat st Lexer.RPAREN;
    let body = statement st in
    let loop = Ast.S_loop { cond; body; step; test_first = true } in
    Ast.S_block (Option.to_list init @ [ loop ])
  | Lexer.KW_switch ->
    advance st;
    eat st Lexer.LPAREN;
    let scrutinee = expression st in
    eat st Lexer.RPAREN;
    eat st Lexer.LBRACE;
    let rec cases acc =
      match current st with
      | Lexer.RBRACE ->
        advance st;
        List.rev acc
      | Lexer.KW_case ->
        advance st;
        let label = expression st in
        eat st Lexer.COLON;
        let body = case_body st in
        cases ({ Ast.case_label = Some label; case_body = body } :: acc)
      | Lexer.KW_default ->
        advance st;
        eat st Lexer.COLON;
        let body = case_body st in
        cases ({ Ast.case_label = None; case_body = body } :: acc)
      | _ -> fail st "expected case, default or }"
    in
    Ast.S_switch (scrutinee, cases [])
  | Lexer.KW_break ->
    advance st;
    eat st Lexer.SEMI;
    Ast.S_break
  | Lexer.KW_continue ->
    advance st;
    eat st Lexer.SEMI;
    Ast.S_continue
  | Lexer.KW_return ->
    advance st;
    (match current st with
     | Lexer.SEMI ->
       advance st;
       Ast.S_return None
     | _ ->
       let e = expression st in
       eat st Lexer.SEMI;
       Ast.S_return (Some e))
  | _ when starts_type st ->
    let ty = Option.get (base_type st) in
    Ast.S_decl (declarators st ty)
  | _ ->
    let e = expression st in
    eat st Lexer.SEMI;
    Ast.S_expr e

and statements_until_rbrace st =
  let rec loop acc =
    match current st with
    | Lexer.RBRACE ->
      advance st;
      List.rev acc
    | Lexer.EOF -> fail st "unexpected end of input inside a block"
    | _ -> loop (statement st :: acc)
  in
  loop []

and case_body st =
  let rec loop acc =
    match current st with
    | Lexer.KW_case | Lexer.KW_default | Lexer.RBRACE -> List.rev acc
    | _ -> loop (statement st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let event st : Ast.event =
  match current st with
  | Lexer.IDENT "start" ->
    advance st;
    Ast.Ev_start
  | Lexer.IDENT "preStart" ->
    advance st;
    Ast.Ev_prestart
  | Lexer.IDENT "stopMeasurement" ->
    advance st;
    Ast.Ev_stop
  | Lexer.KW_key ->
    advance st;
    (match current st with
     | Lexer.CHAR c ->
       advance st;
       Ast.Ev_key c
     | _ -> fail st "expected a character literal after 'on key'")
  | Lexer.KW_timer ->
    advance st;
    Ast.Ev_timer (eat_ident st)
  | Lexer.KW_msTimer ->
    advance st;
    Ast.Ev_timer (eat_ident st)
  | Lexer.KW_message ->
    advance st;
    Ast.Ev_message (msg_selector st)
  | _ -> fail st "expected an event kind after 'on'"

let program src =
  let st = { toks = Array.of_list (Lexer.tokens src); cursor = 0 } in
  let includes = ref [] in
  let variables = ref [] in
  let handlers = ref [] in
  let functions = ref [] in
  let rec loop () =
    match current st with
    | Lexer.EOF -> ()
    | Lexer.KW_includes ->
      advance st;
      eat st Lexer.LBRACE;
      let rec files () =
        match current st with
        | Lexer.HASH_INCLUDE f ->
          advance st;
          includes := f :: !includes;
          files ()
        | Lexer.RBRACE -> advance st
        | _ -> fail st "expected #include or } in includes section"
      in
      files ();
      loop ()
    | Lexer.KW_variables ->
      advance st;
      eat st Lexer.LBRACE;
      let rec vars () =
        match current st with
        | Lexer.RBRACE -> advance st
        | _ when starts_type st ->
          let ty = Option.get (base_type st) in
          variables := !variables @ declarators st ty;
          vars ()
        | _ -> fail st "expected a declaration or } in variables section"
      in
      vars ();
      loop ()
    | Lexer.KW_on ->
      let pos = current_pos st in
      advance st;
      let ev = event st in
      eat st Lexer.LBRACE;
      let body = statements_until_rbrace st in
      handlers := { Ast.event = ev; body; handler_pos = pos } :: !handlers;
      loop ()
    | _ when starts_type st ->
      let pos = current_pos st in
      let ret = Option.get (base_type st) in
      let name = eat_ident st in
      eat st Lexer.LPAREN;
      let params =
        match current st with
        | Lexer.RPAREN -> []
        | _ ->
          let rec more acc =
            let ty =
              match base_type st with
              | Some ty -> ty
              | None -> fail st "expected a parameter type"
            in
            let pname = eat_ident st in
            match current st with
            | Lexer.COMMA ->
              advance st;
              more ((ty, pname) :: acc)
            | _ -> List.rev ((ty, pname) :: acc)
          in
          more []
      in
      eat st Lexer.RPAREN;
      eat st Lexer.LBRACE;
      let body = statements_until_rbrace st in
      functions :=
        { Ast.fn_ret = ret; fn_name = name; fn_params = params;
          fn_body = body; fn_pos = pos }
        :: !functions;
      loop ()
    | _ -> fail st "expected includes, variables, 'on <event>' or a function"
  in
  loop ();
  {
    Ast.includes = List.rev !includes;
    variables = !variables;
    handlers = List.rev !handlers;
    functions = List.rev !functions;
  }

let expr src =
  let st = { toks = Array.of_list (Lexer.tokens src); cursor = 0 } in
  let e = expression st in
  (match current st with
   | Lexer.EOF -> ()
   | _ -> fail st "trailing input after expression");
  e

let stmt src =
  let st = { toks = Array.of_list (Lexer.tokens src); cursor = 0 } in
  let s = statement st in
  (match current st with
   | Lexer.EOF -> ()
   | _ -> fail st "trailing input after statement");
  s
