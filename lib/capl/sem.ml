type error = {
  where : string;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "[%s] %s" e.where e.message

exception Semantic_error of error list

let builtins =
  [ "output"; "setTimer"; "cancelTimer"; "write"; "elCount"; "abs"; "random";
    "getValue"; "putValue"; "timeNow" ]

let is_timer_ty = function
  | Ast.T_timer | Ast.T_ms_timer -> true
  | _ -> false

let is_message_ty = function
  | Ast.T_message _ -> true
  | _ -> false

type ctx = {
  db : Msgdb.t option;
  globals : (string * Ast.ty) list;
  functions : (string * Ast.func) list;
  mutable errors : error list;
  mutable where : string;
  mutable in_handler : bool;
  mutable this_msg : string option;  (* named message type of the handler *)
  mutable in_loop : bool;
  mutable in_breakable : bool;  (* inside a loop or a switch *)
  mutable fn_ret : Ast.ty option;  (* None when inside a handler *)
}

let err ctx fmt =
  Format.kasprintf
    (fun message -> ctx.errors <- { where = ctx.where; message } :: ctx.errors)
    fmt

let rec is_lvalue = function
  | Ast.E_ident _ | Ast.E_this -> true
  | Ast.E_member (e, _) -> is_lvalue e
  | Ast.E_index (e, _) -> is_lvalue e
  | Ast.E_method (e, ("byte" | "word" | "dword"), _) -> is_lvalue e
  | _ -> false

(* Scope stack: innermost first; each scope is (name, ty) assoc. *)
let lookup scopes name =
  List.find_map (fun scope -> List.assoc_opt name scope) scopes

let message_members = [ "id"; "dlc"; "dir"; "time"; "can" ]

let check ?db (prog : Ast.program) =
  let globals =
    List.map (fun v -> v.Ast.var_name, v.Ast.var_ty) prog.Ast.variables
  in
  let functions = List.map (fun f -> f.Ast.fn_name, f) prog.Ast.functions in
  let ctx =
    {
      db;
      globals;
      functions;
      errors = [];
      where = "globals";
      in_handler = false;
      this_msg = None;
      in_loop = false;
      in_breakable = false;
      fn_ret = None;
    }
  in
  (* Duplicate globals / functions. *)
  let dup names kind =
    let sorted = List.sort String.compare names in
    let rec go = function
      | a :: b :: rest ->
        if String.equal a b then err ctx "duplicate %s %s" kind a;
        go (if String.equal a b then rest else b :: rest)
      | _ -> ()
    in
    go sorted
  in
  dup (List.map fst globals) "global variable";
  dup (List.map fst functions) "function";
  List.iter
    (fun (name, _) ->
      if List.mem name builtins then
        err ctx "function %s shadows a built-in" name)
    functions;
  (* Message selectors against the database. *)
  (match db with
   | None -> ()
   | Some db ->
     List.iter
       (fun v ->
         match v.Ast.var_ty with
         | Ast.T_message (Ast.Msg_name n) ->
           if Option.is_none (Msgdb.find_by_name db n) then
             err ctx "unknown message type %s for variable %s" n
               v.Ast.var_name
         | _ -> ())
       prog.Ast.variables;
     List.iter
       (fun h ->
         match h.Ast.event with
         | Ast.Ev_message (Ast.Msg_name n) ->
           if Option.is_none (Msgdb.find_by_name db n) then begin
             ctx.where <- Ast.event_name h.Ast.event;
             err ctx "unknown message name %s" n;
             ctx.where <- "globals"
           end
         | _ -> ())
       prog.Ast.handlers);
  (* Expression/statement traversal. *)
  let rec expr scopes (e : Ast.expr) =
    match e with
    | Ast.E_int _ | Ast.E_float _ | Ast.E_char _ | Ast.E_string _ -> ()
    | Ast.E_this ->
      if not ctx.in_handler then err ctx "'this' used outside a handler"
    | Ast.E_ident name ->
      if
        Option.is_none (lookup scopes name)
        && not (List.mem_assoc name ctx.functions)
      then err ctx "undeclared identifier %s" name
    | Ast.E_member (base, member) ->
      expr scopes base;
      check_member scopes base member
    | Ast.E_index (base, idx) ->
      expr scopes base;
      expr scopes idx
    | Ast.E_call (name, args) ->
      List.iter (expr scopes) args;
      check_call scopes name args
    | Ast.E_method (base, _, args) ->
      expr scopes base;
      List.iter (expr scopes) args
    | Ast.E_unop (_, e1) -> expr scopes e1
    | Ast.E_binop (_, e1, e2) ->
      expr scopes e1;
      expr scopes e2
    | Ast.E_assign (_, lhs, rhs) ->
      if not (is_lvalue lhs) then err ctx "assignment to a non-lvalue";
      expr scopes lhs;
      expr scopes rhs
    | Ast.E_incr (_, _, e1) ->
      if not (is_lvalue e1) then err ctx "increment of a non-lvalue";
      expr scopes e1
    | Ast.E_ternary (c, a, b) ->
      expr scopes c;
      expr scopes a;
      expr scopes b
  and check_member scopes base member =
    (* When the base has a known message type, the member must be a frame
       field or a declared signal. *)
    let base_msg_ty =
      match base with
      | Ast.E_ident name ->
        (match lookup scopes name with
         | Some (Ast.T_message sel) -> Some sel
         | _ -> None)
      | Ast.E_this ->
        Option.map (fun n -> Ast.Msg_name n) ctx.this_msg
      | _ -> None
    in
    match base_msg_ty, ctx.db with
    | Some (Ast.Msg_name msg_name), Some db ->
      if not (List.mem member message_members) then begin
        match Msgdb.find_by_name db msg_name with
        | Some spec ->
          if Option.is_none (Msgdb.find_signal spec member) then
            err ctx "message %s has no signal %s" msg_name member
        | None -> ()
      end
    | _ -> ()
  and check_call scopes name args =
    match name with
    | "output" ->
      (match args with
       | [ Ast.E_this ] -> ()
       | [ Ast.E_ident v ] ->
         (match lookup scopes v with
          | Some ty when is_message_ty ty -> ()
          | Some _ -> err ctx "output() needs a message variable, got %s" v
          | None -> ())
       | _ -> err ctx "output() takes exactly one message variable")
    | "setTimer" ->
      (match args with
       | [ Ast.E_ident t; _ ] ->
         (match lookup scopes t with
          | Some ty when is_timer_ty ty -> ()
          | Some _ -> err ctx "setTimer() needs a timer variable, got %s" t
          | None -> ())
       | _ -> err ctx "setTimer() takes a timer variable and a duration")
    | "cancelTimer" ->
      (match args with
       | [ Ast.E_ident t ] ->
         (match lookup scopes t with
          | Some ty when is_timer_ty ty -> ()
          | Some _ -> err ctx "cancelTimer() needs a timer variable, got %s" t
          | None -> ())
       | _ -> err ctx "cancelTimer() takes exactly one timer variable")
    | "write" ->
      (match args with
       | Ast.E_string _ :: _ -> ()
       | _ -> err ctx "write() needs a format string first")
    | _ ->
      if not (List.mem name builtins) then begin
        match List.assoc_opt name ctx.functions with
        | Some f ->
          if List.length f.Ast.fn_params <> List.length args then
            err ctx "function %s expects %d arguments, got %d" name
              (List.length f.Ast.fn_params) (List.length args)
        | None -> err ctx "call to undeclared function %s" name
      end
  and stmt scopes (s : Ast.stmt) : (string * Ast.ty) list =
    (* returns additional bindings introduced in the current scope *)
    match s with
    | Ast.S_expr e ->
      expr scopes e;
      []
    | Ast.S_decl decls ->
      List.iter
        (fun d -> Option.iter (expr scopes) d.Ast.var_init)
        decls;
      List.map (fun d -> d.Ast.var_name, d.Ast.var_ty) decls
    | Ast.S_if (c, a, b) ->
      expr scopes c;
      block scopes [ a ];
      Option.iter (fun s -> block scopes [ s ]) b;
      []
    | Ast.S_loop { cond; body; step; test_first } ->
      let test () =
        Option.iter (expr scopes) cond;
        Option.iter (expr scopes) step
      in
      if test_first then test ();
      enclosed ~loop:true (fun () -> block scopes [ body ]);
      if not test_first then test ();
      []
    | Ast.S_switch (e, cases) ->
      expr scopes e;
      enclosed ~loop:false (fun () ->
          List.iter (fun c -> block scopes c.Ast.case_body) cases);
      let defaults =
        List.length (List.filter (fun c -> c.Ast.case_label = None) cases)
      in
      if defaults > 1 then err ctx "switch has %d default cases" defaults;
      []
    | Ast.S_break ->
      if not ctx.in_breakable then err ctx "break outside a loop or switch";
      []
    | Ast.S_continue ->
      if not ctx.in_loop then err ctx "continue outside a loop";
      []
    | Ast.S_return e ->
      (match ctx.fn_ret, e with
       | None, Some _ ->
         (* CAPL allows bare return in handlers but not a value *)
         err ctx "return with a value inside a handler"
       | Some Ast.T_void, Some _ -> err ctx "void function returns a value"
       | Some ret, None when ret <> Ast.T_void ->
         err ctx "non-void function returns without a value"
       | _ -> ());
      Option.iter (expr scopes) e;
      []
    | Ast.S_block body ->
      block scopes body;
      []
  and block scopes stmts =
    let _final_scope =
      List.fold_left
        (fun scope s ->
          let intro = stmt (scope :: scopes) s in
          intro @ scope)
        [] stmts
    in
    ()
  (* [break] leaves the innermost loop or switch; [continue] needs a loop,
     and a switch inside one does not hide it. *)
  and enclosed ~loop f =
    let in_loop = ctx.in_loop and in_breakable = ctx.in_breakable in
    ctx.in_loop <- in_loop || loop;
    ctx.in_breakable <- true;
    f ();
    ctx.in_loop <- in_loop;
    ctx.in_breakable <- in_breakable
  in
  (* Global initializers. *)
  List.iter
    (fun v -> Option.iter (expr [ globals ]) v.Ast.var_init)
    prog.Ast.variables;
  (* Handlers. *)
  List.iter
    (fun h ->
      ctx.where <- Ast.event_name h.Ast.event;
      ctx.in_handler <- true;
      ctx.this_msg <-
        (match h.Ast.event with
         | Ast.Ev_message (Ast.Msg_name n) -> Some n
         | _ -> None);
      ctx.fn_ret <- None;
      block [ globals ] h.Ast.body;
      ctx.in_handler <- false;
      ctx.this_msg <- None)
    prog.Ast.handlers;
  (* Functions. *)
  List.iter
    (fun f ->
      ctx.where <- f.Ast.fn_name;
      ctx.in_handler <- false;
      ctx.fn_ret <- Some f.Ast.fn_ret;
      let params = List.map (fun (ty, n) -> n, ty) f.Ast.fn_params in
      block [ params; globals ] f.Ast.fn_body;
      ctx.fn_ret <- None)
    prog.Ast.functions;
  List.rev ctx.errors

let check_exn ?db prog =
  match check ?db prog with
  | [] -> ()
  | errors -> raise (Semantic_error errors)
