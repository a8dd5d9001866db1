module A = Capl.Ast
module E = Csp.Expr
module P = Csp.Proc

type config = {
  domain : Candb.To_cspm.config;
  global_max : int;
  track_globals : string list option;
  max_unroll : int;
  lenient : bool;
  bus_medium : bool;
  timed : bool;
  tock_ms : int;
  max_ticks : int;
}

let default_config =
  {
    domain = { Candb.To_cspm.default_config with use_value_tables = false };
    global_max = 7;
    track_globals = None;
    max_unroll = 16;
    lenient = true;
    bus_medium = false;
    timed = false;
    tock_ms = 10;
    max_ticks = 8;
  }

type warning = {
  where : string;
  what : string;
}

let pp_warning ppf w = Format.fprintf ppf "[%s] %s" w.where w.what

exception Unsupported of warning

type node_model = {
  process_name : string;
  entry_name : string;
  alphabet : Csp.Eventset.t;
  tracked : string list;
  timers : string list;
  tx_channels : (string * string) list;
  warnings : warning list;
}

(* ------------------------------------------------------------------ *)
(* Translation context                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = {
  config : config;
  defs : Csp.Defs.t;
  db : Candb.Dbc_ast.t;
  node : string;
  prog : A.program;
  tracked : string list;
  timer_names : string list;
  mutable warnings : warning list;
  mutable where : string;
  used_chans : (string, unit) Hashtbl.t;
  tx_chans : (string * string, unit) Hashtbl.t;  (* (tx chan, bus chan) *)
}

let warn ctx fmt =
  Format.kasprintf
    (fun what ->
      let w = { where = ctx.where; what } in
      if ctx.config.lenient then ctx.warnings <- w :: ctx.warnings
      else raise (Unsupported w))
    fmt

let chan_name ctx (m : Candb.Dbc_ast.message) =
  ctx.config.domain.Candb.To_cspm.channel_prefix ^ m.Candb.Dbc_ast.msg_name

let use_chan ctx name = Hashtbl.replace ctx.used_chans name ()

let timer_chan ctx t = Printf.sprintf "timer_%s_%s" ctx.node t
let key_chan ctx c = Printf.sprintf "key_%s_%c" ctx.node c
let armed_param t = "armed_" ^ t
let input_var s = "x_" ^ s.Candb.Dbc_ast.sig_name

(* ------------------------------------------------------------------ *)
(* Symbolic state                                                      *)
(* ------------------------------------------------------------------ *)

type sym = {
  globals : (string * E.t) list;  (* tracked global -> current expr *)
  timer_flags : (string * E.t) list;  (* timer -> armed (bool expr) *)
  locals : (string * E.t) list;  (* innermost binding first *)
  msg_fields : (string * (string * E.t) list) list;
      (* message var -> signal assignments *)
  msg_types : (string * Candb.Dbc_ast.message) list;
  this_ctx : (Candb.Dbc_ast.message * (string * E.t) list) option;
}

let update_assoc key v assoc = (key, v) :: List.remove_assoc key assoc

(* Constant-fold an expression when it is closed; keeps loop counters and
   literal arithmetic as literals so loop unrolling can decide
   conditions. *)
let fold_expr ctx e =
  if E.free_vars e = [] then
    match E.eval (Csp.Defs.fenv ctx.defs) E.empty_env e with
    | v -> E.Lit v
    | exception E.Eval_error _ -> e
  else e

let try_const ctx e =
  match fold_expr ctx e with
  | E.Lit v -> Some v
  | _ -> None

let wrap_global ctx e =
  fold_expr ctx (E.Bin (E.Mod, e, E.int (ctx.config.global_max + 1)))

let wrap_signal ctx (s : Candb.Dbc_ast.signal) e =
  let lo, hi, _ = Candb.To_cspm.clamped_range ctx.config.domain s in
  let size = hi - lo + 1 in
  let wrapped =
    if lo = 0 then E.Bin (E.Mod, e, E.int size)
    else E.Bin (E.Add, E.int lo, E.Bin (E.Mod, E.Bin (E.Sub, e, E.int lo), E.int size))
  in
  fold_expr ctx wrapped

(* ------------------------------------------------------------------ *)
(* Expression translation                                              *)
(* ------------------------------------------------------------------ *)

let find_function ctx name =
  List.find_opt (fun f -> String.equal f.A.fn_name name) ctx.prog.A.functions

let is_integral = function
  | A.T_int | A.T_long | A.T_int64 | A.T_byte | A.T_word | A.T_dword
  | A.T_qword | A.T_char ->
    true
  | _ -> false

let max_inline_depth = 8

let rec int_expr ?(depth = 0) ctx sym (e : A.expr) : E.t =
  let recur = int_expr ~depth ctx sym in
  match e with
  | A.E_int n -> E.int n
  | A.E_char c -> E.int (Char.code c)
  | A.E_float f ->
    warn ctx "float literal %g truncated to an integer" f;
    E.int (int_of_float f)
  | A.E_string _ ->
    warn ctx "string value abstracted to 0";
    E.int 0
  | A.E_this ->
    warn ctx "'this' used as a scalar; abstracted to 0";
    E.int 0
  | A.E_ident name ->
    (match List.assoc_opt name sym.locals with
     | Some e -> e
     | None ->
       (match List.assoc_opt name sym.globals with
        | Some e -> e
        | None ->
          if
            List.exists
              (fun v -> String.equal v.A.var_name name)
              ctx.prog.A.variables
          then warn ctx "read of untracked global %s abstracted to 0" name
          else warn ctx "read of unknown identifier %s abstracted to 0" name;
          E.int 0))
  | A.E_member (base, member) -> member_expr ctx sym base member
  | A.E_index _ ->
    warn ctx "array element read abstracted to 0";
    E.int 0
  | A.E_call ("abs", [ a ]) ->
    let e = recur a in
    E.If (E.Bin (E.Lt, e, E.int 0), E.Neg e, e)
  | A.E_call (name, args) ->
    (match find_function ctx name with
     | Some f -> inline_value_call ~depth ctx sym f args
     | None ->
       warn ctx "call to %s in expression abstracted to 0" name;
       E.int 0)
  | A.E_method _ ->
    warn ctx "byte-level message access abstracted to 0";
    E.int 0
  | A.E_unop (A.U_neg, a) -> E.Neg (recur a)
  | A.E_unop (A.U_not, a) ->
    E.If (bool_expr ~depth ctx sym a, E.int 0, E.int 1)
  | A.E_unop (A.U_bnot, _) ->
    warn ctx "bitwise complement abstracted to 0";
    E.int 0
  | A.E_binop ((A.B_land | A.B_lor | A.B_eq | A.B_neq | A.B_lt | A.B_le
               | A.B_gt | A.B_ge), _, _) ->
    E.If (bool_expr ~depth ctx sym e, E.int 1, E.int 0)
  | A.E_binop (A.B_add, a, b) -> E.Bin (E.Add, recur a, recur b)
  | A.E_binop (A.B_sub, a, b) -> E.Bin (E.Sub, recur a, recur b)
  | A.E_binop (A.B_mul, a, b) -> E.Bin (E.Mul, recur a, recur b)
  | A.E_binop (A.B_div, a, b) -> E.Bin (E.Div, recur a, recur b)
  | A.E_binop (A.B_mod, a, b) -> E.Bin (E.Mod, recur a, recur b)
  | A.E_binop (A.B_shl, a, b) -> shift_expr ctx sym ~left:true a b ~depth
  | A.E_binop (A.B_shr, a, b) -> shift_expr ctx sym ~left:false a b ~depth
  | A.E_binop ((A.B_band | A.B_bor | A.B_bxor), _, _) ->
    warn ctx "bitwise operator abstracted to 0";
    E.int 0
  | A.E_assign _ | A.E_incr _ ->
    warn ctx "assignment inside an expression has no effect in the model";
    E.int 0
  | A.E_ternary (c, a, b) ->
    E.If (bool_expr ~depth ctx sym c, recur a, recur b)

and shift_expr ctx sym ~left a b ~depth =
  match try_const ctx (int_expr ~depth ctx sym b) with
  | Some (Csp.Value.Int k) when k >= 0 && k < 30 ->
    let factor = E.int (1 lsl k) in
    let ea = int_expr ~depth ctx sym a in
    if left then E.Bin (E.Mul, ea, factor) else E.Bin (E.Div, ea, factor)
  | _ ->
    warn ctx "shift by a non-constant abstracted to 0";
    E.int 0

and bool_expr ?(depth = 0) ctx sym (e : A.expr) : E.t =
  match e with
  | A.E_binop (A.B_land, a, b) ->
    E.Bin (E.And, bool_expr ~depth ctx sym a, bool_expr ~depth ctx sym b)
  | A.E_binop (A.B_lor, a, b) ->
    E.Bin (E.Or, bool_expr ~depth ctx sym a, bool_expr ~depth ctx sym b)
  | A.E_unop (A.U_not, a) -> E.Not (bool_expr ~depth ctx sym a)
  | A.E_binop ((A.B_eq | A.B_neq | A.B_lt | A.B_le | A.B_gt | A.B_ge) as op,
               a, b) ->
    let cmp =
      match op with
      | A.B_eq -> E.Eq
      | A.B_neq -> E.Neq
      | A.B_lt -> E.Lt
      | A.B_le -> E.Le
      | A.B_gt -> E.Gt
      | A.B_ge -> E.Ge
      | _ -> invalid_arg "Extract.bool_expr: non-comparison operator"
    in
    E.Bin (cmp, int_expr ~depth ctx sym a, int_expr ~depth ctx sym b)
  | _ -> E.Bin (E.Neq, int_expr ~depth ctx sym e, E.int 0)

and member_expr ctx sym base member =
  let of_message (m : Candb.Dbc_ast.message) bindings =
    match member with
    | "id" -> E.int m.Candb.Dbc_ast.msg_id
    | "dlc" -> E.int m.Candb.Dbc_ast.dlc
    | "dir" | "can" | "time" ->
      warn ctx "message attribute .%s abstracted to 0" member;
      E.int 0
    | signal ->
      (match List.assoc_opt signal bindings with
       | Some e -> e
       | None ->
         if
           List.exists
             (fun s -> String.equal s.Candb.Dbc_ast.sig_name signal)
             m.Candb.Dbc_ast.signals
         then E.int 0  (* declared but never assigned: reset default *)
         else begin
           warn ctx "message %s has no signal %s; read abstracted to 0"
             m.Candb.Dbc_ast.msg_name signal;
           E.int 0
         end)
  in
  match base with
  | A.E_this ->
    (match sym.this_ctx with
     | Some (m, bindings) -> of_message m bindings
     | None ->
       warn ctx "'this' member read outside a message handler";
       E.int 0)
  | A.E_ident v ->
    (match List.assoc_opt v sym.msg_types with
     | Some m ->
       of_message m (Option.value ~default:[] (List.assoc_opt v sym.msg_fields))
     | None ->
       warn ctx "member access on non-message %s abstracted to 0" v;
       E.int 0)
  | _ ->
    warn ctx "unsupported member access abstracted to 0";
    E.int 0

and inline_value_call ~depth ctx sym f args =
  if depth >= max_inline_depth then begin
    warn ctx "inline depth exceeded for %s; abstracted to 0" f.A.fn_name;
    E.int 0
  end
  else begin
    let arg_exprs = List.map (int_expr ~depth ctx sym) args in
    let locals =
      List.map2 (fun (_, p) e -> p, e) f.A.fn_params arg_exprs
    in
    (* Only single-return function bodies are inlined as expressions;
       anything else would need the full statement translation to produce
       a value. *)
    match f.A.fn_body with
    | [ A.S_return (Some e) ] ->
      int_expr ~depth:(depth + 1) ctx { sym with locals } e
    | _ ->
      warn ctx
        "function %s is not a single-return expression; value abstracted \
         to 0"
        f.A.fn_name;
      E.int 0
  end

(* ------------------------------------------------------------------ *)
(* Statement translation (CPS)                                         *)
(* ------------------------------------------------------------------ *)

type ks = {
  next : sym -> P.t;
  brk : (sym -> P.t) option;
  cont : (sym -> P.t) option;
  exit : sym -> P.t;
}

let resolve_message ctx sel =
  match sel with
  | A.Msg_name n -> Candb.Dbc_ast.find_message_by_name ctx.db n
  | A.Msg_id id -> Candb.Dbc_ast.find_message ctx.db id
  | A.Msg_any -> None

let tx_chan_name ctx (m : Candb.Dbc_ast.message) =
  Printf.sprintf "tx_%s_%s" ctx.node m.Candb.Dbc_ast.msg_name

let output_prefix ctx (m : Candb.Dbc_ast.message) bindings cont =
  let chan =
    if ctx.config.bus_medium then begin
      let tx = tx_chan_name ctx m in
      if Option.is_none (Csp.Defs.channel_type ctx.defs tx) then begin
        let tys =
          List.map
            (fun s -> Csp.Ty.Named (Candb.To_cspm.signal_type_name m s))
            m.Candb.Dbc_ast.signals
        in
        Csp.Defs.declare_channel ctx.defs tx tys
      end;
      Hashtbl.replace ctx.tx_chans (tx, chan_name ctx m) ();
      tx
    end
    else chan_name ctx m
  in
  use_chan ctx chan;
  let args =
    List.map
      (fun s ->
        let e =
          Option.value ~default:(E.int 0)
            (List.assoc_opt s.Candb.Dbc_ast.sig_name bindings)
        in
        wrap_signal ctx s e)
      m.Candb.Dbc_ast.signals
  in
  P.prefix chan args cont

let rec trans_stmts ?(depth = 0) ctx sym stmts ks =
  match stmts with
  | [] -> ks.next sym
  | s :: rest ->
    let ks' = { ks with next = (fun sym' -> trans_stmts ~depth ctx sym' rest ks) } in
    trans_stmt ~depth ctx sym s ks'

and trans_stmt ?(depth = 0) ctx sym (s : A.stmt) ks =
  match s with
  | A.S_expr e -> effect_expr ~depth ctx sym e ks
  | A.S_decl decls ->
    let sym' =
      List.fold_left
        (fun sym d ->
          match d.A.var_ty with
          | A.T_message (A.Msg_name n) ->
            (match Candb.Dbc_ast.find_message_by_name ctx.db n with
             | Some m ->
               { sym with
                 msg_types = update_assoc d.A.var_name m sym.msg_types;
                 msg_fields = update_assoc d.A.var_name [] sym.msg_fields }
             | None ->
               warn ctx "local message %s has unknown type %s" d.A.var_name n;
               sym)
          | ty when is_integral ty ->
            if d.A.var_dims <> [] then begin
              warn ctx "local array %s is not tracked" d.A.var_name;
              sym
            end
            else
              let init =
                match d.A.var_init with
                | Some e -> fold_expr ctx (int_expr ~depth ctx sym e)
                | None -> E.int 0
              in
              { sym with locals = update_assoc d.A.var_name init sym.locals }
          | _ ->
            warn ctx "local %s of type %s is not tracked" d.A.var_name
              (A.ty_name d.A.var_ty);
            sym)
        sym decls
    in
    ks.next sym'
  | A.S_if (c, a, b) ->
    let cond = fold_expr ctx (bool_expr ~depth ctx sym c) in
    (match cond with
     | E.Lit (Csp.Value.Bool true) -> trans_stmt ~depth ctx sym a ks
     | E.Lit (Csp.Value.Bool false) ->
       (match b with
        | Some s -> trans_stmt ~depth ctx sym s ks
        | None -> ks.next sym)
     | _ ->
       let then_p = trans_stmt ~depth ctx sym a ks in
       let else_p =
         match b with
         | Some s -> trans_stmt ~depth ctx sym s ks
         | None -> ks.next sym
       in
       P.ite (cond, then_p, else_p))
  | A.S_loop { cond; body; step; test_first } ->
    unroll_loop ~depth ctx sym ks ~cond ~body ~step ~test_first
  | A.S_switch (e, cases) ->
    let scrutinee = fold_expr ctx (int_expr ~depth ctx sym e) in
    (* fallthrough: entering case i executes the bodies from i on, with
       break jumping to the continuation *)
    let from_index i sym' =
      let rec bodies j =
        if j >= List.length cases then []
        else (List.nth cases j).A.case_body @ bodies (j + 1)
      in
      trans_stmts ~depth ctx sym' (bodies i)
        { ks with brk = Some ks.next; cont = ks.cont }
    in
    let default_branch sym' =
      match
        List.mapi (fun i c -> i, c) cases
        |> List.find_opt (fun (_, c) -> c.A.case_label = None)
      with
      | Some (i, _) -> from_index i sym'
      | None -> ks.next sym'
    in
    let rec build i =
      if i >= List.length cases then default_branch sym
      else
        match (List.nth cases i).A.case_label with
        | None -> build (i + 1)
        | Some label ->
          let lab = fold_expr ctx (int_expr ~depth ctx sym label) in
          P.ite (E.Bin (E.Eq, scrutinee, lab), from_index i sym, build (i + 1))
    in
    build 0
  | A.S_break ->
    (match ks.brk with
     | Some k -> k sym
     | None ->
       warn ctx "break outside a translatable loop";
       ks.next sym)
  | A.S_continue ->
    (match ks.cont with
     | Some k -> k sym
     | None ->
       warn ctx "continue outside a translatable loop";
       ks.next sym)
  | A.S_return _ -> ks.exit sym
  | A.S_block body -> trans_stmts ~depth ctx sym body ks

and unroll_loop ~depth ctx sym ks ~cond ~body ~step ~test_first =
  (* Loops are unrolled statically: the condition must fold to a constant
     at every iteration (typical CAPL loops iterate over literal bounds).
     A non-static condition is reported and the loop is skipped — an
     under-approximation recorded as a warning. *)
  let static_cond sym =
    match cond with
    | None -> Some true
    | Some c ->
      (match try_const ctx (bool_expr ~depth ctx sym c) with
       | Some (Csp.Value.Bool b) -> Some b
       | Some _ | None -> None)
  in
  let apply_step sym k =
    match step with
    | None -> k sym
    | Some u -> effect_expr ~depth ctx sym u { ks with next = k; brk = None; cont = None }
  in
  (* one pass through the body, then the step and the [n+1]th test *)
  let rec pass sym n =
    let again sym' = apply_step sym' (fun s -> iter s (n + 1)) in
    trans_stmt ~depth ctx sym body
      { ks with next = again; brk = Some ks.next; cont = Some again }
  and iter sym n =
    if n >= ctx.config.max_unroll then begin
      warn ctx "loop exceeded the unroll bound (%d); truncated"
        ctx.config.max_unroll;
      ks.next sym
    end
    else
      match static_cond sym with
      | None ->
        warn ctx "loop with a non-static condition skipped";
        ks.next sym
      | Some false -> ks.next sym
      | Some true -> pass sym n
  in
  (* do-while: the first pass is unconditional *)
  if test_first then iter sym 0 else pass sym 0

and effect_expr ~depth ctx sym (e : A.expr) ks =
  match e with
  | A.E_assign (op, lhs, rhs) -> assign_effect ~depth ctx sym op lhs rhs ks
  | A.E_incr (up, _, lv) ->
    let op = if up then A.A_add else A.A_sub in
    assign_effect ~depth ctx sym op lv (A.E_int 1) ks
  | A.E_call ("output", [ arg ]) ->
    (match arg with
     | A.E_this ->
       (match sym.this_ctx with
        | Some (m, bindings) -> output_prefix ctx m bindings (ks.next sym)
        | None ->
          warn ctx "output(this) outside a message handler; skipped";
          ks.next sym)
     | A.E_ident v ->
       (match List.assoc_opt v sym.msg_types with
        | Some m ->
          let bindings =
            Option.value ~default:[] (List.assoc_opt v sym.msg_fields)
          in
          output_prefix ctx m bindings (ks.next sym)
        | None ->
          warn ctx "output(%s): not a known message variable; skipped" v;
          ks.next sym)
     | _ ->
       warn ctx "output() with a complex argument; skipped";
       ks.next sym)
  | A.E_call ("setTimer", A.E_ident t :: rest) ->
    if List.mem t ctx.timer_names then
      if ctx.config.timed then begin
        (* discrete tock countdown: duration / tock_ms ticks, clamped *)
        let ticks =
          match rest with
          | [ d ] ->
            (match try_const ctx (int_expr ~depth ctx sym d) with
             | Some (Csp.Value.Int ms) ->
               let is_s_timer =
                 List.exists
                   (fun v ->
                     String.equal v.A.var_name t && v.A.var_ty = A.T_timer)
                   ctx.prog.A.variables
               in
               let ms = if is_s_timer then ms * 1000 else ms in
               let n = max 1 (ms / ctx.config.tock_ms) in
               if n > ctx.config.max_ticks then begin
                 warn ctx
                   "timer %s duration clamps to %d tocks (max_ticks)" t
                   ctx.config.max_ticks;
                 ctx.config.max_ticks
               end
               else n
             | _ ->
               warn ctx "setTimer(%s, non-constant) armed for 1 tock" t;
               1)
          | _ ->
            warn ctx "setTimer(%s) without a duration; armed for 1 tock" t;
            1
        in
        ks.next
          { sym with timer_flags = update_assoc t (E.int ticks) sym.timer_flags }
      end
      else
        ks.next
          { sym with timer_flags = update_assoc t (E.bool true) sym.timer_flags }
    else begin
      warn ctx "setTimer on unknown timer %s; skipped" t;
      ks.next sym
    end
  | A.E_call ("cancelTimer", [ A.E_ident t ]) ->
    if List.mem t ctx.timer_names then
      let off = if ctx.config.timed then E.int 0 else E.bool false in
      ks.next { sym with timer_flags = update_assoc t off sym.timer_flags }
    else begin
      warn ctx "cancelTimer on unknown timer %s; skipped" t;
      ks.next sym
    end
  | A.E_call ("write", _) ->
    (* logging has no protocol-visible effect *)
    ks.next sym
  | A.E_call (name, args) ->
    (match find_function ctx name with
     | Some f -> inline_proc_call ~depth ctx sym f args ks
     | None ->
       warn ctx "call to unknown function %s; skipped" name;
       ks.next sym)
  | _ ->
    (* value-only expression statement: no protocol effect *)
    ks.next sym

and inline_proc_call ~depth ctx sym f args ks =
  if depth >= max_inline_depth then begin
    warn ctx "inline depth exceeded for %s; call skipped" f.A.fn_name;
    ks.next sym
  end
  else begin
    let arg_exprs = List.map (int_expr ~depth ctx sym) args in
    let saved_locals = sym.locals in
    let locals = List.map2 (fun (_, p) e -> p, e) f.A.fn_params arg_exprs in
    let restore k sym' = k { sym' with locals = saved_locals } in
    trans_stmts ~depth:(depth + 1) ctx { sym with locals } f.A.fn_body
      {
        next = restore ks.next;
        exit = restore ks.next;  (* return ends the call, not the handler *)
        brk = None;
        cont = None;
      }
  end

and assign_effect ~depth ctx sym op lhs rhs ks =
  let rhs_e = int_expr ~depth ctx sym rhs in
  let combine old =
    let e =
      match op with
      | A.A_eq -> rhs_e
      | A.A_add -> E.Bin (E.Add, old, rhs_e)
      | A.A_sub -> E.Bin (E.Sub, old, rhs_e)
      | A.A_mul -> E.Bin (E.Mul, old, rhs_e)
      | A.A_div -> E.Bin (E.Div, old, rhs_e)
      | A.A_mod -> E.Bin (E.Mod, old, rhs_e)
      | A.A_band | A.A_bor | A.A_bxor | A.A_shl | A.A_shr ->
        warn ctx "bitwise compound assignment abstracted to plain store";
        rhs_e
    in
    fold_expr ctx e
  in
  match lhs with
  | A.E_ident name when List.mem_assoc name sym.locals ->
    let old = List.assoc name sym.locals in
    ks.next { sym with locals = update_assoc name (combine old) sym.locals }
  | A.E_ident name when List.mem name ctx.tracked ->
    let old =
      Option.value ~default:(E.int 0) (List.assoc_opt name sym.globals)
    in
    let v = wrap_global ctx (combine old) in
    ks.next { sym with globals = update_assoc name v sym.globals }
  | A.E_ident name ->
    warn ctx "assignment to untracked variable %s ignored" name;
    ks.next sym
  | A.E_member (A.E_ident v, member) when List.mem_assoc v sym.msg_types ->
    (match member with
     | "id" | "dlc" ->
       (* frame metadata is fixed by the channel in the model *)
       ks.next sym
     | signal ->
       let m = List.assoc v sym.msg_types in
       if
         List.exists
           (fun s -> String.equal s.Candb.Dbc_ast.sig_name signal)
           m.Candb.Dbc_ast.signals
       then begin
         let fields =
           Option.value ~default:[] (List.assoc_opt v sym.msg_fields)
         in
         let old =
           Option.value ~default:(E.int 0) (List.assoc_opt signal fields)
         in
         let fields' = update_assoc signal (combine old) fields in
         ks.next { sym with msg_fields = update_assoc v fields' sym.msg_fields }
       end
       else begin
         warn ctx "message %s has no signal %s; assignment ignored"
           m.Candb.Dbc_ast.msg_name signal;
         ks.next sym
       end)
  | A.E_member (A.E_this, signal) ->
    (match sym.this_ctx with
     | Some (m, bindings) ->
       let old =
         Option.value ~default:(E.int 0) (List.assoc_opt signal bindings)
       in
       let bindings' = update_assoc signal (combine old) bindings in
       ks.next { sym with this_ctx = Some (m, bindings') }
     | None ->
       warn ctx "assignment to 'this' outside a handler ignored";
       ks.next sym)
  | A.E_method _ ->
    warn ctx "byte-level message write ignored by the model";
    ks.next sym
  | A.E_index _ ->
    warn ctx "array element write ignored by the model";
    ks.next sym
  | _ ->
    warn ctx "assignment to an unsupported lvalue ignored";
    ks.next sym

(* ------------------------------------------------------------------ *)
(* Program-level extraction                                            *)
(* ------------------------------------------------------------------ *)

let integral_globals prog =
  List.filter_map
    (fun v ->
      if is_integral v.A.var_ty && v.A.var_dims = [] then Some v.A.var_name
      else None)
    prog.A.variables

let timer_globals prog =
  List.filter_map
    (fun v ->
      match v.A.var_ty with
      | A.T_timer | A.T_ms_timer -> Some v.A.var_name
      | _ -> None)
    prog.A.variables

let global_msg_types ctx prog =
  List.filter_map
    (fun v ->
      match v.A.var_ty with
      | A.T_message (A.Msg_name n) ->
        (match Candb.Dbc_ast.find_message_by_name ctx.db n with
         | Some m -> Some (v.A.var_name, m)
         | None ->
           warn ctx "message variable %s has unknown type %s" v.A.var_name n;
           None)
      | A.T_message sel ->
        (match resolve_message ctx sel with
         | Some m -> Some (v.A.var_name, m)
         | None ->
           warn ctx "message variable %s has no database entry" v.A.var_name;
           None)
      | _ -> None)
    prog.A.variables

let extract_into ?(config = default_config) ~defs ~db ~node prog =
  let tracked =
    match config.track_globals with
    | Some names -> names
    | None -> integral_globals prog
  in
  let timer_names = timer_globals prog in
  let ctx =
    {
      config;
      defs;
      db;
      node;
      prog;
      tracked;
      timer_names;
      warnings = [];
      where = "program";
      used_chans = Hashtbl.create 8;
      tx_chans = Hashtbl.create 8;
    }
  in
  let msg_types = global_msg_types ctx prog in
  (* Initial values of tracked globals, folded progressively so that one
     initializer may reference an earlier global. *)
  let init_values =
    List.fold_left
      (fun acc name ->
        let decl =
          List.find_opt
            (fun v -> String.equal v.A.var_name name)
            prog.A.variables
        in
        let init_sym =
          {
            globals = List.map (fun (n, v) -> n, E.Lit v) acc;
            timer_flags = [];
            locals = [];
            msg_fields = [];
            msg_types;
            this_ctx = None;
          }
        in
        let value =
          match decl with
          | Some { A.var_init = Some e; _ } ->
            ctx.where <- "globals";
            (match
               try_const ctx (wrap_global ctx (int_expr ctx init_sym e))
             with
             | Some v -> v
             | None ->
               warn ctx "initializer of %s is not constant; using 0" name;
               Csp.Value.Int 0)
          | _ -> Csp.Value.Int 0
        in
        acc @ [ name, value ])
      [] tracked
  in
  let params = tracked @ List.map armed_param timer_names in
  let main_name = node in
  let entry_name = node ^ "_INIT" in
  let loop_sym =
    {
      globals = List.map (fun g -> g, E.Var g) tracked;
      timer_flags = List.map (fun t -> t, E.Var (armed_param t)) timer_names;
      locals = [];
      msg_fields = [];
      msg_types;
      this_ctx = None;
    }
  in
  let recurse sym =
    P.call
      ( main_name,
        List.map (fun g -> List.assoc g sym.globals) tracked
        @ List.map (fun t -> List.assoc t sym.timer_flags) timer_names )
  in
  let handler_ks = { next = recurse; brk = None; cont = None; exit = recurse } in
  (* Message branches. *)
  let message_branch (m : Candb.Dbc_ast.message) body =
    let chan = chan_name ctx m in
    use_chan ctx chan;
    let items =
      List.map (fun s -> P.In (input_var s, None)) m.Candb.Dbc_ast.signals
    in
    let bindings =
      List.map
        (fun s -> s.Candb.Dbc_ast.sig_name, E.Var (input_var s))
        m.Candb.Dbc_ast.signals
    in
    let sym = { loop_sym with this_ctx = Some (m, bindings) } in
    P.prefix_items (chan, items, trans_stmts ctx sym body handler_ks)
  in
  let branches = ref [] in
  List.iter
    (fun h ->
      ctx.where <- A.event_name h.A.event;
      match h.A.event with
      | A.Ev_message sel ->
        let targets =
          match sel with
          | A.Msg_any -> db.Candb.Dbc_ast.messages
          | _ ->
            (match resolve_message ctx sel with
             | Some m -> [ m ]
             | None ->
               warn ctx "handler for unknown message dropped";
               [])
        in
        List.iter
          (fun m -> branches := message_branch m h.A.body :: !branches)
          targets
      | A.Ev_timer t ->
        if List.mem t timer_names then begin
          if not config.timed then begin
            let chan = timer_chan ctx t in
            if Option.is_none (Csp.Defs.channel_type defs chan) then
              Csp.Defs.declare_channel defs chan [];
            use_chan ctx chan;
            let sym =
              { loop_sym with
                timer_flags =
                  update_assoc t (E.bool false) loop_sym.timer_flags }
            in
            branches :=
              P.guard
                ( E.Var (armed_param t),
                  P.prefix_items (chan, [], trans_stmts ctx sym h.A.body handler_ks)
                )
              :: !branches
          end
          (* timed mode: the handler fires from the tock branch below *)
        end
        else warn ctx "on timer for undeclared timer %s dropped" t
      | A.Ev_key c ->
        let chan = key_chan ctx c in
        if Option.is_none (Csp.Defs.channel_type defs chan) then
          Csp.Defs.declare_channel defs chan [];
        use_chan ctx chan;
        branches :=
          P.prefix_items (chan, [], trans_stmts ctx loop_sym h.A.body handler_ks)
          :: !branches
      | A.Ev_start | A.Ev_prestart | A.Ev_stop -> ())
    prog.A.handlers;
  (* Timed mode: one tock branch decrements every armed countdown; a
     timer whose countdown expires on this tock runs its handler body
     (multiple expiries chain in declaration order). *)
  if config.timed && timer_names <> [] then begin
    ctx.where <- "tock";
    if Option.is_none (Csp.Defs.channel_type defs "tock") then
      Csp.Defs.declare_channel defs "tock" [];
    use_chan ctx "tock";
    let handler_body t =
      List.find_map
        (fun h ->
          match h.A.event with
          | A.Ev_timer t' when String.equal t t' -> Some h.A.body
          | _ -> None)
        prog.A.handlers
      |> Option.value ~default:[]
    in
    (* after the decrement, chain expiry handlers over the timers *)
    let rec chain sym = function
      | [] -> recurse sym
      | t :: rest ->
        let cnt_before = List.assoc t loop_sym.timer_flags in
        P.ite
          ( E.Bin (E.Eq, cnt_before, E.int 1),
            trans_stmts ctx sym (handler_body t)
              { next = (fun s -> chain s rest);
                exit = (fun s -> chain s rest);
                brk = None;
                cont = None },
            chain sym rest )
    in
    let decremented =
      {
        loop_sym with
        timer_flags =
          List.map
            (fun (t, cnt) ->
              ( t,
                E.If
                  ( E.Bin (E.Gt, cnt, E.int 0),
                    E.Bin (E.Sub, cnt, E.int 1),
                    E.int 0 ) ))
            loop_sym.timer_flags;
      }
    in
    branches := P.prefix_items ("tock", [], chain decremented timer_names) :: !branches
  end;
  let main_body = P.ext_all (List.rev !branches) in
  Csp.Defs.define_proc defs main_name params main_body;
  (* Entry process: preStart then start bodies, then the main loop. *)
  let start_bodies =
    List.filter_map
      (fun h ->
        match h.A.event with
        | A.Ev_prestart -> Some (`Pre, h.A.body)
        | A.Ev_start -> Some (`Start, h.A.body)
        | _ -> None)
      prog.A.handlers
  in
  let ordered =
    List.filter_map (fun (k, b) -> if k = `Pre then Some b else None)
      start_bodies
    @ List.filter_map (fun (k, b) -> if k = `Start then Some b else None)
        start_bodies
  in
  let init_sym =
    {
      globals = List.map (fun (n, v) -> n, E.Lit v) init_values;
      timer_flags =
        List.map
          (fun t -> t, if config.timed then E.int 0 else E.bool false)
          timer_names;
      locals = [];
      msg_fields = [];
      msg_types;
      this_ctx = None;
    }
  in
  ctx.where <- "on start";
  let entry_body = trans_stmts ctx init_sym (List.concat ordered) handler_ks in
  Csp.Defs.define_proc defs entry_name [] entry_body;
  let alphabet =
    Csp.Eventset.chans (Hashtbl.fold (fun c () acc -> c :: acc) ctx.used_chans [])
  in
  {
    process_name = main_name;
    entry_name;
    alphabet;
    tracked;
    timers = timer_names;
    tx_channels =
      Hashtbl.fold (fun pair () acc -> pair :: acc) ctx.tx_chans []
      |> List.sort compare;
    warnings = List.rev ctx.warnings;
  }

let entry_call model = P.call (model.entry_name, [])
