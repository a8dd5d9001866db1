(** Abstract syntax of the CAPL subset.

    CAPL (Vector's Communication Access Programming Language) is a C-like,
    event-driven language: a program has optional [includes] and
    [variables] sections, a set of event procedures ([on message], [on
    timer], [on key], [on start], ...) and user-defined functions. There is
    no [main]. This AST covers the constructs the paper's grammar handled
    ([on message], [output]) plus the "future work" constructs: functions,
    data structures, control flow, timers and message-member access.

    Control flow is lowered once, by the parser: the three C loops become
    the single node [S_loop], so the checker, interpreter, extractor and
    CFG builder each give loops meaning in one place. Every other walker
    reaches statements and expressions through {!children} and
    {!expr_children}. *)

type pos = {
  line : int;
  col : int;
}

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

type ty =
  | T_int
  | T_long
  | T_int64
  | T_byte
  | T_word
  | T_dword
  | T_qword
  | T_char
  | T_float
  | T_double
  | T_void
  | T_message of msg_selector
  | T_timer  (** second-resolution timer *)
  | T_ms_timer

and msg_selector =
  | Msg_name of string  (** [on message EngineData] *)
  | Msg_id of int  (** [on message 0x123] *)
  | Msg_any  (** [on message *] *)

type unop =
  | U_neg
  | U_not
  | U_bnot

type binop =
  | B_add | B_sub | B_mul | B_div | B_mod
  | B_shl | B_shr
  | B_band | B_bor | B_bxor
  | B_land | B_lor
  | B_eq | B_neq | B_lt | B_le | B_gt | B_ge

type assign_op =
  | A_eq
  | A_add | A_sub | A_mul | A_div | A_mod
  | A_band | A_bor | A_bxor | A_shl | A_shr

type expr =
  | E_int of int
  | E_float of float
  | E_char of char
  | E_string of string
  | E_ident of string
  | E_this  (** the message/timer that triggered the current handler *)
  | E_member of expr * string  (** [m.signal], [m.id], [m.dlc], [m.time] *)
  | E_index of expr * expr
  | E_call of string * expr list
  | E_method of expr * string * expr list  (** [m.byte(0)] *)
  | E_unop of unop * expr
  | E_binop of binop * expr * expr
  | E_assign of assign_op * expr * expr
  | E_incr of bool * bool * expr
      (** [E_incr (is_increment, is_prefix, lvalue)] *)
  | E_ternary of expr * expr * expr

type var_decl = {
  var_ty : ty;
  var_name : string;
  var_dims : int list;  (** array dimensions, outermost first *)
  var_init : expr option;
  var_pos : pos;
}

(** Statements. The three C loops share one node: [while (c) b] is
    [S_loop { cond = Some c; body = b; step = None; test_first = true }],
    [do b while (c);] the same with [test_first = false], and
    [for (i; c; u) b] is [S_block [i; S_loop { cond = c; body = b;
    step = u; test_first = true }]], so the init keeps its own scope.
    [continue] runs [step], then the test. *)
type stmt =
  | S_expr of expr
  | S_decl of var_decl list
  | S_if of expr * stmt * stmt option
  | S_loop of {
      cond : expr option;  (** [None] loops until [break] *)
      body : stmt;
      step : expr option;  (** evaluated after the body and on [continue] *)
      test_first : bool;  (** [false] for [do ... while] *)
    }
  | S_switch of expr * switch_case list
  | S_break
  | S_continue
  | S_return of expr option
  | S_block of stmt list

and switch_case = {
  case_label : expr option;  (** [None] is [default:] *)
  case_body : stmt list;
}

(** A direct child of a statement: an expression it evaluates, or a
    statement sequence it contains (a block, a branch, a loop body or a
    case body). *)
type child =
  | C_expr of expr
  | C_seq of stmt list

(** The direct children of [s], in source order. Walkers that only need
    to reach every statement and expression recurse through this rather
    than matching every statement form. *)
let children (s : stmt) : child list =
  let opt = function Some e -> [ C_expr e ] | None -> [] in
  match s with
  | S_expr e -> [ C_expr e ]
  | S_decl ds -> List.concat_map (fun d -> opt d.var_init) ds
  | S_if (c, a, b) ->
    C_expr c :: C_seq [ a ]
    :: List.map (fun b -> C_seq [ b ]) (Option.to_list b)
  | S_loop { cond; body; step; test_first = true } ->
    opt cond @ opt step @ [ C_seq [ body ] ]
  | S_loop { cond; body; step; test_first = false } ->
    (C_seq [ body ] :: opt step) @ opt cond
  | S_switch (e, cases) ->
    C_expr e
    :: List.concat_map (fun c -> opt c.case_label @ [ C_seq c.case_body ]) cases
  | S_break | S_continue -> []
  | S_return e -> opt e
  | S_block ss -> [ C_seq ss ]

(** The direct subexpressions of [e], in source order. *)
let expr_children (e : expr) : expr list =
  match e with
  | E_int _ | E_float _ | E_char _ | E_string _ | E_ident _ | E_this -> []
  | E_member (a, _) | E_unop (_, a) | E_incr (_, _, a) -> [ a ]
  | E_index (a, b) | E_binop (_, a, b) | E_assign (_, a, b) -> [ a; b ]
  | E_call (_, args) -> args
  | E_method (a, _, args) -> a :: args
  | E_ternary (a, b, c) -> [ a; b; c ]

(** [iter_expr f e] applies [f] to [e] and then to each of its nested
    subexpressions, in source order. *)
let rec iter_expr f e =
  f e;
  List.iter (iter_expr f) (expr_children e)

(** [iter_exprs f body] applies {!iter_expr}[ f] to every expression of
    [body], nested statements included, in source order. *)
let iter_exprs f body =
  let rec seq ss = List.iter stmt ss
  and stmt s =
    List.iter
      (function C_expr e -> iter_expr f e | C_seq ss -> seq ss)
      (children s)
  in
  seq body

type event =
  | Ev_start  (** [on start] *)
  | Ev_prestart  (** [on preStart] *)
  | Ev_stop  (** [on stopMeasurement] *)
  | Ev_key of char
  | Ev_timer of string
  | Ev_message of msg_selector

type handler = {
  event : event;
  body : stmt list;
  handler_pos : pos;
}

type func = {
  fn_ret : ty;
  fn_name : string;
  fn_params : (ty * string) list;
  fn_body : stmt list;
  fn_pos : pos;
}

type program = {
  includes : string list;
  variables : var_decl list;
  handlers : handler list;
  functions : func list;
}

let event_name = function
  | Ev_start -> "start"
  | Ev_prestart -> "preStart"
  | Ev_stop -> "stopMeasurement"
  | Ev_key c -> Printf.sprintf "key '%c'" c
  | Ev_timer t -> "timer " ^ t
  | Ev_message (Msg_name n) -> "message " ^ n
  | Ev_message (Msg_id id) -> Printf.sprintf "message 0x%X" id
  | Ev_message Msg_any -> "message *"

let ty_name = function
  | T_int -> "int"
  | T_long -> "long"
  | T_int64 -> "int64"
  | T_byte -> "byte"
  | T_word -> "word"
  | T_dword -> "dword"
  | T_qword -> "qword"
  | T_char -> "char"
  | T_float -> "float"
  | T_double -> "double"
  | T_void -> "void"
  | T_message (Msg_name n) -> "message " ^ n
  | T_message (Msg_id id) -> Printf.sprintf "message 0x%X" id
  | T_message Msg_any -> "message *"
  | T_timer -> "timer"
  | T_ms_timer -> "msTimer"
