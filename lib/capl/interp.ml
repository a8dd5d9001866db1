type value =
  | V_int of int
  | V_float of float
  | V_string of string
  | V_msg of msg_obj
  | V_array of cell array

and cell = {
  cell_ty : Ast.ty;
  mutable cell_v : value;
}

and msg_obj = {
  mutable m_id : int;
  mutable m_dlc : int;
  m_data : int array;
  m_spec : Msgdb.message_spec option;
}

type runtime = {
  rt_output : msg_obj -> unit;
  rt_set_timer : name:string -> us:int -> unit;
  rt_cancel_timer : name:string -> unit;
  rt_write : string -> unit;
  rt_now_us : unit -> int;
}

let null_runtime =
  {
    rt_output = (fun _ -> ());
    rt_set_timer = (fun ~name:_ ~us:_ -> ());
    rt_cancel_timer = (fun ~name:_ -> ());
    rt_write = (fun _ -> ());
    rt_now_us = (fun () -> 0);
  }

exception Runtime_error of string

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Control-flow signals inside statement execution. *)
exception Brk
exception Cont
exception Ret of value

type t = {
  prog : Ast.program;
  db : Msgdb.t;
  mutable rt : runtime;
  globals : (string, cell) Hashtbl.t;
  mutable rng : int;  (* deterministic LCG state *)
  mutable depth : int;  (* call depth guard *)
}

let program t = t.prog
let set_runtime t rt = t.rt <- rt

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let truthy = function
  | V_int n -> n <> 0
  | V_float f -> f <> 0.0
  | V_string s -> s <> ""
  | V_msg _ | V_array _ -> true

let as_int = function
  | V_int n -> n
  | V_float f -> int_of_float f
  | V_string _ -> err "string used as integer"
  | V_msg _ -> err "message object used as integer"
  | V_array _ -> err "array used as integer"

let as_float = function
  | V_int n -> float_of_int n
  | V_float f -> f
  | V_string _ | V_msg _ | V_array _ -> err "value used as float"

(* Truncate an integer to the width/signedness of a CAPL type; mirrors the
   CANoe compiler's storage semantics. *)
let mask_for ty v =
  let wrap_signed bits n =
    let m = 1 lsl bits in
    let x = ((n mod m) + m) mod m in
    if x >= m / 2 then x - m else x
  in
  match ty with
  | Ast.T_byte -> v land 0xFF
  | Ast.T_word -> v land 0xFFFF
  | Ast.T_dword -> v land 0xFFFFFFFF
  | Ast.T_char -> wrap_signed 8 v
  | Ast.T_int -> wrap_signed 16 v  (* CAPL int is 16-bit *)
  | Ast.T_long -> wrap_signed 32 v
  | Ast.T_int64 | Ast.T_qword -> v
  | Ast.T_float | Ast.T_double | Ast.T_void | Ast.T_message _ | Ast.T_timer
  | Ast.T_ms_timer ->
    v

let coerce ty value =
  match ty, value with
  | (Ast.T_float | Ast.T_double), V_int n -> V_float (float_of_int n)
  | (Ast.T_float | Ast.T_double), V_float _ -> value
  | _, V_int n -> V_int (mask_for ty n)
  | _, V_float f -> V_int (mask_for ty (int_of_float f))
  | _, _ -> value

let rec pp_value ppf = function
  | V_int n -> Format.pp_print_int ppf n
  | V_float f -> Format.pp_print_float ppf f
  | V_string s -> Format.fprintf ppf "%S" s
  | V_msg m -> Format.fprintf ppf "<message 0x%X dlc=%d>" m.m_id m.m_dlc
  | V_array cells ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf c -> pp_value ppf c.cell_v))
      (Array.to_list cells)

(* ------------------------------------------------------------------ *)
(* Message objects                                                     *)
(* ------------------------------------------------------------------ *)

let fresh_msg ?spec ?(id = 0) ?(dlc = 8) () =
  let id, dlc =
    match spec with
    | Some (s : Msgdb.message_spec) -> s.Msgdb.msg_id, s.Msgdb.msg_dlc
    | None -> id, dlc
  in
  { m_id = id; m_dlc = dlc; m_data = Array.make 8 0; m_spec = spec }

let frame_of_msg m =
  Canbus.Frame.make ~id:m.m_id
    (Array.to_list (Array.sub m.m_data 0 (min 8 (max 0 m.m_dlc))))

let msg_of_frame ?(db = Msgdb.empty) (f : Canbus.Frame.t) =
  let spec = Msgdb.find_by_id db f.Canbus.Frame.id in
  let m = fresh_msg ?spec ~id:f.Canbus.Frame.id ~dlc:f.Canbus.Frame.dlc () in
  m.m_id <- f.Canbus.Frame.id;
  m.m_dlc <- f.Canbus.Frame.dlc;
  for i = 0 to f.Canbus.Frame.dlc - 1 do
    m.m_data.(i) <- Canbus.Frame.data_byte f i
  done;
  m

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type frame_ctx = {
  scopes : (string, cell) Hashtbl.t list;  (* innermost first *)
  this : msg_obj option;
}

let lookup_cell t ctx name =
  let rec go = function
    | [] -> Hashtbl.find_opt t.globals name
    | scope :: rest ->
      (match Hashtbl.find_opt scope name with
       | Some c -> Some c
       | None -> go rest)
  in
  go ctx.scopes

let default_value t (ty : Ast.ty) dims =
  let scalar () =
    match ty with
    | Ast.T_float | Ast.T_double -> V_float 0.0
    | Ast.T_message sel ->
      let spec =
        match sel with
        | Ast.Msg_name n -> Msgdb.find_by_name t.db n
        | Ast.Msg_id _ | Ast.Msg_any -> None
      in
      let id = match sel with Ast.Msg_id id -> id | _ -> 0 in
      V_msg (fresh_msg ?spec ~id ())
    | _ -> V_int 0
  in
  let rec build = function
    | [] -> scalar ()
    | d :: rest ->
      V_array (Array.init d (fun _ -> { cell_ty = ty; cell_v = build rest }))
  in
  build dims

(* ------------------------------------------------------------------ *)
(* Mini printf for write()                                             *)
(* ------------------------------------------------------------------ *)

let format_write fmt args =
  let buf = Buffer.create 64 in
  let args = ref args in
  let next () =
    match !args with
    | [] -> err "write(): not enough arguments for format %S" fmt
    | a :: rest ->
      args := rest;
      a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
       | '%' -> Buffer.add_char buf '%'
       | 'd' | 'i' -> Buffer.add_string buf (string_of_int (as_int (next ())))
       | 'x' | 'X' -> Buffer.add_string buf (Printf.sprintf "%x" (as_int (next ())))
       | 'c' -> Buffer.add_char buf (Char.chr (as_int (next ()) land 0xFF))
       | 'f' | 'g' ->
         Buffer.add_string buf (Printf.sprintf "%g" (as_float (next ())))
       | 's' ->
         (match next () with
          | V_string s -> Buffer.add_string buf s
          | v -> Buffer.add_string buf (Format.asprintf "%a" pp_value v))
       | c -> err "write(): unsupported format specifier %%%c" c);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let max_call_depth = 256

let rec eval t ctx (e : Ast.expr) : value =
  match e with
  | Ast.E_int n -> V_int n
  | Ast.E_float f -> V_float f
  | Ast.E_char c -> V_int (Char.code c)
  | Ast.E_string s -> V_string s
  | Ast.E_this ->
    (match ctx.this with
     | Some m -> V_msg m
     | None -> err "'this' is not bound in this context")
  | Ast.E_ident name ->
    (match lookup_cell t ctx name with
     | Some c -> c.cell_v
     | None -> err "undeclared identifier %s" name)
  | Ast.E_member (base, member) -> read_member t ctx base member
  | Ast.E_index (base, idx) ->
    let cells = as_array (eval t ctx base) in
    let i = as_int (eval t ctx idx) in
    if i < 0 || i >= Array.length cells then
      err "array index %d out of bounds" i;
    cells.(i).cell_v
  | Ast.E_call (name, args) -> call t ctx name args
  | Ast.E_method (base, member, args) -> eval_method t ctx base member args
  | Ast.E_unop (op, e1) ->
    let v = eval t ctx e1 in
    (match op, v with
     | Ast.U_neg, V_int n -> V_int (-n)
     | Ast.U_neg, V_float f -> V_float (-.f)
     | Ast.U_not, v -> V_int (if truthy v then 0 else 1)
     | Ast.U_bnot, v -> V_int (lnot (as_int v))
     | Ast.U_neg, _ -> err "cannot negate this value")
  | Ast.E_binop (op, e1, e2) -> binop t ctx op e1 e2
  | Ast.E_assign (op, lhs, rhs) ->
    let rhs_v = eval t ctx rhs in
    assign t ctx op lhs rhs_v
  | Ast.E_incr (up, prefix, lv) ->
    let old = eval t ctx lv in
    let delta = if up then 1 else -1 in
    let updated = V_int (as_int old + delta) in
    let stored = assign t ctx Ast.A_eq lv updated in
    if prefix then stored else old
  | Ast.E_ternary (c, a, b) ->
    if truthy (eval t ctx c) then eval t ctx a else eval t ctx b

and as_array = function
  | V_array cells -> cells
  | V_string s ->
    (* char arrays and strings interconvert in CAPL *)
    Array.init (String.length s) (fun i ->
        { cell_ty = Ast.T_char; cell_v = V_int (Char.code s.[i]) })
  | _ -> err "value is not an array"

and binop t ctx op e1 e2 =
  match op with
  | Ast.B_land ->
    V_int (if truthy (eval t ctx e1) && truthy (eval t ctx e2) then 1 else 0)
  | Ast.B_lor ->
    V_int (if truthy (eval t ctx e1) || truthy (eval t ctx e2) then 1 else 0)
  | _ ->
    let v1 = eval t ctx e1 in
    let v2 = eval t ctx e2 in
    let float_op f =
      let a = as_float v1 and b = as_float v2 in
      V_float (f a b)
    in
    let is_float =
      match v1, v2 with
      | (V_float _, _) | (_, V_float _) -> true
      | _ -> false
    in
    (match op with
     | Ast.B_add when is_float -> float_op ( +. )
     | Ast.B_sub when is_float -> float_op ( -. )
     | Ast.B_mul when is_float -> float_op ( *. )
     | Ast.B_div when is_float -> float_op ( /. )
     | Ast.B_add -> V_int (as_int v1 + as_int v2)
     | Ast.B_sub -> V_int (as_int v1 - as_int v2)
     | Ast.B_mul -> V_int (as_int v1 * as_int v2)
     | Ast.B_div ->
       let b = as_int v2 in
       if b = 0 then err "division by zero";
       V_int (as_int v1 / b)
     | Ast.B_mod ->
       let b = as_int v2 in
       if b = 0 then err "modulo by zero";
       V_int (as_int v1 mod b)
     | Ast.B_shl -> V_int (as_int v1 lsl as_int v2)
     | Ast.B_shr -> V_int (as_int v1 asr as_int v2)
     | Ast.B_band -> V_int (as_int v1 land as_int v2)
     | Ast.B_bor -> V_int (as_int v1 lor as_int v2)
     | Ast.B_bxor -> V_int (as_int v1 lxor as_int v2)
     | Ast.B_eq | Ast.B_neq | Ast.B_lt | Ast.B_le | Ast.B_gt | Ast.B_ge ->
       let r =
         match v1, v2 with
         | V_string a, V_string b -> String.compare a b
         | _ -> Float.compare (as_float v1) (as_float v2)
       in
       let holds =
         match op with
         | Ast.B_eq -> r = 0
         | Ast.B_neq -> r <> 0
         | Ast.B_lt -> r < 0
         | Ast.B_le -> r <= 0
         | Ast.B_gt -> r > 0
         | Ast.B_ge -> r >= 0
         | _ -> invalid_arg "Interp.eval: non-comparison operator"
       in
       V_int (if holds then 1 else 0)
     | Ast.B_land | Ast.B_lor ->
       invalid_arg "Interp.eval: logical operator reached the strict path")

and read_member t ctx base member =
  match eval t ctx base with
  | V_msg m ->
    (match member with
     | "id" -> V_int m.m_id
     | "dlc" -> V_int m.m_dlc
     | "dir" -> V_int 0
     | "can" -> V_int 1
     | "time" -> V_int (t.rt.rt_now_us () / 10)  (* CANoe time units: 10us *)
     | signal ->
       (match m.m_spec with
        | None -> err "message has no known type; cannot read signal %s" signal
        | Some spec ->
          (match Msgdb.find_signal spec signal with
           | None ->
             err "message %s has no signal %s" spec.Msgdb.msg_name signal
           | Some s -> V_int (Msgdb.decode_signal s m.m_data))))
  | _ -> err "member access on a non-message value"

and eval_method t ctx base member args =
  match eval t ctx base with
  | V_msg m ->
    let arg_ints = List.map (fun a -> as_int (eval t ctx a)) args in
    (match member, arg_ints with
     | "byte", [ i ] ->
       if i < 0 || i > 7 then err "byte index %d out of range" i;
       V_int m.m_data.(i)
     | "word", [ i ] ->
       if i < 0 || i > 6 then err "word index %d out of range" i;
       V_int (m.m_data.(i) lor (m.m_data.(i + 1) lsl 8))
     | "dword", [ i ] ->
       if i < 0 || i > 4 then err "dword index %d out of range" i;
       V_int
         (m.m_data.(i)
          lor (m.m_data.(i + 1) lsl 8)
          lor (m.m_data.(i + 2) lsl 16)
          lor (m.m_data.(i + 3) lsl 24))
     | _ -> err "unknown message method %s/%d" member (List.length arg_ints))
  | _ -> err "method call on a non-message value"

and assign t ctx op lhs rhs_v =
  let combined old =
    match op with
    | Ast.A_eq -> rhs_v
    | Ast.A_add ->
      (match old, rhs_v with
       | V_float _, _ | _, V_float _ -> V_float (as_float old +. as_float rhs_v)
       | _ -> V_int (as_int old + as_int rhs_v))
    | Ast.A_sub -> V_int (as_int old - as_int rhs_v)
    | Ast.A_mul -> V_int (as_int old * as_int rhs_v)
    | Ast.A_div ->
      let b = as_int rhs_v in
      if b = 0 then err "division by zero";
      V_int (as_int old / b)
    | Ast.A_mod ->
      let b = as_int rhs_v in
      if b = 0 then err "modulo by zero";
      V_int (as_int old mod b)
    | Ast.A_band -> V_int (as_int old land as_int rhs_v)
    | Ast.A_bor -> V_int (as_int old lor as_int rhs_v)
    | Ast.A_bxor -> V_int (as_int old lxor as_int rhs_v)
    | Ast.A_shl -> V_int (as_int old lsl as_int rhs_v)
    | Ast.A_shr -> V_int (as_int old asr as_int rhs_v)
  in
  match lhs with
  | Ast.E_ident name ->
    (match lookup_cell t ctx name with
     | None -> err "undeclared identifier %s" name
     | Some cell ->
       let v = coerce cell.cell_ty (combined cell.cell_v) in
       cell.cell_v <- v;
       v)
  | Ast.E_index (base, idx) ->
    let cells = as_array (eval t ctx base) in
    let i = as_int (eval t ctx idx) in
    if i < 0 || i >= Array.length cells then
      err "array index %d out of bounds" i;
    let cell = cells.(i) in
    let v = coerce cell.cell_ty (combined cell.cell_v) in
    cell.cell_v <- v;
    v
  | Ast.E_member (base, member) ->
    (match eval t ctx base with
     | V_msg m ->
       (match member with
        | "id" ->
          let v = as_int (combined (V_int m.m_id)) in
          m.m_id <- v land 0x1FFFFFFF;
          V_int m.m_id
        | "dlc" ->
          let v = as_int (combined (V_int m.m_dlc)) in
          if v < 0 || v > 8 then err "dlc %d out of range" v;
          m.m_dlc <- v;
          V_int v
        | signal ->
          (match m.m_spec with
           | None ->
             err "message has no known type; cannot write signal %s" signal
           | Some spec ->
             (match Msgdb.find_signal spec signal with
              | None ->
                err "message %s has no signal %s" spec.Msgdb.msg_name signal
              | Some s ->
                let old = V_int (Msgdb.decode_signal s m.m_data) in
                let v = as_int (combined old) in
                Msgdb.encode_signal s m.m_data v;
                V_int v)))
     | _ -> err "member assignment on a non-message value")
  | Ast.E_method (base, "byte", [ idx ]) ->
    (match eval t ctx base with
     | V_msg m ->
       let i = as_int (eval t ctx idx) in
       if i < 0 || i > 7 then err "byte index %d out of range" i;
       let v = as_int (combined (V_int m.m_data.(i))) land 0xFF in
       m.m_data.(i) <- v;
       if i >= m.m_dlc then m.m_dlc <- i + 1;
       V_int v
     | _ -> err "byte() assignment on a non-message value")
  | Ast.E_this -> err "cannot assign to 'this' itself"
  | _ -> err "assignment to a non-lvalue"

and call t ctx name args =
  match name with
  | "output" ->
    (match List.map (eval t ctx) args with
     | [ V_msg m ] ->
       t.rt.rt_output m;
       V_int 0
     | _ -> err "output() takes exactly one message")
  | "setTimer" ->
    (match args with
     | [ Ast.E_ident tname; dur ] ->
       let cell =
         match lookup_cell t ctx tname with
         | Some c -> c
         | None -> err "undeclared timer %s" tname
       in
       let d = as_int (eval t ctx dur) in
       let us =
         match cell.cell_ty with
         | Ast.T_ms_timer -> d * 1_000
         | Ast.T_timer -> d * 1_000_000
         | _ -> err "%s is not a timer" tname
       in
       t.rt.rt_set_timer ~name:tname ~us;
       V_int 0
     | _ -> err "setTimer() takes a timer variable and a duration")
  | "cancelTimer" ->
    (match args with
     | [ Ast.E_ident tname ] ->
       t.rt.rt_cancel_timer ~name:tname;
       V_int 0
     | _ -> err "cancelTimer() takes a timer variable")
  | "write" ->
    (match args with
     | Ast.E_string fmt :: rest ->
       let values = List.map (eval t ctx) rest in
       t.rt.rt_write (format_write fmt values);
       V_int 0
     | _ -> err "write() needs a literal format string")
  | "elCount" ->
    (match List.map (eval t ctx) args with
     | [ V_array cells ] -> V_int (Array.length cells)
     | [ V_string s ] -> V_int (String.length s)
     | _ -> err "elCount() takes an array")
  | "abs" ->
    (match List.map (eval t ctx) args with
     | [ V_int n ] -> V_int (abs n)
     | [ V_float f ] -> V_float (Float.abs f)
     | _ -> err "abs() takes one number")
  | "random" ->
    (match List.map (eval t ctx) args with
     | [ V_int n ] when n > 0 ->
       (* deterministic LCG so simulations are reproducible *)
       t.rng <- ((t.rng * 1103515245) + 12345) land 0x3FFFFFFF;
       V_int (t.rng mod n)
     | _ -> err "random() takes a positive bound")
  | "timeNow" -> V_int (t.rt.rt_now_us () / 10)
  | "getValue" | "putValue" -> err "%s: system variables are not simulated" name
  | _ ->
    (match
       List.find_opt (fun f -> String.equal f.Ast.fn_name name)
         t.prog.Ast.functions
     with
     | None -> err "call to unknown function %s" name
     | Some f ->
       if List.length f.Ast.fn_params <> List.length args then
         err "function %s expects %d arguments" name
           (List.length f.Ast.fn_params);
       if t.depth >= max_call_depth then err "call depth exceeded in %s" name;
       let values = List.map (eval t ctx) args in
       t.depth <- t.depth + 1;
       let result = run_function t ?this:ctx.this f values in
       t.depth <- t.depth - 1;
       result)

(* A function body is its own [break]/[continue] boundary: one that
   escapes it is a runtime error, never a jump in the caller's loop. *)
and run_function t ?this f values =
  let scope = Hashtbl.create 8 in
  List.iter2
    (fun (ty, pname) v ->
      Hashtbl.replace scope pname { cell_ty = ty; cell_v = coerce ty v })
    f.Ast.fn_params values;
  match exec_block t { scopes = [ scope ]; this } f.Ast.fn_body with
  | () -> V_int 0
  | exception Ret v -> v
  | exception Brk -> err "break escaped function %s" f.Ast.fn_name
  | exception Cont -> err "continue escaped function %s" f.Ast.fn_name

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec t ctx (s : Ast.stmt) : unit =
  match s with
  | Ast.S_expr e -> ignore (eval t ctx e)
  | Ast.S_decl decls ->
    let scope =
      match ctx.scopes with
      | scope :: _ -> scope
      | [] -> err "declaration outside a scope"
    in
    List.iter
      (fun d ->
        let init =
          match d.Ast.var_init with
          | Some e -> coerce d.Ast.var_ty (eval t ctx e)
          | None -> default_value t d.Ast.var_ty d.Ast.var_dims
        in
        Hashtbl.replace scope d.Ast.var_name
          { cell_ty = d.Ast.var_ty; cell_v = init })
      decls
  | Ast.S_if (c, a, b) ->
    if truthy (eval t ctx c) then exec_in_scope t ctx a
    else Option.iter (exec_in_scope t ctx) b
  | Ast.S_loop { cond; body; step; test_first } ->
    let holds () =
      match cond with
      | None -> true
      | Some c -> truthy (eval t ctx c)
    in
    (try
       let go = ref ((not test_first) || holds ()) in
       while !go do
         (try exec_in_scope t ctx body with Cont -> ());
         Option.iter (fun u -> ignore (eval t ctx u)) step;
         go := holds ()
       done
     with Brk -> ())
  | Ast.S_switch (e, cases) ->
    let v = eval t ctx e in
    let scrutinee = as_int v in
    let matches c =
      match c.Ast.case_label with
      | None -> false
      | Some label -> as_int (eval t ctx label) = scrutinee
    in
    let rec find_start = function
      | [] ->
        (* fall back to default *)
        let rec find_default = function
          | [] -> []
          | c :: rest ->
            if c.Ast.case_label = None then c :: rest else find_default rest
        in
        find_default cases
      | c :: rest -> if matches c then c :: rest else find_start rest
    in
    let selected = find_start cases in
    (try
       List.iter
         (fun c -> List.iter (exec_in_scope t ctx) c.Ast.case_body)
         selected
     with Brk -> ())
  | Ast.S_break -> raise Brk
  | Ast.S_continue -> raise Cont
  | Ast.S_return e ->
    let v =
      match e with
      | None -> V_int 0
      | Some e -> eval t ctx e
    in
    raise (Ret v)
  | Ast.S_block body -> exec_block t ctx body

and exec_in_scope t ctx s =
  match s with
  | Ast.S_block body -> exec_block t ctx body
  | _ -> exec t ctx s

and exec_block t ctx body =
  let scope = Hashtbl.create 4 in
  let ctx' = { ctx with scopes = scope :: ctx.scopes } in
  List.iter (exec t ctx') body

(* ------------------------------------------------------------------ *)
(* Construction and event dispatch                                     *)
(* ------------------------------------------------------------------ *)

let create ?(runtime = null_runtime) ?(db = Msgdb.empty) prog =
  let t =
    {
      prog;
      db;
      rt = runtime;
      globals = Hashtbl.create 32;
      rng = 0x5EED;
      depth = 0;
    }
  in
  (* Global initializers may refer to earlier globals. *)
  List.iter
    (fun d ->
      let ctx = { scopes = []; this = None } in
      let init =
        match d.Ast.var_init with
        | Some e -> coerce d.Ast.var_ty (eval t ctx e)
        | None -> default_value t d.Ast.var_ty d.Ast.var_dims
      in
      Hashtbl.replace t.globals d.Ast.var_name
        { cell_ty = d.Ast.var_ty; cell_v = init })
    prog.Ast.variables;
  t

let run_handler t ?this body =
  let ctx = { scopes = []; this } in
  try exec_block t ctx body with
  | Ret _ -> ()
  | Brk -> err "break escaped a handler"
  | Cont -> err "continue escaped a handler"

let fire_event t pred ?this () =
  List.iter
    (fun h -> if pred h.Ast.event then run_handler t ?this h.Ast.body)
    t.prog.Ast.handlers

let fire_start t = fire_event t (fun e -> e = Ast.Ev_start) ()
let fire_prestart t = fire_event t (fun e -> e = Ast.Ev_prestart) ()
let fire_stop t = fire_event t (fun e -> e = Ast.Ev_stop) ()
let fire_key t c = fire_event t (fun e -> e = Ast.Ev_key c) ()

let fire_timer t name =
  fire_event t (fun e -> e = Ast.Ev_timer name) ()

let on_frame t frame =
  let m = msg_of_frame ~db:t.db frame in
  let id = frame.Canbus.Frame.id in
  let name =
    Option.map (fun s -> s.Msgdb.msg_name) (Msgdb.find_by_id t.db id)
  in
  let matches = function
    | Ast.Ev_message (Ast.Msg_name n) -> Some n = name
    | Ast.Ev_message (Ast.Msg_id i) -> i = id
    | Ast.Ev_message Ast.Msg_any -> true
    | _ -> false
  in
  fire_event t matches ~this:m ()

let call_function t name values =
  let f =
    match
      List.find_opt (fun f -> String.equal f.Ast.fn_name name)
        t.prog.Ast.functions
    with
    | Some f -> f
    | None -> err "unknown function %s" name
  in
  if List.length f.Ast.fn_params <> List.length values then
    err "function %s expects %d arguments" name (List.length f.Ast.fn_params);
  run_function t f values

let global t name =
  match Hashtbl.find_opt t.globals name with
  | Some c -> c.cell_v
  | None -> err "no global named %s" name

let set_global t name v =
  match Hashtbl.find_opt t.globals name with
  | Some c -> c.cell_v <- coerce c.cell_ty v
  | None -> err "no global named %s" name
