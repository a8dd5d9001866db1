(* Definite assignment and value-range propagation over CAPL — the
   dataflow re-implementation of the two lints that used to be
   syntactic guesses:

   - CAPL006 (uninitialised global read) on a real must-assigned
     analysis: a global with no initialiser counts as set only when
     {e every} CFG path to the read assigns it — the old walker marked
     a global initialised the moment any branch assigned it, so
     [if (c) g = 1; use(g);] slipped through. Function calls are
     credited through interprocedural must-assign summaries (least
     fixpoint from the empty set), which the old pass never did.

   - CAPL008 (narrowing assignment) gated by interval propagation: the
     old type-width heuristic still decides what {e could} truncate,
     and the interval analysis then proves what {e cannot} — a warning
     is emitted only when the old check fires and the value range is
     unknown or genuinely out of range. [int w = 5; byte b; b = w] is
     no longer flagged; [int w = 70000; b = w] still is. Stores clamp
     to the declared type's storage range (byte wraps into [0,255],
     int into [-32768,32767], ...), mirroring the extraction
     semantics' masking, so a clamped range is sound whatever the
     wrapped value. Globals keep their initialiser's range only when
     no body ever reassigns them; anything reassigned anywhere decays
     to its storage range, which is exactly the width the old check
     assumed.

   Diagnostic codes, messages and positions are unchanged from the
   syntactic versions (body-level findings inherit the enclosing
   handler/function position). *)

module A = Capl.Ast
module SSet = Set.Make (String)
module SMap = Map.Make (String)

let d_pos (p : A.pos) : Diag.pos = { Diag.line = p.A.line; col = p.A.col }

(* ------------------------------------------------------------------ *)
(* Width arithmetic (the old syntactic candidate check)                *)
(* ------------------------------------------------------------------ *)

let width_of_ty = function
  | A.T_char | A.T_byte -> Some 8
  | A.T_int | A.T_word -> Some 16
  | A.T_long | A.T_dword -> Some 32
  | A.T_int64 | A.T_qword -> Some 64
  | A.T_float | A.T_double | A.T_void | A.T_message _ | A.T_timer
  | A.T_ms_timer ->
    None

(* Smallest power-of-two width whose signed-or-unsigned range holds [n]:
   255 fits a byte, -200 does not. *)
let literal_width n =
  let fits w =
    let open Int64 in
    let n = of_int n in
    (compare n (neg (shift_left 1L (w - 1))) >= 0)
    && compare n (shift_left 1L w) < 0
  in
  if fits 8 then 8 else if fits 16 then 16 else if fits 32 then 32 else 64

(* Conservative width inference: [None] means "unknown, stay quiet". *)
let rec expr_width ty_of e =
  match e with
  | A.E_int n -> Some (literal_width n)
  | A.E_char _ -> Some 8
  | A.E_ident x -> Option.bind (ty_of x) width_of_ty
  | A.E_binop
      ( ( A.B_add | A.B_sub | A.B_mul | A.B_div | A.B_mod | A.B_band
        | A.B_bor | A.B_bxor ),
        a,
        b ) ->
    (match expr_width ty_of a, expr_width ty_of b with
     | Some x, Some y -> Some (max x y)
     | _ -> None)
  | A.E_binop ((A.B_shl | A.B_shr), a, _) -> expr_width ty_of a
  | A.E_binop
      ( ( A.B_land | A.B_lor | A.B_eq | A.B_neq | A.B_lt | A.B_le | A.B_gt
        | A.B_ge ),
        _,
        _ ) ->
    Some 8
  | A.E_unop (A.U_neg, a) | A.E_unop (A.U_bnot, a) -> expr_width ty_of a
  | A.E_unop (A.U_not, _) -> Some 8
  | A.E_ternary (_, a, b) ->
    (match expr_width ty_of a, expr_width ty_of b with
     | Some x, Some y -> Some (max x y)
     | _ -> None)
  | _ -> None

let describe_width e w =
  match e with
  | A.E_int n -> Printf.sprintf "literal %d (%d bits)" n w
  | A.E_ident x -> Printf.sprintf "'%s' (%d bits)" x w
  | _ -> Printf.sprintf "a %d-bit expression" w

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

(* What a declared scalar type can hold after the extraction semantics'
   masking; [None] = untracked storage. *)
let storage_range = function
  | A.T_byte -> Some (0, 255)
  | A.T_word -> Some (0, 65535)
  | A.T_dword -> Some (0, 4294967295)
  | A.T_char -> Some (-128, 127)
  | A.T_int -> Some (-32768, 32767)
  | A.T_long -> Some (-2147483648, 2147483647)
  | A.T_int64 | A.T_qword | A.T_float | A.T_double | A.T_void
  | A.T_message _ | A.T_timer | A.T_ms_timer ->
    None

(* Bounds are kept well inside the native int range so interval
   arithmetic can never overflow; anything wider degrades to unknown. *)
let big = 1 lsl 40

let norm (lo, hi) = if lo > hi || lo < -big || hi > big then None else Some (lo, hi)

let iv_fits w (lo, hi) =
  w >= 63
  ||
  let open Int64 in
  let lo = of_int lo and hi = of_int hi in
  (compare lo (neg (shift_left 1L (w - 1))) >= 0)
  && compare hi (shift_left 1L w) < 0

(* ------------------------------------------------------------------ *)
(* The lattice                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  assigned : SSet.t;  (** definitely-assigned names (must: joins meet) *)
  ranges : (int * int) SMap.t;  (** known value ranges; absent = unknown *)
}

let iv_equal (a1, a2) (b1, b2) = a1 = b1 && a2 = b2

let state_equal a b =
  SSet.equal a.assigned b.assigned && SMap.equal iv_equal a.ranges b.ranges

let state_join a b =
  {
    assigned = SSet.inter a.assigned b.assigned;
    ranges =
      SMap.merge
        (fun _ x y ->
          match x, y with
          | Some (l1, h1), Some (l2, h2) -> Some (min l1 l2, max h1 h2)
          | _ -> None)
        a.ranges b.ranges;
  }

(* Ranges that are still moving around a loop get dropped to unknown,
   which stabilises any chain; the must-set only ever shrinks. *)
let state_widen old j =
  {
    assigned = j.assigned;
    ranges =
      SMap.merge
        (fun _ o n ->
          match o, n with
          | Some oi, Some ni when iv_equal oi ni -> Some oi
          | _ -> None)
        old.ranges j.ranges;
  }

let lattice : state Dataflow.lattice =
  { equal = state_equal; join = state_join; widen = state_widen }

(* ------------------------------------------------------------------ *)
(* Transfer: interval evaluation with assignment effects               *)
(* ------------------------------------------------------------------ *)

type env = {
  ty_of : string -> A.ty option;
  is_global : string -> bool;
  prog : A.program;
  must_assigns : (string, SSet.t) Hashtbl.t;
}

let clamp_store env x iv_opt st =
  match Option.bind (env.ty_of x) storage_range with
  | None -> { st with ranges = SMap.remove x st.ranges }
  | Some (slo, shi) ->
    let iv =
      match iv_opt with
      | Some (lo, hi) when lo >= slo && hi <= shi -> lo, hi
      | _ -> slo, shi
    in
    { st with ranges = SMap.add x iv st.ranges }

let combine op ia ib =
  match op, ia, ib with
  | A.B_add, Some (l1, h1), Some (l2, h2) -> norm (l1 + l2, h1 + h2)
  | A.B_sub, Some (l1, h1), Some (l2, h2) -> norm (l1 - h2, h1 - l2)
  | A.B_mul, Some (l1, h1), Some (l2, h2)
    when max (abs l1) (abs h1) <= 0x4000_0000
         && max (abs l2) (abs h2) <= 0x4000_0000 ->
    let ps = [ l1 * l2; l1 * h2; h1 * l2; h1 * h2 ] in
    norm (List.fold_left min max_int ps, List.fold_left max min_int ps)
  | A.B_div, Some (l1, h1), Some (l2, h2) when l2 = h2 && l2 <> 0 ->
    norm (min (l1 / l2) (h1 / l2), max (l1 / l2) (h1 / l2))
  | A.B_mod, Some (l1, _), Some (l2, h2) when l2 = h2 && l2 > 0 ->
    if l1 >= 0 then Some (0, l2 - 1) else Some (-(l2 - 1), l2 - 1)
  | A.B_band, Some (l1, h1), Some (l2, h2) ->
    if l1 >= 0 && l2 >= 0 then Some (0, min h1 h2)
    else if l2 = h2 && l2 >= 0 then Some (0, l2)
    else if l1 = h1 && l1 >= 0 then Some (0, l1)
    else None
  | (A.B_bor | A.B_bxor), Some (l1, h1), Some (l2, h2)
    when l1 >= 0 && l2 >= 0 ->
    let rec ceil_pow2 v acc = if acc > v then acc else ceil_pow2 v (acc * 2) in
    Some (0, ceil_pow2 (max h1 h2) 1 - 1)
  | A.B_shl, Some (l1, h1), Some (l2, h2)
    when l2 = h2 && l2 >= 0 && l2 <= 20 && l1 >= 0 ->
    norm (l1 lsl l2, h1 lsl l2)
  | A.B_shr, Some (l1, h1), Some (l2, h2)
    when l2 = h2 && l2 >= 0 && l2 <= 62 && l1 >= 0 ->
    Some (l1 asr l2, h1 asr l2)
  | (A.B_land | A.B_lor | A.B_eq | A.B_neq | A.B_lt | A.B_le | A.B_gt
    | A.B_ge),
    _,
    _ ->
    Some (0, 1)
  | _ -> None

(* Evaluate for interval and effect. Both arms of a ternary are applied
   in sequence (flat, like the walker this replaces) — conservative for
   ranges, matching for the must-set. *)
let rec veval env st (e : A.expr) : (int * int) option * state =
  match e with
  | A.E_int n -> norm (n, n), st
  | A.E_char c -> Some (Char.code c, Char.code c), st
  | A.E_float _ | A.E_string _ | A.E_this -> None, st
  | A.E_ident x ->
    ( (match SMap.find_opt x st.ranges with
       | Some iv -> Some iv
       | None -> Option.bind (env.ty_of x) storage_range),
      st )
  | A.E_member (b, _) ->
    let _, st = veval env st b in
    None, st
  | A.E_index (b, i) ->
    let _, st = veval env st b in
    let _, st = veval env st i in
    None, st
  | A.E_method (b, _, args) ->
    let _, st = veval env st b in
    let st =
      List.fold_left (fun st a -> snd (veval env st a)) st args
    in
    None, st
  | A.E_call (fn, args) ->
    let st =
      List.fold_left (fun st a -> snd (veval env st a)) st args
    in
    let st =
      match Callgraph.resolve env.prog fn with
      | Callgraph.Defined f ->
        (match Hashtbl.find_opt env.must_assigns f.A.fn_name with
         | Some s -> { st with assigned = SSet.union st.assigned s }
         | None -> st)
      | Callgraph.Builtin _ | Callgraph.Unknown _ -> st
    in
    None, st
  | A.E_unop (A.U_neg, a) ->
    let ia, st = veval env st a in
    Option.bind ia (fun (lo, hi) -> norm (-hi, -lo)), st
  | A.E_unop (A.U_not, a) ->
    let _, st = veval env st a in
    Some (0, 1), st
  | A.E_unop (A.U_bnot, a) ->
    let _, st = veval env st a in
    None, st
  | A.E_binop (op, a, b) ->
    let ia, st = veval env st a in
    let ib, st = veval env st b in
    combine op ia ib, st
  | A.E_ternary (c, a, b) ->
    let _, st = veval env st c in
    let ia, st = veval env st a in
    let ib, st = veval env st b in
    ( (match ia, ib with
       | Some (l1, h1), Some (l2, h2) -> Some (min l1 l2, max h1 h2)
       | _ -> None),
      st )
  | A.E_incr (inc, _, lv) ->
    (match lv with
     | A.E_ident x ->
       let cur =
         match SMap.find_opt x st.ranges with
         | Some iv -> Some iv
         | None -> Option.bind (env.ty_of x) storage_range
       in
       let next =
         Option.bind cur (fun (lo, hi) ->
             norm (if inc then (lo + 1, hi + 1) else (lo - 1, hi - 1)))
       in
       let st = clamp_store env x next st in
       None, { st with assigned = SSet.add x st.assigned }
     | lv ->
       let _, st = veval env st lv in
       None, st)
  | A.E_assign (op, lhs, rhs) ->
    let ivr, st = veval env st rhs in
    (match lhs with
     | A.E_ident x ->
       let stored = if op = A.A_eq then ivr else None in
       let st = clamp_store env x stored st in
       let st = { st with assigned = SSet.add x st.assigned } in
       SMap.find_opt x st.ranges, st
     | A.E_member (b, _) ->
       let _, st = veval env st b in
       None, st
     | A.E_index (b, i) ->
       let _, st = veval env st b in
       let _, st = veval env st i in
       None, st
     | lhs ->
       let _, st = veval env st lhs in
       None, st)

let transfer env (i : Cfg.instr) st =
  match i with
  | Cfg.I_expr e | Cfg.I_branch e | Cfg.I_switch e | Cfg.I_case e ->
    snd (veval env st e)
  | Cfg.I_decl v ->
    (match v.A.var_init with
     | None -> { st with ranges = SMap.remove v.A.var_name st.ranges }
     | Some e ->
       let iv, st = veval env st e in
       clamp_store env v.A.var_name iv st)
  | Cfg.I_return e ->
    (match e with
     | None -> st
     | Some e -> snd (veval env st e))

(* ------------------------------------------------------------------ *)
(* Replay: diagnostics                                                 *)
(* ------------------------------------------------------------------ *)

(* Walk one instruction's reads and assignment sites in the old
   walker's order (rhs before lhs), flagging suspect global reads and
   gating narrowing candidates through the solved state. *)
let replay_instr ~is_local ~flag_read ~check_narrow ~check_decl st
    (i : Cfg.instr) =
  let rec reads e =
    match e with
    | A.E_int _ | A.E_float _ | A.E_char _ | A.E_string _ | A.E_this -> ()
    | A.E_ident x -> if not (is_local x) then flag_read st x
    | A.E_member (b, _) -> reads b
    | A.E_index (b, i) ->
      reads b;
      reads i
    | A.E_call (_, args) -> List.iter reads args
    | A.E_method (b, _, args) ->
      reads b;
      List.iter reads args
    | A.E_unop (_, a) -> reads a
    | A.E_binop (_, a, b) ->
      reads a;
      reads b
    | A.E_assign (op, lhs, rhs) ->
      reads rhs;
      (match lhs with
       | A.E_ident x ->
         if op <> A.A_eq && not (is_local x) then flag_read st x;
         if op = A.A_eq then check_narrow st x rhs
       | lhs -> reads lhs)
    | A.E_incr (_, _, lv) ->
      (match lv with
       | A.E_ident x -> if not (is_local x) then flag_read st x
       | lv -> reads lv)
    | A.E_ternary (c, a, b) ->
      reads c;
      reads a;
      reads b
  in
  match i with
  | Cfg.I_expr e | Cfg.I_branch e | Cfg.I_switch e | Cfg.I_case e -> reads e
  | Cfg.I_decl v ->
    Option.iter reads v.A.var_init;
    check_decl st v
  | Cfg.I_return e -> Option.iter reads e

(* ------------------------------------------------------------------ *)
(* Per-node driver                                                     *)
(* ------------------------------------------------------------------ *)

let local_decls body =
  let acc = ref [] in
  let rec seq ss = List.iter stmt ss
  and stmt s =
    (match s with
     | A.S_decl vs ->
       List.iter
         (fun (v : A.var_decl) -> acc := (v.A.var_name, v.A.var_ty) :: !acc)
         vs
     | _ -> ());
    List.iter (function A.C_seq ss -> seq ss | A.C_expr _ -> ()) (A.children s)
  in
  seq body;
  !acc

(* Names assigned (directly) anywhere in the program's bodies — the
   globals NOT in this set keep their initialiser's range at every
   body entry; everything else decays to its storage range. *)
let assigned_anywhere (prog : A.program) =
  let acc = ref SSet.empty in
  let target = function
    | A.E_assign (_, A.E_ident x, _) | A.E_incr (_, _, A.E_ident x) ->
      acc := SSet.add x !acc
    | _ -> ()
  in
  List.iter
    (fun (h : A.handler) -> A.iter_exprs target h.A.body)
    prog.A.handlers;
  List.iter
    (fun (f : A.func) -> A.iter_exprs target f.A.fn_body)
    prog.A.functions;
  !acc

let init_tracked (v : A.var_decl) =
  v.A.var_dims = []
  && (match v.A.var_ty with
      | A.T_message _ | A.T_timer | A.T_ms_timer | A.T_void | A.T_float
      | A.T_double ->
        false
      | _ -> true)

let is_start = function
  | A.Ev_start | A.Ev_prestart -> true
  | _ -> false

let check_node (node, (prog : A.program)) : Diag.t list =
  let diags = ref [] in
  let diag ?pos severity code message =
    diags := Diag.make ~file:node ?pos severity ~code message :: !diags
  in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (v : A.var_decl) -> Hashtbl.replace globals v.A.var_name v)
    prog.A.variables;
  let global_ty x =
    Option.map
      (fun (v : A.var_decl) -> v.A.var_ty)
      (Hashtbl.find_opt globals x)
  in
  let is_global x = Hashtbl.mem globals x in
  let suspect x =
    match Hashtbl.find_opt globals x with
    | Some v -> init_tracked v && Option.is_none v.A.var_init
    | None -> false
  in
  let must_assigns = Hashtbl.create 8 in
  let base_env = { ty_of = global_ty; is_global; prog; must_assigns } in
  (* Globals never reassigned keep their (clamped) initialiser range. *)
  let reassigned = assigned_anywhere prog in
  let const_ranges =
    List.fold_left
      (fun m (v : A.var_decl) ->
        match v.A.var_init with
        | Some e when not (SSet.mem v.A.var_name reassigned) ->
          let iv, _ =
            veval base_env { assigned = SSet.empty; ranges = SMap.empty } e
          in
          let st =
            clamp_store base_env v.A.var_name iv
              { assigned = SSet.empty; ranges = m }
          in
          st.ranges
        | _ -> m)
      SMap.empty prog.A.variables
  in
  (* Global initialisers: the old narrowing check, interval-gated. *)
  List.iter
    (fun (v : A.var_decl) ->
      match v.A.var_init, width_of_ty v.A.var_ty with
      | Some init, Some w ->
        (match expr_width global_ty init with
         | Some wi when wi > w ->
           let iv, _ =
             veval base_env
               { assigned = SSet.empty; ranges = SMap.empty }
               init
           in
           let proven_fit =
             match iv with
             | Some iv -> iv_fits w iv
             | None -> false
           in
           if not proven_fit then
             diag ~pos:(d_pos v.A.var_pos) Diag.Warning "CAPL008"
               (Printf.sprintf
                  "initialiser of '%s' may truncate: %s into %s (%d bits)"
                  v.A.var_name
                  (describe_width init wi)
                  (A.ty_name v.A.var_ty) w)
         | _ -> ())
      | _ -> ())
    prog.A.variables;
  (* One body: solve, then replay for diagnostics; returns the set of
     globals every path through the body assigns. *)
  let flagged_uninit = Hashtbl.create 4 in
  let process_body ~pos ~check_init ~entry_assigned ~params body =
    let locals = Hashtbl.create 8 in
    List.iter (fun (ty, p) -> Hashtbl.replace locals p ty) params;
    List.iter
      (fun (x, ty) -> Hashtbl.replace locals x ty)
      (local_decls body);
    let ty_of x =
      match Hashtbl.find_opt locals x with
      | Some ty -> Some ty
      | None -> global_ty x
    in
    let is_local x = Hashtbl.mem locals x in
    let env = { base_env with ty_of } in
    let cfg = Cfg.build body in
    let entry = { assigned = entry_assigned; ranges = const_ranges } in
    let input = Dataflow.solve ~lattice ~transfer:(transfer env) ~entry cfg in
    let flag_read st x =
      if
        check_init && suspect x
        && (not (SSet.mem x st.assigned))
        && not (Hashtbl.mem flagged_uninit x)
      then begin
        Hashtbl.replace flagged_uninit x ();
        diag ~pos Diag.Warning "CAPL006"
          (Printf.sprintf
             "global '%s' may be read before it is initialised (no \
              initialiser, and no 'on start' handler assigns it first)"
             x)
      end
    in
    let check_narrow st x rhs =
      match Option.bind (ty_of x) width_of_ty with
      | Some w ->
        (match expr_width ty_of rhs with
         | Some wi when wi > w ->
           let iv, _ = veval env st rhs in
           let proven_fit =
             match iv with
             | Some iv -> iv_fits w iv
             | None -> false
           in
           if not proven_fit then
             diag ~pos Diag.Warning "CAPL008"
               (Printf.sprintf "assignment to '%s' may truncate: %s into %s"
                  x
                  (describe_width rhs wi)
                  (match ty_of x with
                   | Some ty -> Printf.sprintf "%s (%d bits)" (A.ty_name ty) w
                   | None -> Printf.sprintf "%d bits" w))
         | _ -> ())
      | None -> ()
    in
    let check_decl st (v : A.var_decl) =
      match v.A.var_init, width_of_ty v.A.var_ty with
      | Some init, Some w ->
        (match expr_width ty_of init with
         | Some wi when wi > w ->
           let iv, _ = veval env st init in
           let proven_fit =
             match iv with
             | Some iv -> iv_fits w iv
             | None -> false
           in
           if not proven_fit then
             diag ~pos:(d_pos v.A.var_pos) Diag.Warning "CAPL008"
               (Printf.sprintf
                  "initialiser of '%s' may truncate: %s into %s (%d bits)"
                  v.A.var_name
                  (describe_width init wi)
                  (A.ty_name v.A.var_ty) w)
         | _ -> ())
      | _ -> ()
    in
    Dataflow.fold_reachable ~transfer:(transfer env) cfg input
      ~f:(fun () i st ->
        replay_instr ~is_local ~flag_read ~check_narrow ~check_decl st i)
      ();
    match input.(cfg.Cfg.exit_id) with
    | None -> entry_assigned
    | Some st ->
      SSet.filter (fun x -> is_global x && not (is_local x)) st.assigned
  in
  (* Interprocedural must-assign summaries: least fixpoint from the
     empty set (the old pass never credited calls, so starting empty is
     strictly no worse). *)
  let fn_cfgs =
    List.map (fun (f : A.func) -> f, Cfg.build f.A.fn_body) prog.A.functions
  in
  List.iter
    (fun (f : A.func) -> Hashtbl.replace must_assigns f.A.fn_name SSet.empty)
    prog.A.functions;
  let max_rounds = 8 + (2 * List.length prog.A.functions) in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    incr rounds;
    changed := false;
    List.iter
      (fun ((f : A.func), cfg) ->
        let locals = Hashtbl.create 8 in
        List.iter (fun (ty, p) -> Hashtbl.replace locals p ty) f.A.fn_params;
        List.iter
          (fun (x, ty) -> Hashtbl.replace locals x ty)
          (local_decls f.A.fn_body);
        let ty_of x =
          match Hashtbl.find_opt locals x with
          | Some ty -> Some ty
          | None -> global_ty x
        in
        let env = { base_env with ty_of } in
        let entry = { assigned = SSet.empty; ranges = const_ranges } in
        let input =
          Dataflow.solve ~lattice ~transfer:(transfer env) ~entry cfg
        in
        let s =
          match input.(cfg.Cfg.exit_id) with
          | None -> SSet.empty
          | Some st ->
            SSet.filter
              (fun x -> is_global x && not (Hashtbl.mem locals x))
              st.assigned
        in
        let old = Hashtbl.find must_assigns f.A.fn_name in
        if not (SSet.equal old s) then begin
          Hashtbl.replace must_assigns f.A.fn_name s;
          changed := true
        end)
      fn_cfgs
  done;
  (* Start handlers first, in order: what they definitely assign is the
     baseline every later handler starts from. *)
  let handlers_started, handlers_rest =
    List.partition (fun (h : A.handler) -> is_start h.A.event) prog.A.handlers
  in
  let baseline = ref SSet.empty in
  List.iter
    (fun (h : A.handler) ->
      let exit_assigned =
        process_body
          ~pos:(d_pos h.A.handler_pos)
          ~check_init:true ~entry_assigned:!baseline ~params:[] h.A.body
      in
      baseline := SSet.union !baseline exit_assigned)
    handlers_started;
  List.iter
    (fun (h : A.handler) ->
      ignore
        (process_body
           ~pos:(d_pos h.A.handler_pos)
           ~check_init:true ~entry_assigned:!baseline ~params:[] h.A.body))
    handlers_rest;
  (* Functions: narrowing checks only (their call order is unknowable,
     so CAPL006 stays off, as before). *)
  List.iter
    (fun (f : A.func) ->
      ignore
        (process_body
           ~pos:(d_pos f.A.fn_pos)
           ~check_init:false ~entry_assigned:SSet.empty
           ~params:f.A.fn_params f.A.fn_body))
    prog.A.functions;
  !diags

let check_nodes ?(obs = Obs.silent) nodes =
  Obs.span obs "analysis.dataflow" (fun () ->
      Diag.sort (List.concat_map check_node nodes))

let check ?obs ?(name = "<capl>") prog = check_nodes ?obs [ name, prog ]
