module A = Capl.Ast

let d_pos (p : A.pos) : Diag.pos = { Diag.line = p.A.line; col = p.A.col }

(* ------------------------------------------------------------------ *)
(* Message selectors, normalised for cross-node matching               *)
(* ------------------------------------------------------------------ *)

(* Selectors resolve through the database when one is available, so
   [on message 0x101] in one node matches [output] of the same message
   declared by name in another. *)
type msg_key =
  | K_name of string
  | K_id of int
  | K_any

let key_of_selector db sel =
  match sel with
  | A.Msg_any -> K_any
  | A.Msg_name n ->
    (match Option.bind db (fun db -> Capl.Msgdb.find_by_name db n) with
     | Some spec -> K_id spec.Capl.Msgdb.msg_id
     | None -> K_name n)
  | A.Msg_id id -> K_id id

let selector_label = function
  | A.Msg_any -> "*"
  | A.Msg_name n -> n
  | A.Msg_id id -> Printf.sprintf "0x%X" id

let key_matches a b =
  match a, b with
  | K_any, _ | _, K_any -> true
  | K_name n, K_name m -> String.equal n m
  | K_id i, K_id j -> i = j
  | K_name _, K_id _ | K_id _, K_name _ -> false

(* ------------------------------------------------------------------ *)
(* Per-node walk                                                       *)
(* ------------------------------------------------------------------ *)

type node_facts = {
  node : string;
  mutable outputs : (msg_key * A.msg_selector * Diag.pos) list;
  mutable msg_handlers : (msg_key * A.msg_selector * Diag.pos) list;
  mutable timers_set : (string * Diag.pos) list;
  mutable timer_handlers : (string * Diag.pos) list;
  mutable diags : Diag.t list;
}

let is_start = function
  | A.Ev_start | A.Ev_prestart -> true
  | _ -> false

let walk_node db (node, (prog : A.program)) =
  let facts =
    {
      node;
      outputs = [];
      msg_handlers = [];
      timers_set = [];
      timer_handlers = [];
      diags = [];
    }
  in
  let diag ?pos severity code message =
    facts.diags <-
      Diag.make ~file:node ?pos severity ~code message :: facts.diags
  in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (v : A.var_decl) -> Hashtbl.replace globals v.A.var_name v)
    prog.A.variables;
  let global_used = Hashtbl.create 16 in
  let global_ty x =
    Option.map (fun (v : A.var_decl) -> v.A.var_ty) (Hashtbl.find_opt globals x)
  in

  (* One body (handler or function): [pos] is the nearest enclosing
     position every body-level diagnostic inherits (CAPL statements carry
     no positions of their own). The initialisation and narrowing checks
     that used to live in this walk are now {!Valueflow}'s dataflow
     analyses; this walk only gathers usage facts and flags unreachable
     statements. *)
  let walk_body ~pos ~params body =
    let locals = Hashtbl.create 8 in
    let local_used = Hashtbl.create 8 in
    List.iter (fun (ty, p) -> Hashtbl.replace locals p ty) params;
    List.iter (fun (_, p) -> Hashtbl.replace local_used p ()) params;
    let ty_of x =
      match Hashtbl.find_opt locals x with
      | Some ty -> Some ty
      | None -> global_ty x
    in
    let use x =
      if Hashtbl.mem locals x then Hashtbl.replace local_used x ()
      else if Hashtbl.mem globals x then Hashtbl.replace global_used x ()
    in
    (* assignment targets count as uses, so every identifier is one *)
    let expr =
      A.iter_expr (function
        | A.E_ident x -> use x
        | A.E_call ("output", A.E_ident v :: _) ->
          (match ty_of v with
           | Some (A.T_message sel) ->
             facts.outputs <-
               (key_of_selector db sel, sel, pos) :: facts.outputs
           | _ -> ())
        | A.E_call (("setTimer" | "setTimerCyclic"), A.E_ident t :: _) ->
          facts.timers_set <- (t, pos) :: facts.timers_set
        | _ -> ())
    in
    (* a declaration's name is local from its own initialiser on *)
    let rec stmts = function
      | [] -> ()
      | s :: rest ->
        (match s with
         | A.S_decl vars ->
           List.iter
             (fun (v : A.var_decl) ->
               Hashtbl.replace locals v.A.var_name v.A.var_ty;
               Option.iter expr v.A.var_init)
             vars
         | s ->
           List.iter
             (function A.C_expr e -> expr e | A.C_seq ss -> stmts ss)
             (A.children s));
        (match s, rest with
         | (A.S_return _ | A.S_break | A.S_continue), _ :: _ ->
           let what =
             match s with
             | A.S_return _ -> "return"
             | A.S_break -> "break"
             | _ -> "continue"
           in
           diag ~pos Diag.Warning "CAPL007"
             (Printf.sprintf
                "unreachable statement(s) after '%s' in the same block" what)
         | _ -> ());
        stmts rest
    in
    stmts body;
    (* CAPL009 for this body's locals (parameters are exempt). *)
    Hashtbl.iter
      (fun x _ ->
        if not (Hashtbl.mem local_used x) then
          diag ~pos Diag.Info "CAPL009"
            (Printf.sprintf "local variable '%s' is never used" x))
      locals
  in

  (* Handlers: start handlers first (kept for stable fact order), then
     the event handlers, then functions. *)
  let handlers_started, handlers_rest =
    List.partition (fun (h : A.handler) -> is_start h.A.event) prog.A.handlers
  in
  List.iter
    (fun (h : A.handler) ->
      walk_body ~pos:(d_pos h.A.handler_pos) ~params:[] h.A.body)
    handlers_started;
  List.iter
    (fun (h : A.handler) ->
      let pos = d_pos h.A.handler_pos in
      (match h.A.event with
       | A.Ev_message sel ->
         facts.msg_handlers <-
           (key_of_selector db sel, sel, pos) :: facts.msg_handlers
       | A.Ev_timer t ->
         facts.timer_handlers <- (t, pos) :: facts.timer_handlers;
         Hashtbl.replace global_used t ()
       | _ -> ());
      walk_body ~pos ~params:[] h.A.body)
    handlers_rest;
  List.iter
    (fun (f : A.func) ->
      walk_body ~pos:(d_pos f.A.fn_pos) ~params:f.A.fn_params f.A.fn_body)
    prog.A.functions;

  (* CAPL001: message-typed declarations and handlers must exist in the
     database (when one is available). *)
  (match db with
   | None -> ()
   | Some db ->
     let known sel =
       match sel with
       | A.Msg_any -> true
       | A.Msg_name n -> Option.is_some (Capl.Msgdb.find_by_name db n)
       | A.Msg_id id -> Option.is_some (Capl.Msgdb.find_by_id db id)
     in
     List.iter
       (fun (v : A.var_decl) ->
         match v.A.var_ty with
         | A.T_message sel when not (known sel) ->
           diag ~pos:(d_pos v.A.var_pos) Diag.Error "CAPL001"
             (Printf.sprintf
                "message '%s' has no specification in the CAN database"
                (selector_label sel))
         | _ -> ())
       prog.A.variables;
     List.iter
       (fun (h : A.handler) ->
         match h.A.event with
         | A.Ev_message sel when not (known sel) ->
           diag ~pos:(d_pos h.A.handler_pos) Diag.Error "CAPL001"
             (Printf.sprintf
                "'on message %s': message has no specification in the CAN \
                 database"
                (selector_label sel))
         | _ -> ())
       prog.A.handlers);

  (* CAPL004/CAPL005: timers armed vs handled, within this node. *)
  let timer_has_handler t =
    List.exists (fun (name, _) -> String.equal name t) facts.timer_handlers
  in
  let timer_is_set t =
    List.exists (fun (name, _) -> String.equal name t) facts.timers_set
  in
  List.iter
    (fun (t, pos) ->
      if not (timer_has_handler t) then
        diag ~pos Diag.Warning "CAPL004"
          (Printf.sprintf
             "setTimer arms '%s' but there is no 'on timer %s' handler" t t))
    (List.sort_uniq compare facts.timers_set);
  List.iter
    (fun (t, pos) ->
      if not (timer_is_set t) then
        diag ~pos Diag.Warning "CAPL005"
          (Printf.sprintf
             "'on timer %s' can never fire: nothing in this node arms '%s'" t
             t))
    facts.timer_handlers;

  (* CAPL009 for globals. *)
  List.iter
    (fun (v : A.var_decl) ->
      if not (Hashtbl.mem global_used v.A.var_name) then
        diag ~pos:(d_pos v.A.var_pos) Diag.Info "CAPL009"
          (Printf.sprintf "global variable '%s' is never used" v.A.var_name))
    prog.A.variables;
  facts

(* ------------------------------------------------------------------ *)
(* Cross-node message flow                                             *)
(* ------------------------------------------------------------------ *)

let message_flow (all : node_facts list) =
  let outputs = List.concat_map (fun f -> f.outputs) all in
  let handlers = List.concat_map (fun f -> f.msg_handlers) all in
  let catch_all =
    List.exists (fun (k, _, _) -> k = K_any) handlers
  in
  let diags = ref [] in
  let diag facts ?pos severity code message =
    diags :=
      Diag.make ~file:facts.node ?pos severity ~code message :: !diags
  in
  List.iter
    (fun facts ->
      List.iter
        (fun (key, sel, pos) ->
          if
            key <> K_any
            && not (List.exists (fun (k, _, _) -> key_matches key k) outputs)
          then
            diag facts ~pos Diag.Warning "CAPL002"
              (Printf.sprintf
                 "'on message %s': no node outputs this message, so the \
                  handler can never fire"
                 (selector_label sel)))
        facts.msg_handlers;
      List.iter
        (fun (key, sel, pos) ->
          if
            (not catch_all)
            && not (List.exists (fun (k, _, _) -> key_matches key k) handlers)
          then
            diag facts ~pos Diag.Warning "CAPL003"
              (Printf.sprintf
                 "output of '%s': no node handles this message, so the \
                  frame is never received"
                 (selector_label sel)))
        facts.outputs)
    all;
  !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let lint_nodes ?db ?(obs = Obs.silent) nodes =
  Obs.span obs "analysis.capl_lint" (fun () ->
      let db =
        match db with
        | Some db when Capl.Msgdb.messages db <> [] -> Some db
        | _ -> None
      in
      let facts = List.map (walk_node db) nodes in
      let diags =
        List.concat_map (fun f -> f.diags) facts
        @ message_flow facts
        @ Valueflow.check_nodes ~obs nodes
        @ Taint.check_nodes ~obs nodes
      in
      let diags = Diag.sort diags in
      Obs.add (Obs.counter obs "analysis.diags") (List.length diags);
      diags)

let lint ?db ?obs ?(name = "<capl>") prog =
  lint_nodes ?db ?obs [ name, prog ]
