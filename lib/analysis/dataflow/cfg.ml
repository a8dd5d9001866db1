(* Control-flow graphs over CAPL bodies — the substrate every dataflow
   client shares. One CFG per handler or function body: structured
   control flow (if, the one loop node, switch with break, continue,
   return and fallthrough) is desugared into basic blocks of straight-
   line instructions linked by untyped successor edges.

   Conditions appear as [I_branch]/[I_switch] instructions in the block
   that evaluates them; both outcomes are successors, so the analyses
   built on top are path-insensitive in the branch direction (they see
   the condition's side effects, not its truth value). Statements that
   can never be reached (code after an unconditional [break], say) are
   still given blocks — with no predecessors, so a fixpoint seeded at
   [entry] simply never visits them. *)

module A = Capl.Ast

type instr =
  | I_expr of A.expr  (** evaluated for effect *)
  | I_decl of A.var_decl  (** local declaration, initialiser included *)
  | I_branch of A.expr  (** condition; both outcomes are successors *)
  | I_switch of A.expr  (** scrutinee; every case is a successor *)
  | I_case of A.expr  (** case label, evaluated on entry to the case *)
  | I_return of A.expr option

type block = {
  instrs : instr list;
  succs : int list;
}

type t = {
  blocks : block array;
  entry : int;
  exit_id : int;
}

let build (body : A.stmt list) : t =
  let n = ref 0 in
  let instrs_tbl : (int, instr list) Hashtbl.t = Hashtbl.create 16 in
  let succs_tbl : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let new_block () =
    let id = !n in
    incr n;
    Hashtbl.replace instrs_tbl id [];
    Hashtbl.replace succs_tbl id [];
    id
  in
  let add id i =
    Hashtbl.replace instrs_tbl id (i :: Hashtbl.find instrs_tbl id)
  in
  let link a b =
    let ss = Hashtbl.find succs_tbl a in
    if not (List.mem b ss) then Hashtbl.replace succs_tbl a (b :: ss)
  in
  let entry = new_block () in
  let exit_id = new_block () in
  (* [cur = None]: the previous statement left no fallthrough (return/
     break/continue); any further statement in the block is unreachable
     and gets a fresh predecessor-less block. *)
  let rec stmts cur ~brk ~cont ss =
    List.fold_left (fun cur s -> stmt cur ~brk ~cont s) cur ss
  and stmt cur ~brk ~cont s =
    let cur =
      match cur with
      | Some c -> c
      | None -> new_block ()
    in
    match s with
    | A.S_expr e ->
      add cur (I_expr e);
      Some cur
    | A.S_decl vs ->
      List.iter (fun v -> add cur (I_decl v)) vs;
      Some cur
    | A.S_if (c, t, f) ->
      add cur (I_branch c);
      let join = new_block () in
      let tb = new_block () in
      link cur tb;
      (match stmt (Some tb) ~brk ~cont t with
       | Some e -> link e join
       | None -> ());
      (match f with
       | None -> link cur join
       | Some f ->
         let fb = new_block () in
         link cur fb;
         (match stmt (Some fb) ~brk ~cont f with
          | Some e -> link e join
          | None -> ()));
      Some join
    | A.S_loop { cond; body; step; test_first } ->
      (* head tests [cond]; the body ends, and [continue] lands, in the
         step block, which loops back to the head *)
      let head = new_block () and bb = new_block () in
      let stepb = new_block () and after = new_block () in
      link cur (if test_first then head else bb);
      Option.iter (fun c -> add head (I_branch c)) cond;
      link head bb;
      (* a condition-less loop only exits via break *)
      if Option.is_some cond then link head after;
      Option.iter (fun e -> add stepb (I_expr e)) step;
      link stepb head;
      (match stmt (Some bb) ~brk:(Some after) ~cont:(Some stepb) body with
       | Some e -> link e stepb
       | None -> ());
      Some after
    | A.S_switch (e, cases) ->
      add cur (I_switch e);
      let after = new_block () in
      let case_blocks = List.map (fun _ -> new_block ()) cases in
      let has_default =
        List.exists
          (fun (c : A.switch_case) -> Option.is_none c.A.case_label)
          cases
      in
      List.iter (fun b -> link cur b) case_blocks;
      if not has_default then link cur after;
      let rec walk = function
        | [] -> ()
        | ((c : A.switch_case), b) :: rest ->
          (match c.A.case_label with
           | Some l -> add b (I_case l)
           | None -> ());
          let e = stmts (Some b) ~brk:(Some after) ~cont c.A.case_body in
          (match e, rest with
           | Some e, (_, nb) :: _ -> link e nb (* fallthrough *)
           | Some e, [] -> link e after
           | None, _ -> ());
          walk rest
      in
      walk (List.combine cases case_blocks);
      Some after
    | A.S_break ->
      link cur (Option.value brk ~default:exit_id);
      None
    | A.S_continue ->
      link cur (Option.value cont ~default:exit_id);
      None
    | A.S_return e ->
      add cur (I_return e);
      link cur exit_id;
      None
    | A.S_block ss -> stmts (Some cur) ~brk ~cont ss
  in
  (match stmts (Some entry) ~brk:None ~cont:None body with
   | Some e -> link e exit_id
   | None -> ());
  let blocks =
    Array.init !n (fun i ->
        {
          instrs = List.rev (Hashtbl.find instrs_tbl i);
          succs = List.rev (Hashtbl.find succs_tbl i);
        })
  in
  { blocks; entry; exit_id }

let size t = Array.length t.blocks
