(** Control-flow graphs over CAPL bodies — the shared substrate of the
    dataflow analyses.

    [build] desugars one handler or function body (if, the single loop
    node [Capl.Ast.S_loop] that every C loop parses to, switch,
    break/continue/return, fallthrough between cases) into basic blocks
    of straight-line instructions linked by untyped successor edges.
    Conditions sit in the block that evaluates them; both
    outcomes are successors, so clients are path-insensitive in the
    branch {e direction} while still seeing every side effect.
    Unreachable statements get predecessor-less blocks a fixpoint seeded
    at [entry] never visits. [build] never raises on any well-typed
    AST. *)

type instr =
  | I_expr of Capl.Ast.expr  (** evaluated for effect *)
  | I_decl of Capl.Ast.var_decl  (** local declaration, initialiser included *)
  | I_branch of Capl.Ast.expr  (** condition; both outcomes are successors *)
  | I_switch of Capl.Ast.expr  (** scrutinee; every case is a successor *)
  | I_case of Capl.Ast.expr  (** case label, evaluated entering the case *)
  | I_return of Capl.Ast.expr option

type block = {
  instrs : instr list;  (** in execution order *)
  succs : int list;  (** successor block ids *)
}

type t = {
  blocks : block array;  (** indexed by block id *)
  entry : int;
  exit_id : int;  (** every [return] and the final fallthrough land here *)
}

val build : Capl.Ast.stmt list -> t

val size : t -> int
(** Number of blocks. *)
