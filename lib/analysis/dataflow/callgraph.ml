(* Context-insensitive call resolution for CAPL programs. [E_call]
   targets fall into three bins: functions defined in the program
   (interprocedural clients consult or compute a summary), the CAPL
   builtins the extractor models (a fixed summary table below), and
   everything else — unknown builtins, which conservatively contribute
   bottom (no return dataflow, no global effects) exactly as the
   extraction semantics treats them. *)

module A = Capl.Ast

type target =
  | Defined of A.func
  | Builtin of string
  | Unknown of string

(* The builtins lib/capl/sem.ml gives semantics to. *)
let builtins =
  [
    "output";
    "setTimer";
    "cancelTimer";
    "write";
    "elCount";
    "abs";
    "random";
    "getValue";
    "putValue";
    "timeNow";
  ]

let is_builtin name = List.mem name builtins

(* Bus-write sink: the one builtin that puts caller data on the wire. *)
let is_bus_write name = String.equal name "output"

(* Builtins whose return value is derived from their arguments — the
   taint pass propagates through these; every other builtin returns
   environment data and contributes bottom. *)
let propagates name = List.mem name [ "abs"; "elCount" ]

let resolve (prog : A.program) name : target =
  match
    List.find_opt
      (fun (f : A.func) -> String.equal f.A.fn_name name)
      prog.A.functions
  with
  | Some f -> Defined f
  | None -> if is_builtin name then Builtin name else Unknown name

(* Call-site collection, used to order summary computation and exposed
   for tests: every [E_call] callee name in a body, left to right. *)
let calls_in_body (body : A.stmt list) : string list =
  let acc = ref [] in
  A.iter_exprs
    (function A.E_call (name, _) -> acc := name :: !acc | _ -> ())
    body;
  List.rev !acc

let of_program (prog : A.program) : (string * string list) list =
  List.map
    (fun (f : A.func) ->
      ( f.A.fn_name,
        List.sort_uniq String.compare (calls_in_body f.A.fn_body) ))
    prog.A.functions
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
