type t = {
  initial : int;
  step : int -> (Event.label * int) list;
  term_of : int -> Proc.t;
  state_count : unit -> int;
  divergent : (int -> bool) option;
}

type interner = [ `Id | `Structural ]

module Id_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

module Structural_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.structural_equal
  let hash = Proc.structural_hash
end)

(* One polymorphic face over the two intern-table functors, so the
   interning scheme is selectable at runtime (the structural scheme is the
   oracle the hash-consed one is tested against). *)
let proc_interner = function
  | `Id ->
    let tbl = Id_tbl.create 1024 in
    (Id_tbl.find_opt tbl : Proc.t -> int option), Id_tbl.replace tbl
  | `Structural ->
    let tbl = Structural_tbl.create 1024 in
    (Structural_tbl.find_opt tbl, Structural_tbl.replace tbl)

let of_proc ?(interner = `Id) ~make_step term0 =
  let find_opt, replace = proc_interner interner in
  let terms = ref (Array.make 1024 term0) in
  let count = ref 0 in
  let intern_term term =
    match find_opt term with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      if i >= Array.length !terms then begin
        let bigger = Array.make (2 * i) term0 in
        Array.blit !terms 0 bigger 0 i;
        terms := bigger
      end;
      !terms.(i) <- term;
      replace term i;
      i
  in
  let initial = intern_term term0 in
  let step = make_step () in
  {
    initial;
    step =
      (fun i -> List.map (fun (l, t) -> l, intern_term t) (step !terms.(i)));
    term_of = (fun i -> !terms.(i));
    state_count = (fun () -> !count);
    divergent = None;
  }

let of_lts ?(check_divergence = true) lts =
  let divergent =
    if check_divergence then begin
      let bits = Array.make (max 1 (Lts.num_states lts)) false in
      List.iter (fun i -> bits.(i) <- true) (Lts.divergences lts);
      Some (fun i -> bits.(i))
    end
    else None
  in
  {
    initial = lts.Lts.initial;
    step = Lts.transitions_of lts;
    term_of = Lts.state_term lts;
    state_count = (fun () -> Lts.num_states lts);
    divergent;
  }
