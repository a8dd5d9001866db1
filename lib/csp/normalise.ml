type budget = [ `States | `Deadline | `Interrupt ]

exception Out_of_budget of budget

(* One visible label's move out of a node: the raw successors of every
   member on that label, and the node their tau-closure interns to, once
   some consumer asks for it. *)
type edge = {
  label : Event.label;
  targets : int list;  (* raw successor states, before tau-closure *)
  mutable next : int;  (* successor node; -1 until interned *)
}

type node = {
  members : int list;  (* sorted, tau-closed *)
  mutable edges : edge array option;  (* sorted by label, memoised *)
  mutable acceptances : Event.label list list option;
  mutable divergent : bool option;
}

type limits = {
  max_states : int;
  stop_at : float option;
  cancel : (unit -> bool) option;
}

module Members_tbl = Hashtbl.Make (struct
  type t = int list
  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  fresh : unit -> Source.t;  (* a new instance of the same state source *)
  source : Source.t;
  limits : limits;
  mutable rows : (Event.label * int) list option array;
      (* per source state: its memoised transition row *)
  mutable expanded : int;  (* source states whose rows were computed *)
  index : int Members_tbl.t;
  mutable nodes : node array;
  mutable count : int;
}

let row t s =
  if s >= Array.length t.rows then begin
    let bigger = Array.make (max (2 * Array.length t.rows) (s + 1)) None in
    Array.blit t.rows 0 bigger 0 (Array.length t.rows);
    t.rows <- bigger
  end;
  match t.rows.(s) with
  | Some r -> r
  | None ->
    (* like the one-shot compiler in [Lts], read the clock per expanded
       state, but never before the first: one state's expansion can cost
       more than a whole deadline. The token rides the 256-state cadence
       of the staged compiler. *)
    if t.expanded > 0 then begin
      (match t.limits.stop_at with
       | Some limit when Obs.now () > limit -> raise (Out_of_budget `Deadline)
       | _ -> ());
      if t.expanded land 255 = 0 then
        match t.limits.cancel with
        | Some cancelled when cancelled () -> raise (Out_of_budget `Interrupt)
        | _ -> ()
    end;
    t.expanded <- t.expanded + 1;
    let r = t.source.step s in
    (* the same bound the compilers put on a whole graph: more than
       [max_states] distinct states interned *)
    if t.source.state_count () > t.limits.max_states then
      raise (Out_of_budget `States);
    t.rows.(s) <- Some r;
    r

(* Rows are sorted by label and [Tau] sorts first, so a state's tau
   successors are its row's prefix. *)
let tau_successors t s =
  let rec go acc = function
    | (Event.Tau, j) :: rest -> go (j :: acc) rest
    | _ -> acc
  in
  go [] (row t s)

let closure t seeds =
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> acc
    | s :: rest ->
      if Hashtbl.mem seen s then go acc rest
      else begin
        Hashtbl.replace seen s ();
        go (s :: acc) (List.rev_append (tau_successors t s) rest)
      end
  in
  List.sort_uniq Int.compare (go [] seeds)

let intern t members =
  match Members_tbl.find_opt t.index members with
  | Some i -> i
  | None ->
    let i = t.count in
    if i >= Array.length t.nodes then begin
      let bigger =
        Array.make (2 * Array.length t.nodes) t.nodes.(0)
      in
      Array.blit t.nodes 0 bigger 0 i;
      t.nodes <- bigger
    end;
    t.nodes.(i) <-
      { members; edges = None; acceptances = None; divergent = None };
    t.count <- i + 1;
    Members_tbl.replace t.index members i;
    i

let make limits fresh =
  let placeholder =
    { members = []; edges = None; acceptances = None; divergent = None }
  in
  {
    fresh;
    source = fresh ();
    limits;
    rows = Array.make 64 None;
    expanded = 0;
    index = Members_tbl.create 256;
    nodes = Array.make 64 placeholder;
    count = 0;
  }

let unlimited = { max_states = max_int; stop_at = None; cancel = None }

let normalise ?(obs = Obs.silent) lts =
  Obs.span obs "normalise" (fun () ->
      make unlimited (fun () -> Source.of_lts ~check_divergence:false lts))

let of_spec ?(obs = Obs.silent) ?(max_states = 1_000_000) ?stop_at ?cancel
    defs spec =
  Obs.span obs "normalise" (fun () ->
      let root =
        Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) spec
      in
      let step = Semantics.make_cached ~obs defs in
      make { max_states; stop_at; cancel } (fun () ->
          Source.of_proc ~make_step:(fun () -> step) root))

let view t = make t.limits t.fresh

let initial t =
  if t.count = 0 then ignore (intern t (closure t [ t.source.initial ]));
  0

let num_nodes t = t.count

let node t i =
  if i < 0 || i >= t.count then invalid_arg "Normalise: unknown node";
  t.nodes.(i)

let members t i = (node t i).members

(* Merge two label-sorted rows, keeping duplicates: replaces map building
   and re-sorting by single linear passes. *)
let rec merge_rows r1 r2 =
  match r1, r2 with
  | [], r | r, [] -> r
  | ((l1, _) as e1) :: t1, ((l2, _) as e2) :: t2 ->
    if Event.compare_label l1 l2 <= 0 then e1 :: merge_rows t1 r2
    else e2 :: merge_rows r1 t2

(* The visible moves of a node: merge the members' sorted rows, drop the
   taus, and collect runs of equal labels — ascending label order. *)
let edges t i =
  let n = node t i in
  match n.edges with
  | Some e -> e
  | None ->
    let merged =
      List.fold_left (fun acc m -> merge_rows acc (row t m)) [] n.members
    in
    let rec group = function
      | [] -> []
      | (Event.Tau, _) :: rest -> group rest
      | (label, j) :: rest ->
        let rec take acc = function
          | (l', j') :: rest' when Event.equal_label l' label ->
            take (j' :: acc) rest'
          | rest' -> acc, rest'
        in
        let targets, rest' = take [ j ] rest in
        { label; targets; next = -1 } :: group rest'
    in
    let e = Array.of_list (group merged) in
    n.edges <- Some e;
    e

let find_edge t i label =
  let e = edges t i in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Event.compare_label e.(mid).label label in
      if c = 0 then Some e.(mid)
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length e)

let next t edge =
  if edge.next < 0 then edge.next <- intern t (closure t edge.targets);
  edge.next

let allows t i label = Option.is_some (find_edge t i label)

let after t i label = Option.map (next t) (find_edge t i label)

(* Successors are interned in label order, so discovery order (and with
   it node numbering) depends only on the sequence of queries. *)
let afters t i =
  let e = edges t i in
  Array.iter (fun edge -> ignore (next t edge)) e;
  Array.fold_right (fun edge acc -> (edge.label, edge.next) :: acc) e []

let can_terminate t i =
  Array.exists
    (fun edge -> match edge.label with Event.Tick -> true | _ -> false)
    (edges t i)

let force t =
  ignore (initial t);
  let i = ref 0 in
  while !i < t.count do
    ignore (afters t !i);
    incr i
  done

(* Distinct labels of a sorted row. *)
let uniq_labels_of_sorted row =
  let rec go = function
    | [] -> []
    | [ (l, _) ] -> [ l ]
    | (l1, _) :: ((l2, _) :: _ as rest) ->
      if Event.equal_label l1 l2 then go rest else l1 :: go rest
  in
  go row

let compare_label_list = List.compare Event.compare_label

(* [a] ⊆ [b] for sorted lists, by parallel descent. *)
let rec subset_sorted a b =
  match a, b with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
    let c = Event.compare_label x y in
    if c = 0 then subset_sorted xs ys
    else if c > 0 then subset_sorted a ys
    else false

(* Keep only minimal sets under inclusion. *)
let minimal_acceptances sets =
  let sets = List.sort_uniq compare_label_list sets in
  List.filter
    (fun a ->
      not
        (List.exists
           (fun b -> compare_label_list a b <> 0 && subset_sorted b a)
           sets))
    sets

let acceptances t i =
  let n = node t i in
  match n.acceptances with
  | Some a -> a
  | None ->
    let stable_inits =
      List.filter_map
        (fun m ->
          match row t m with
          | (Event.Tau, _) :: _ -> None
          | r -> Some (uniq_labels_of_sorted r))
        n.members
    in
    let a = minimal_acceptances stable_inits in
    n.acceptances <- Some a;
    a

(* The members are tau-closed, so every tau cycle through a member lies
   inside the member set: peel off states with no incoming tau edge from
   the set (Kahn); a cycle is exactly what cannot be peeled. *)
let divergent t i =
  let n = node t i in
  match n.divergent with
  | Some d -> d
  | None ->
    let indegree = Hashtbl.create 16 in
    let bump s d =
      Hashtbl.replace indegree s
        (d + Option.value (Hashtbl.find_opt indegree s) ~default:0)
    in
    List.iter
      (fun m ->
        bump m 0;
        List.iter (fun s -> bump s 1) (tau_successors t m))
      n.members;
    let ready =
      Hashtbl.fold (fun s d acc -> if d = 0 then s :: acc else acc) indegree []
    in
    let rec peel removed = function
      | [] -> removed
      | s :: rest ->
        let freed =
          List.filter
            (fun j ->
              bump j (-1);
              Hashtbl.find indegree j = 0)
            (tau_successors t s)
        in
        peel (removed + 1) (List.rev_append freed rest)
    in
    let d = peel 0 ready < Hashtbl.length indegree in
    n.divergent <- Some d;
    d
