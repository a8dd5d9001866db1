(** Specification normalisation: determinisation of a state source by
    tau-closure subset construction, built on demand.

    Each normal-form node is a tau-closed set of specification states; a
    visible label (or [tick]) leads from one node to the tau-closure of the
    union of its members' successors. FDR builds the whole normal form
    before it searches; here a node comes into existence only when a
    consumer asks for it: {!after} interns one label's successor, {!afters}
    all of a node's successors. The rows, acceptances and divergence flag
    of a node are computed the first time they are asked for and then
    memoised. {!num_nodes} counts the nodes built so far, numbered in
    discovery order, so the numbering depends only on the sequence of
    queries.

    A lazy normal form is mutable and belongs to one consumer on one
    domain. Another reader of the same specification takes a {!view}, so
    it never renumbers the first consumer's nodes. *)

type t

type budget = [ `States | `Deadline | `Interrupt ]

exception Out_of_budget of budget
(** Raised by any query that has to expand the specification beyond the
    limits given to {!of_spec} (a view inherits them). A normal form built
    by {!normalise} never raises it. *)

val normalise : ?obs:Obs.t -> Lts.t -> t
(** The normal form of a compiled graph. [obs] records a [normalise] span
    around the (constant-time) set-up; nodes are built by the queries. *)

val of_spec :
  ?obs:Obs.t ->
  ?max_states:int ->
  ?stop_at:float ->
  ?cancel:(unit -> bool) ->
  Defs.t ->
  Proc.t ->
  t
(** The normal form of a specification term, stepped through
    [Semantics.make_cached] with [Proc.const_fold] applied to the root, as
    the one-shot compiler in {!Lts} does — so nodes hold the same states
    and are numbered the same as over its graph. No graph is compiled:
    specification states are interned only as nodes need them. Once more
    than [max_states] (default [1_000_000]) distinct states are interned, a
    query raises [Out_of_budget `States]; [stop_at] (absolute, on the
    {!Obs.now} clock) is read before each state expansion but the first
    and [cancel] once every 256 expansions; they raise [`Deadline] and
    [`Interrupt]. [obs] records a
    [normalise] span around the set-up. *)

val view : t -> t
(** A fresh, empty normal form over a new instance of the same state
    source (sharing its transition memo), with the same limits. Its node
    numbering is its own: walking a view never changes the original's. *)

val initial : t -> int
(** The initial node (always [0]); built by the first call. *)

val num_nodes : t -> int
(** Nodes built so far. *)

val force : t -> unit
(** Build every reachable node with all its successors (the eager normal
    form). Only whole-graph consumers need it — the trace checker freezes
    the complete normal form into tables. *)

val members : t -> int -> int list
(** The (sorted) underlying source states of a node. *)

val afters : t -> int -> (Event.label * int) list
(** Outgoing edges of a node, interning every successor; labels are
    visible events or [Tick], sorted and unique per label. *)

val after : t -> int -> Event.label -> int option
(** Follow one label, if the specification allows it; interns only that
    successor. *)

val allows : t -> int -> Event.label -> bool
(** [after t i l <> None], without interning the successor. *)

val acceptances : t -> int -> Event.label list list
(** Minimal acceptance sets: for each stable member state, its initials
    (visible events and [Tick]); dominated (superset) acceptances removed.
    Empty if the node has no stable member. *)

val can_terminate : t -> int -> bool
(** The node has a [Tick] edge. *)

val divergent : t -> int -> bool
(** Some member state of the node lies on a tau cycle — in the
    failures-divergences model everything refines such a node. Found
    locally: the member set is tau-closed, so it holds every such cycle. *)
