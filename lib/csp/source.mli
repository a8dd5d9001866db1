(** State sources: a transition system presented as integer states that
    are discovered on demand.

    Both sides of a refinement check read their process through this one
    abstraction: the product search steps the implementation through it
    ([Search]), and the on-demand normal form steps the specification
    through it ([Normalise]). A source is either process terms interned as
    they are reached ({!of_proc}) or the nodes of a precompiled {!Lts.t}
    ({!of_lts}). Rows are sorted by label ([Tau] first), as both
    [Semantics] and [Lts] produce them. *)

type t = {
  initial : int;
  step : int -> (Event.label * int) list;
      (** the transitions of a state, sorted by label; successors not seen
          before are interned (assigned the next dense id) as they are
          reached *)
  term_of : int -> Proc.t;
  state_count : unit -> int;  (** distinct states interned so far *)
  divergent : (int -> bool) option;
      (** [Some p]: check divergence — prune subtrees under divergent
          specification nodes and report a divergent implementation state
          elsewhere as a violation. [None]: divergence-blind. *)
}

type interner =
  [ `Id  (** hash-consed: [Proc.equal] / [Proc.hash], O(1) *)
  | `Structural
    (** deep [Proc.structural_equal] / [Proc.structural_hash]; the test
        oracle — verdicts must be identical to [`Id] *) ]

val of_proc :
  ?interner:interner ->
  make_step:(unit -> Proc.t -> (Event.label * Proc.t) list) ->
  Proc.t ->
  t
(** States are process terms, interned on the fly as they are reached.
    [make_step] is invoked once, to build the source's private transition
    function. Default interner is [`Id]. Divergence-blind. *)

val of_lts : ?check_divergence:bool -> Lts.t -> t
(** States are the nodes of a precompiled graph. [check_divergence]
    (default [true]) precomputes the tau-SCC divergence bitset. *)
