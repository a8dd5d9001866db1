(* Tests for specification normalization (tau-closure subset construction
   and minimal acceptance sets). *)

open Csp
open Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let defs = make_defs ()

let test_deterministic_spec () =
  let p = send "a" 0 (send "b" 1 Proc.stop) in
  let n = Normalise.normalise (Lts.compile defs p) in
  (* nodes are built on demand: count them once all are built *)
  Normalise.force n;
  check_int "three nodes" 3 (Normalise.num_nodes n);
  check_bool "a.0 leads on" true
    (Option.is_some (Normalise.after n (Normalise.initial n) (vis "a" 0)));
  check_bool "b.1 not initially" true
    (Option.is_none (Normalise.after n (Normalise.initial n) (vis "b" 1)))

let test_internal_choice_merges () =
  (* a!0 -> STOP |~| a!0 -> b!1 -> STOP : after <a.0>, one node holding
     both continuations *)
  let p = Proc.intc (send "a" 0 Proc.stop, send "a" 0 (send "b" 1 Proc.stop)) in
  let n = Normalise.normalise (Lts.compile defs p) in
  let after_a = Normalise.after n (Normalise.initial n) (vis "a" 0) in
  (match after_a with
   | None -> Alcotest.fail "a.0 must be possible"
   | Some node ->
     check_int "merged node has two members" 2
       (List.length (Normalise.members n node));
     check_bool "b.1 available from the merged node" true
       (Option.is_some (Normalise.after n node (vis "b" 1))))

let test_acceptances () =
  (* The initial node of the internal choice has two minimal acceptances:
     {a.0} from each stable branch (deduplicated), reflecting that the
     process may refuse nothing more. *)
  let p = Proc.intc (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  let n = Normalise.normalise (Lts.compile defs p) in
  let accs = Normalise.acceptances n (Normalise.initial n) in
  check_int "two minimal acceptances" 2 (List.length accs);
  (* external choice instead: one acceptance offering both events *)
  let q = Proc.ext (send "a" 0 Proc.stop, send "b" 1 Proc.stop) in
  let n2 = Normalise.normalise (Lts.compile defs q) in
  let accs2 = Normalise.acceptances n2 (Normalise.initial n2) in
  check_int "one acceptance" 1 (List.length accs2);
  check_int "offering both" 2 (List.length (List.hd accs2))

let test_minimality () =
  (* STOP |~| a!0 -> STOP : acceptances {} and {a.0}; {} dominates {a.0},
     leaving only the empty acceptance. *)
  let p = Proc.intc (Proc.stop, send "a" 0 Proc.stop) in
  let n = Normalise.normalise (Lts.compile defs p) in
  let accs = Normalise.acceptances n (Normalise.initial n) in
  check_int "dominated acceptance removed" 1 (List.length accs);
  check_int "empty acceptance" 0 (List.length (List.hd accs))

let test_can_terminate () =
  let n = Normalise.normalise (Lts.compile defs Proc.skip) in
  check_bool "skip terminates" true (Normalise.can_terminate n (Normalise.initial n));
  let n2 = Normalise.normalise (Lts.compile defs Proc.stop) in
  check_bool "stop does not" false (Normalise.can_terminate n2 (Normalise.initial n2))

(* Determinism: every node has at most one successor per label. *)
let normalised_is_deterministic =
  QCheck.Test.make ~count:150 ~name:"normal form is deterministic" arb_proc
    (fun p ->
      let n = Normalise.normalise (Lts.compile ~max_states:20_000 defs p) in
      Normalise.force n;
      let ok = ref true in
      for i = 0 to Normalise.num_nodes n - 1 do
        let labels = List.map fst (Normalise.afters n i) in
        let sorted = List.sort_uniq Event.compare_label labels in
        if List.length sorted <> List.length labels then ok := false
      done;
      !ok)

(* Lazy nodes only appear when asked for. *)
let test_on_demand () =
  let p = send "a" 0 (send "b" 1 (send "c" 0 Proc.stop)) in
  let n = Normalise.of_spec defs p in
  check_int "nothing built yet" 0 (Normalise.num_nodes n);
  let i = Normalise.initial n in
  check_int "the initial node" 1 (Normalise.num_nodes n);
  check_bool "allows a.0" true (Normalise.allows n i (vis "a" 0));
  check_int "allows interns nothing" 1 (Normalise.num_nodes n);
  ignore (Normalise.after n i (vis "a" 0));
  check_int "one step, one node" 2 (Normalise.num_nodes n);
  let v = Normalise.view n in
  Normalise.force v;
  check_int "the view is complete" 4 (Normalise.num_nodes v);
  check_int "the original is untouched" 2 (Normalise.num_nodes n)

(* The lazy [after] walk against the denotational oracle: a label sequence
   of length <= 6 walks through the on-demand normal form of [p] iff it is
   a trace of [p]. Every oracle trace is walked, plus random sequences
   over the whole alphabet (mostly non-traces). *)
let walk_matches_traces =
  let alphabet =
    Event.Tick
    :: Event.Vis (ev0 "done_")
    :: List.concat_map
         (fun (chan, hi) -> List.init (hi + 1) (fun v -> vis chan v))
         [ "a", 2; "b", 2; "c", 1 ]
  in
  let gen_seq = QCheck.Gen.(list_size (int_range 0 6) (oneofl alphabet)) in
  let arb =
    QCheck.make
      ~print:(fun (p, seqs) ->
        Printf.sprintf "%s with %d sequences" (Proc.to_string p)
          (List.length seqs))
      QCheck.Gen.(pair gen_proc (list_size (return 20) gen_seq))
  in
  QCheck.Test.make ~count:150 ~name:"lazy after walk accepts exactly Traces"
    arb (fun (p, seqs) ->
      match Traces.of_proc ~depth:6 defs p with
      | exception Traces.Unguarded _ -> QCheck.assume_fail ()
      | traces ->
        let n = Normalise.of_spec ~max_states:20_000 defs p in
        let walks seq =
          let rec go node = function
            | [] -> true
            | l :: rest ->
              (match Normalise.after n node l with
               | Some node' -> go node' rest
               | None -> false)
          in
          go (Normalise.initial n) seq
        in
        let member seq =
          List.exists (List.equal Event.equal_label seq) traces
        in
        List.for_all
          (fun seq ->
            walks seq = member seq
            || QCheck.Test.fail_reportf "disagree on [%s]: walk=%b oracle=%b"
                 (String.concat ", "
                    (List.map (Format.asprintf "%a" Event.pp_label) seq))
                 (walks seq) (member seq))
          (traces @ seqs))

let suite =
  ( "normalise",
    [
      Alcotest.test_case "deterministic specs" `Quick test_deterministic_spec;
      Alcotest.test_case "nondeterminism merges" `Quick test_internal_choice_merges;
      Alcotest.test_case "acceptance sets" `Quick test_acceptances;
      Alcotest.test_case "acceptance minimality" `Quick test_minimality;
      Alcotest.test_case "termination flag" `Quick test_can_terminate;
      QCheck_alcotest.to_alcotest normalised_is_deterministic;
      Alcotest.test_case "nodes are built on demand" `Quick test_on_demand;
      QCheck_alcotest.to_alcotest walk_matches_traces;
    ] )
