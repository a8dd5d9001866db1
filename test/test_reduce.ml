(* The staged reduction pipeline: --reductions parsing, staged
   compilation against the one-shot compiler, each graph pass actually
   reducing what it claims to reduce, the reduced engine's verdicts and
   counterexamples staying byte-identical to the unreduced search's for
   every pass combination, agreement with the seed engine
   ([Helpers.raw_check]), and checkpoints recording the pipeline they were
   taken under. *)

open Csp

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pipeline parsing and printing                                       *)
(* ------------------------------------------------------------------ *)

let test_pipeline_strings () =
  check_string "default renders in canonical order" "dead,tau,bisim,por"
    (Reduce.pipeline_to_string Reduce.default_pipeline);
  check_string "the empty pipeline renders as none" "none"
    (Reduce.pipeline_to_string []);
  check_string "fingerprint of the empty pipeline" "none"
    (Reduce.fingerprint []);
  let parse s =
    match Reduce.pipeline_of_string s with
    | Ok p -> Reduce.pipeline_to_string p
    | Error msg -> Alcotest.failf "%S did not parse: %s" s msg
  in
  check_string "none parses to the empty pipeline" "none" (parse "none");
  check_string "the empty string parses like none" "none" (parse "");
  check_string "default parses to the full pipeline" "dead,tau,bisim,por"
    (parse "default");
  check_string "subsets are canonicalised" "tau,bisim" (parse "bisim,tau");
  check_string "duplicates collapse" "por" (parse "por, por");
  (match Reduce.pipeline_of_string "bisim,bogus" with
   | Ok _ -> Alcotest.fail "an unknown pass name was accepted"
   | Error msg ->
     check_bool "the error names the offending pass" true
       (Helpers.contains msg "bogus"));
  List.iter
    (fun (model, expected) ->
      check_string
        (Printf.sprintf "effective passes under %s" expected)
        expected
        (Reduce.pipeline_to_string
           (Reduce.effective ~model Reduce.default_pipeline)))
    [ `Traces, "dead,tau,bisim,por"; `Failures, "tau,bisim"; `Fd, "tau,bisim" ];
  check_string "effective preserves canonical order on subsets" "dead,bisim"
    (Reduce.pipeline_to_string
       (Reduce.effective ~model:`Traces [ Reduce.Bisim; Reduce.Dead_events ]))

(* ------------------------------------------------------------------ *)
(* Staged compilation produces the same reachable behaviour            *)
(* ------------------------------------------------------------------ *)

(* The set of traces (label sequences, taus included) of length <= depth,
   rendered and sorted — a state-identity-free comparison between the two
   compilers. Memoized per (state, remaining depth). *)
let traces_to_depth lts depth =
  let memo = Hashtbl.create 97 in
  let rec suffixes st d =
    if d = 0 then [ "" ]
    else
      match Hashtbl.find_opt memo (st, d) with
      | Some ts -> ts
      | None ->
        let ts =
          ""
          :: List.concat_map
               (fun (l, j) ->
                 let lbl = Format.asprintf "%a" Event.pp_label l in
                 List.map (fun t -> lbl ^ ";" ^ t) (suffixes j (d - 1)))
               (Lts.transitions_of lts st)
        in
        let ts = List.sort_uniq compare ts in
        Hashtbl.add memo (st, d) ts;
        ts
  in
  suffixes lts.Lts.initial depth

let staged_compile_agrees =
  QCheck.Test.make ~count:120
    ~name:"compile_staged explores the same behaviour as Lts.compile"
    Helpers.arb_proc (fun p ->
      let defs = Helpers.make_defs () in
      let raw =
        match Lts.compile_budgeted ~max_states:50_000 defs p with
        | Lts.Complete lts -> lts
        | Lts.Partial _ -> QCheck.Test.fail_reportf "raw compile was partial"
      in
      let staged =
        match Reduce.compile_staged ~max_states:50_000 defs p with
        | Lts.Complete lts -> lts
        | Lts.Partial _ ->
          QCheck.Test.fail_reportf "staged compile was partial"
      in
      let expected = traces_to_depth raw 5 in
      let got = traces_to_depth staged 5 in
      let terms lts =
        List.sort_uniq Proc.compare (Array.to_list lts.Lts.states)
      in
      (expected = got
      || QCheck.Test.fail_reportf
           "trace sets to depth 5 differ on %s:@.raw:    %s@.staged: %s"
           (Proc.to_string p)
           (String.concat " " expected)
           (String.concat " " got))
      && (List.equal Proc.equal (terms raw) (terms staged)
         || QCheck.Test.fail_reportf "the state terms differ on %s"
              (Proc.to_string p)))

(* The decomposition unfolds named calls, but the term semantics keeps a
   call as a state of its own: the staged graph must reach the same
   states, or normal-form nodes and state counts would depend on which
   compiler built a graph. *)
let test_staged_keeps_call_states () =
  let defs = Helpers.make_defs () in
  Defs.define_proc defs "A" [] (Helpers.send "a" 0 (Proc.call ("A", [])));
  Defs.define_proc defs "B" [] (Helpers.send "b" 0 (Proc.call ("B", [])));
  Defs.define_proc defs "SYS" []
    (Proc.inter (Proc.call ("A", []), Proc.call ("B", [])));
  let sys = Proc.call ("SYS", []) in
  let terms = function
    | Lts.Complete lts ->
      List.sort_uniq Proc.compare (Array.to_list lts.Lts.states)
    | Lts.Partial _ -> Alcotest.fail "the compile was partial"
  in
  Alcotest.(check (list Helpers.proc_testable))
    "the same states as the term semantics"
    (terms (Lts.compile_budgeted defs sys))
    (terms (Reduce.compile_staged defs sys))

(* ------------------------------------------------------------------ *)
(* Each pass earns its keep                                            *)
(* ------------------------------------------------------------------ *)

(* A call-free chain of [n] sends on [chan], values cycling through the
   channel's 0..2 domain. *)
let chain chan n =
  let rec go i = if i = n then Proc.stop else Helpers.send chan (i mod 3) (go (i + 1)) in
  go 0

let reduction_stats name = function
  | Refine.Holds stats -> (
    match
      List.find_opt (fun (p, _, _) -> String.equal p name)
        stats.Refine.reductions
    with
    | Some (_, before, after) -> (stats, before, after)
    | None ->
      Alcotest.failf "no %S entry in the reduction stats of %a" name
        Refine.pp_result (Refine.Holds stats))
  | r -> Alcotest.failf "expected Holds, got %a" Refine.pp_result r

let test_dead_and_tau_collapse () =
  (* against an all-accepting spec every event is dead: the default
     pipeline must collapse a 60-state chain to almost nothing, and the
     pass stats must record the shrinkage in the result *)
  let defs = Helpers.make_defs () in
  let impl = chain "a" 60 in
  let spec = Proc.run (Eventset.chan "a") in
  let unreduced_pairs =
    match
      Refine.check
        ~config:Check_config.(default |> with_reductions [])
        defs ~spec ~impl
    with
    | Refine.Holds s -> s.Refine.pairs
    | r ->
      Alcotest.failf "the unreduced search should hold, got %a"
        Refine.pp_result r
  in
  let reduced = Refine.check defs ~spec ~impl in
  let stats, before, after = reduction_stats "tau" reduced in
  check_bool "tau compression shrank the graph" true (after < before);
  check_bool "the reduced product is far smaller than the unreduced one"
    true
    (stats.Refine.pairs < 10 && unreduced_pairs > 50);
  check_string "all graph passes are on record" "dead,tau,bisim"
    (String.concat ","
       (List.map (fun (p, _, _) -> p) stats.Refine.reductions))

let test_bisim_quotients () =
  (* STOP and STOP ||| STOP are strongly bisimilar but structurally
     different, so the quotient must merge them — and then their
     one-step predecessors too *)
  let defs = Helpers.make_defs () in
  let impl =
    Proc.ext
      ( Helpers.send "a" 0 (Helpers.send "b" 0 Proc.stop),
        Helpers.send "a" 1
          (Helpers.send "b" 0 (Proc.inter (Proc.stop, Proc.stop))) )
  in
  let config =
    Check_config.(default |> with_reductions [ Reduce.Bisim ])
  in
  let result = Refine.check ~config defs ~spec:impl ~impl in
  let _, before, after = reduction_stats "bisim" result in
  check_int "five structural states" 5 before;
  check_int "quotiented to three bisimulation classes" 3 after

let test_por_prunes_interleavings () =
  (* two independent chains: ample sets must explore one component at a
     time instead of the full product grid *)
  let defs = Helpers.make_defs () in
  let impl = Proc.inter (chain "a" 6, chain "b" 6) in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let pairs config =
    match Refine.check ~config defs ~spec ~impl with
    | Refine.Holds s -> s.Refine.pairs
    | r -> Alcotest.failf "expected Holds, got %a" Refine.pp_result r
  in
  let unreduced = pairs Check_config.(default |> with_reductions []) in
  let por =
    pairs Check_config.(default |> with_reductions [ Reduce.Por ])
  in
  check_int "the unreduced search explores the full 7x7 grid" 49 unreduced;
  check_bool
    (Printf.sprintf "ample sets prune the grid (%d < %d)" por unreduced)
    true (por < unreduced)

(* ------------------------------------------------------------------ *)
(* Reduced verdicts are byte-identical to unreduced ones               *)
(* ------------------------------------------------------------------ *)

(* Verdict plus counterexample, stats excluded: exploration counts
   legitimately differ between engines, everything the user acts on must
   not. *)
let render = function
  | Refine.Holds _ -> "holds"
  | Refine.Fails cex ->
    Format.asprintf "fails %a" Refine.pp_counterexample cex
  | Refine.Inconclusive _ -> "inconclusive"

let all_subsets =
  List.fold_left
    (fun acc p -> acc @ List.map (fun s -> s @ [ p ]) acc)
    [ [] ] Reduce.default_pipeline

let reduced_equals_unreduced =
  QCheck.Test.make ~count:12
    ~name:
      "every pass combination at every refinement model matches the \
       unreduced search"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      List.for_all
        (fun model ->
          let expected =
            render
              (Refine.check
                 ~config:
                   Check_config.(
                     default |> with_max_states 50_000 |> with_reductions [])
                 ~model defs ~spec ~impl)
          in
          List.for_all
            (fun pipeline ->
              let config =
                Check_config.(
                  default |> with_max_states 50_000
                  |> with_reductions pipeline)
              in
              let got =
                render (Refine.check ~config ~model defs ~spec ~impl)
              in
              if String.equal expected got then true
              else
                QCheck.Test.fail_reportf
                  "reductions=%s model=%s diverged:@.none: %s@.got: \
                   %s@.spec=%s@.impl=%s"
                  (Reduce.pipeline_to_string pipeline)
                  (match model with
                   | Refine.Traces -> "T"
                   | Refine.Failures -> "F"
                   | Refine.Failures_divergences -> "FD")
                  expected got (Proc.to_string spec) (Proc.to_string impl))
            all_subsets)
        [ Refine.Traces; Refine.Failures; Refine.Failures_divergences ])

(* ------------------------------------------------------------------ *)
(* The seed engine is the oracle                                       *)
(* ------------------------------------------------------------------ *)

(* A counterexample is checked against the operational semantics
   ([Semantics.transitions]) and the denotational traces
   ([Traces.of_proc]), independently of both engines. *)

module Proc_tbl = Hashtbl.Make (struct
  type t = Proc.t

  let equal = Proc.equal
  let hash = Proc.hash
end)

let is_tau (l, _) = match l with Event.Tau -> true | _ -> false

(* The states [p] reaches by [trace], tau moves included. The generated
   processes have no recursion, so these sets are finite. *)
let after defs p trace =
  let closure states =
    let seen = Proc_tbl.create 16 in
    let rec visit q =
      if not (Proc_tbl.mem seen q) then begin
        Proc_tbl.add seen q ();
        List.iter
          (fun ((_, q') as t) -> if is_tau t then visit q')
          (Semantics.transitions defs q)
      end
    in
    List.iter visit states;
    Proc_tbl.fold (fun q () acc -> q :: acc) seen []
  in
  List.fold_left
    (fun states l ->
      closure
        (List.concat_map
           (fun q ->
             List.filter_map
               (fun (l', q') ->
                 if Event.equal_label l l' then Some q' else None)
               (Semantics.transitions defs q))
           states))
    (closure [ p ]) trace

(* Some state of [states] starts an endless run of tau moves. *)
let can_diverge defs states =
  let colour = Proc_tbl.create 16 in
  let rec on_cycle q =
    match Proc_tbl.find_opt colour q with
    | Some `Open -> true
    | Some `Done -> false
    | None ->
      Proc_tbl.replace colour q `Open;
      let cycle =
        List.exists
          (fun ((_, q') as t) -> is_tau t && on_cycle q')
          (Semantics.transitions defs q)
      in
      Proc_tbl.replace colour q `Done;
      cycle
  in
  List.exists on_cycle states

(* The initials of each stable state, sorted. *)
let stable_initials defs states =
  List.filter_map
    (fun q ->
      let ts = Semantics.transitions defs q in
      if List.exists is_tau ts then None
      else Some (List.sort_uniq Event.compare_label (List.map fst ts)))
    states

let is_trace_of defs p trace =
  List.exists
    (List.equal Event.equal_label trace)
    (Traces.of_proc ~depth:(List.length trace) defs p)

let prefixes trace =
  List.init
    (List.length trace + 1)
    (fun n -> List.filteri (fun i _ -> i < n) trace)

(* [cex] is a genuine counterexample of its kind to [spec] refined by
   [impl]: its trace is one of [impl]'s, and
   - a trace violation's trace is one event past a trace of [spec] and
     not itself a trace of [spec];
   - a refusal violation's trace is a trace of [spec], [impl] has a
     stable state after it offering exactly [offered], and no stable
     state of [spec] after it offers only events within [offered];
   - a divergence's trace is a trace of [spec], and [impl] can diverge
     after it.
   Under FD no prefix of the trace may lead [spec] to a divergence,
   which would allow every behaviour below it. A deadlock is accepted as
   reported. *)
let genuine defs ~model ~spec ~impl (cex : Refine.counterexample) =
  let trace = cex.Refine.trace in
  let spec_trace =
    match cex.Refine.violation with
    | Refine.Trace_violation _ ->
      List.filteri (fun i _ -> i < List.length trace - 1) trace
    | _ -> trace
  in
  let no_spec_divergence () =
    model <> Refine.Failures_divergences
    || not
         (List.exists
            (fun t -> can_diverge defs (after defs spec t))
            (prefixes spec_trace))
  in
  is_trace_of defs impl trace
  && is_trace_of defs spec spec_trace
  &&
  match cex.Refine.violation with
  | Refine.Trace_violation _ ->
    (not (is_trace_of defs spec trace)) && no_spec_divergence ()
  | Refine.Refusal_violation { offered; _ } ->
    let offered = List.sort_uniq Event.compare_label offered in
    List.mem offered (stable_initials defs (after defs impl trace))
    && List.for_all
         (fun acc -> not (List.for_all (fun l -> List.mem l offered) acc))
         (stable_initials defs (after defs spec trace))
    && no_spec_divergence ()
  | Refine.Divergence ->
    can_diverge defs (after defs impl trace) && no_spec_divergence ()
  | Refine.Deadlock -> true

(* Some trace of [impl] shorter than [n] events carries a genuine
   counterexample of a kind [model] reports: a trace violation, a
   refusal (F and FD) or a divergence (FD). *)
let shorter_counterexample defs ~model ~spec ~impl n =
  let candidates trace =
    let cex violation = { Refine.trace; violation; impl_state = impl } in
    (match List.rev trace with
     | last :: _ -> [ cex (Refine.Trace_violation last) ]
     | [] -> [])
    @ (if model = Refine.Traces then []
       else
         List.map
           (fun offered ->
             cex (Refine.Refusal_violation { offered; acceptances = [] }))
           (stable_initials defs (after defs impl trace)))
    @ if model = Refine.Failures_divergences then [ cex Refine.Divergence ]
      else []
  in
  n > 0
  && List.exists
       (fun trace ->
         List.length trace < n
         && List.exists (genuine defs ~model ~spec ~impl) (candidates trace))
       (Traces.of_proc ~depth:(n - 1) defs impl)

(* The staged engine must reach the seed engine's ([Helpers.raw_check])
   verdict. The seed engine's counterexample must be genuine for its kind
   and shortest: no trace of the implementation shorter than it carries
   one. The staged engine's must be genuine and exactly as long. Both
   searches go level by level in the visible trace, so they agree on the
   length; at that length the two graphs' different tau moves may lead
   each to a violation of another kind, and either is accepted. *)
let agrees_with_seed_engine =
  let kind = function
    | Refine.Trace_violation _ -> "trace"
    | Refine.Refusal_violation _ -> "refusal"
    | Refine.Deadlock -> "deadlock"
    | Refine.Divergence -> "divergence"
  in
  let verdict = function
    | Refine.Holds _ -> "holds"
    | Refine.Fails _ -> "fails"
    | Refine.Inconclusive _ -> "inconclusive"
  in
  let model_name = function
    | Refine.Traces -> "T"
    | Refine.Failures -> "F"
    | Refine.Failures_divergences -> "FD"
  in
  QCheck.Test.make ~count:40
    ~name:"every pipeline at every model agrees with the seed engine"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      List.for_all
        (fun (model, oracle_model) ->
          let seed =
            Helpers.raw_check ~max_states:50_000 defs ~model:oracle_model
              ~spec ~impl
          in
          (match seed with
           | Refine.Fails seed_cex ->
             let fail what =
               QCheck.Test.fail_reportf
                 "model=%s: the seed engine's counterexample %s@.seed: %a@.\
                  spec=%s@.impl=%s"
                 (model_name model) what Refine.pp_result seed
                 (Proc.to_string spec) (Proc.to_string impl)
             in
             (genuine defs ~model ~spec ~impl seed_cex
             || fail "is not genuine")
             && ((not
                    (shorter_counterexample defs ~model ~spec ~impl
                       (List.length seed_cex.Refine.trace)))
                || fail "is not a shortest one")
           | Refine.Holds _ | Refine.Inconclusive _ -> true)
          && List.for_all
            (fun pipeline ->
              let config =
                Check_config.(
                  default |> with_max_states 50_000
                  |> with_reductions pipeline)
              in
              let result = Refine.check ~config ~model defs ~spec ~impl in
              let fail what =
                QCheck.Test.fail_reportf
                  "reductions=%s model=%s: %s@.seed: %a@.got: %a@.spec=%s@.\
                   impl=%s"
                  (Reduce.pipeline_to_string pipeline)
                  (model_name model) what Refine.pp_result seed
                  Refine.pp_result result
                  (Proc.to_string spec) (Proc.to_string impl)
              in
              (String.equal (verdict seed) (verdict result)
              || fail "verdicts differ")
              &&
              match seed, result with
              | Refine.Fails seed_cex, Refine.Fails cex ->
                (genuine defs ~model ~spec ~impl cex
                || fail "the counterexample is not genuine")
                && (List.length cex.Refine.trace
                    = List.length seed_cex.Refine.trace
                   || fail
                        (Printf.sprintf
                           "a %s counterexample of %d events, the seed \
                            engine's has %d"
                           (kind cex.Refine.violation)
                           (List.length cex.Refine.trace)
                           (List.length seed_cex.Refine.trace)))
              | _ -> true)
            all_subsets)
        [
          Refine.Traces, `Traces;
          Refine.Failures, `Failures;
          Refine.Failures_divergences, `Fd;
        ])

(* IMPL can refuse everything at once, which SPEC may not: it must offer
   tick or c.1. IMPL also reaches, after more tau moves and c.1, a
   refusal of b.2. A search that goes breadth-first in moves reported
   the longer one; every pipeline must report the refusal after <>. *)
let test_shortest_counterexample () =
  let loaded =
    Cspm.Elaborate.load_string
      {script|channel a : {0..2}
channel b : {0..2}
channel c : {0..1}
SPEC = ((c!1 -> (a!2 -> (b!2 -> STOP))) |~| ((STOP |~| SKIP) [] (SKIP [] STOP))) \ {|a|}
IMPL = (((b!2 -> STOP) |~| STOP) |~| ((c!1 -> STOP) [| {a.2} |] SKIP)) [| {|a, b|} |] (a?x -> (b!2 -> (c!1 -> STOP)))
assert SPEC [F= IMPL
|script}
  in
  List.iter
    (fun pipeline ->
      let config = Check_config.(default |> with_reductions pipeline) in
      match Cspm.Check.run ~config loaded with
      | [ { Cspm.Check.result = Refine.Fails cex; _ } ] ->
        check_int
          (Reduce.pipeline_to_string pipeline ^ ": trace length")
          0
          (List.length cex.Refine.trace);
        check_bool
          (Reduce.pipeline_to_string pipeline ^ ": a refusal")
          true
          (match cex.Refine.violation with
           | Refine.Refusal_violation _ -> true
           | _ -> false)
      | _ -> Alcotest.fail "expected one failing assertion")
    [ Reduce.default_pipeline; [] ]

(* ------------------------------------------------------------------ *)
(* The dead-event pass walks the spec only as far as it must          *)
(* ------------------------------------------------------------------ *)

(* Random specs, half of them interleaved with a RUN over a random set so
   some labels do self-loop everywhere; random implementations supply the
   candidates (their visible labels). The early-stopping walk over a view
   must agree with the eager definition — a self-loop at every node of the
   forced normal form — restricted to the candidates, and must leave the
   normal form it was handed untouched. *)
let spec_free_matches_eager =
  let gen_spec =
    QCheck.Gen.(
      oneof
        [
          Helpers.gen_proc;
          map2
            (fun p chans -> Proc.inter (p, Proc.run (Eventset.chans chans)))
            Helpers.gen_proc
            (oneofl [ [ "a" ]; [ "b" ]; [ "a"; "c" ]; [ "done_" ] ]);
        ])
  in
  QCheck.Test.make ~count:150
    ~name:"spec_free_labels matches the eager self-loop definition"
    (QCheck.pair
       (QCheck.make ~print:Proc.to_string gen_spec)
       Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      let candidates =
        let g = Lts.compile defs impl in
        List.concat_map (Lts.initials g) (List.init (Lts.num_states g) Fun.id)
      in
      let eager = Normalise.normalise (Lts.compile defs spec) in
      Normalise.force eager;
      let self_loops_everywhere l =
        List.for_all
          (fun i -> Normalise.after eager i l = Some i)
          (List.init (Normalise.num_nodes eager) Fun.id)
      in
      let expected =
        List.sort_uniq Event.compare_label
          (List.filter
             (fun l ->
               (match l with Event.Vis _ -> true | _ -> false)
               && self_loops_everywhere l)
             candidates)
      in
      let norm = Normalise.of_spec defs spec in
      let got = Reduce.spec_free_labels norm candidates in
      let show ls =
        String.concat ", " (List.map (Format.asprintf "%a" Event.pp_label) ls)
      in
      (List.equal Event.equal_label expected got
       || QCheck.Test.fail_reportf "eager [%s] vs walk [%s]@.spec=%s"
            (show expected) (show got) (Proc.to_string spec))
      && (Normalise.num_nodes norm = 0
         || QCheck.Test.fail_reportf "the walk numbered the search's nodes"))

(* ------------------------------------------------------------------ *)
(* Checkpoints record their pipeline                                   *)
(* ------------------------------------------------------------------ *)

(* A 20-state chain refining itself: no event is dead against this spec,
   no states are bisimilar, so the default pipeline leaves all 21 states
   in place and a 5-pair budget interrupts the reduced search itself. *)
let test_checkpoint_pipeline_mismatch () =
  let defs = Helpers.make_defs () in
  let impl = chain "a" 20 in
  let interrupted config =
    match
      Refine.check
        ~config:(Check_config.with_max_pairs 5 config)
        defs ~spec:impl ~impl
    with
    | Refine.Inconclusive (_, { Refine.checkpoint = Some cp; _ }) -> cp
    | r ->
      Alcotest.failf "the pair budget did not bite: %a" Refine.pp_result r
  in
  let cp = interrupted Check_config.default in
  check_string "the checkpoint records the effective pipeline"
    "dead,tau,bisim,por" cp.Search.pipeline;
  (* resuming under different reductions must be refused loudly *)
  (try
     ignore
       (Refine.resume
          ~config:Check_config.(default |> with_reductions [ Reduce.Bisim ])
          ~checkpoint:cp defs ~spec:impl ~impl);
     Alcotest.fail "a resume under different reductions was accepted"
   with Search.Resume_mismatch msg ->
     check_bool "the refusal names both pipelines" true
       (Helpers.contains msg "dead,tau,bisim,por"
       && Helpers.contains msg "bisim"));
  (* the same pipeline resumes to the verdict *)
  check_string "a matching resume completes" "holds"
    (render (Refine.resume ~checkpoint:cp defs ~spec:impl ~impl));
  (* an unreduced checkpoint is stamped none, and a default-config resume
     must follow the recording, not its own pipeline *)
  let cp_none = interrupted Check_config.(default |> with_reductions []) in
  check_string "unreduced checkpoints are stamped none" "none"
    cp_none.Search.pipeline;
  check_string "a none checkpoint resumes on the unreduced staged search"
    "holds"
    (render (Refine.resume ~checkpoint:cp_none defs ~spec:impl ~impl))

let suite =
  ( "reduce",
    [
      Alcotest.test_case "--reductions parsing and rendering" `Quick
        test_pipeline_strings;
      QCheck_alcotest.to_alcotest staged_compile_agrees;
      Alcotest.test_case "staged compilation keeps an unfolded call's state"
        `Quick test_staged_keeps_call_states;
      Alcotest.test_case "dead events + tau compression collapse" `Quick
        test_dead_and_tau_collapse;
      Alcotest.test_case "bisimulation quotienting merges equivalent states"
        `Quick test_bisim_quotients;
      Alcotest.test_case "ample sets prune independent interleavings" `Quick
        test_por_prunes_interleavings;
      QCheck_alcotest.to_alcotest reduced_equals_unreduced;
      QCheck_alcotest.to_alcotest agrees_with_seed_engine;
      Alcotest.test_case "a shortest counterexample is reported" `Quick
        test_shortest_counterexample;
      QCheck_alcotest.to_alcotest spec_free_matches_eager;
      Alcotest.test_case "checkpoints record and enforce their pipeline"
        `Quick test_checkpoint_pipeline_mismatch;
    ] )
