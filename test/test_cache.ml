(* The content-addressed LTS cache: warm verdicts byte-identical to cold
   ones for every model, pipeline, and worker count; digests that miss
   only for the definitions an edit can actually reach; warm re-checks
   skipping the compile/normalise/reduce spans entirely; disk
   persistence surviving a fresh process ("daemon restart"); and a
   shared cache staying coherent under concurrent checking domains. *)

open Csp

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let render = function
  | Refine.Holds _ -> "holds"
  | Refine.Fails cex ->
    Format.asprintf "fails %a" Refine.pp_counterexample cex
  | Refine.Inconclusive _ -> "inconclusive"

let all_subsets =
  List.fold_left
    (fun acc p -> acc @ List.map (fun s -> s @ [ p ]) acc)
    [ [] ] Reduce.default_pipeline

(* ------------------------------------------------------------------ *)
(* Warm verdicts are byte-identical to cold ones                       *)
(* ------------------------------------------------------------------ *)

(* One cache is shared across the whole configuration matrix, exactly as
   the daemon shares one across a job stream: later configurations hit
   entries populated by earlier ones, and every cached verdict — first-touch or hit — must
   render identically to the cache-free engine's. *)
let cached_equals_uncached =
  QCheck.Test.make ~count:6
    ~name:
      "cached verdicts match uncached ones for every model and pipeline"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let cache = Cache.create () in
      List.for_all
        (fun model ->
          let defs = Helpers.make_defs () in
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
                  |> with_reductions pipeline |> with_cache cache)
              in
              List.for_all
                (fun leg ->
                  let got =
                    render (Refine.check ~config ~model defs ~spec ~impl)
                  in
                  if String.equal expected got then true
                  else
                    QCheck.Test.fail_reportf
                      "%s leg diverged (reductions=%s model=%s):@.uncached: \
                       %s@.cached:   %s@.spec=%s@.impl=%s"
                      leg
                      (Reduce.pipeline_to_string pipeline)
                      (match model with
                       | Refine.Traces -> "T"
                       | Refine.Failures -> "F"
                       | Refine.Failures_divergences -> "FD")
                      expected got (Proc.to_string spec)
                      (Proc.to_string impl))
                [ "cold"; "warm" ])
            all_subsets)
        [ Refine.Traces; Refine.Failures; Refine.Failures_divergences ])

(* The search alone numbers the spec's normal-form nodes, whether the
   normal form steps the term (no cache) or a cached graph (cold, warm):
   verdicts, counterexamples and every count agree across all four legs,
   and in the traces model every node the check built was reached by a
   pair, bar the one whose pair a budget may have refused. *)
let render_stats = function
  | Refine.Holds s ->
    Printf.sprintf "holds %d/%d/%d" s.Refine.impl_states s.Refine.spec_nodes
      s.Refine.pairs
  | Refine.Inconclusive (s, _) ->
    Printf.sprintf "inconclusive %d/%d/%d" s.Refine.impl_states
      s.Refine.spec_nodes s.Refine.pairs
  | Refine.Fails _ as r -> render r

let stats_identical_across_cache_legs =
  QCheck.Test.make ~count:20
    ~name:"stats match across no cache, cold, warm and workers 2"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      let checks =
        [
          ( "T",
            fun config ->
              Refine.check ~config ~model:Refine.Traces defs ~spec ~impl );
          ( "F",
            fun config ->
              Refine.check ~config ~model:Refine.Failures defs ~spec ~impl );
          ( "FD",
            fun config ->
              Refine.check ~config ~model:Refine.Failures_divergences defs
                ~spec ~impl );
          "det", (fun config -> Refine.deterministic ~config defs impl);
        ]
      in
      List.for_all
        (fun pipeline ->
          let base =
            Check_config.(
              default |> with_max_states 50_000 |> with_reductions pipeline)
          in
          (* a tight pair budget after a full run: a normal form shared
             with the earlier check would report the earlier check's
             nodes *)
          let tight = Check_config.with_max_pairs 3 base in
          let cache = Cache.create () in
          List.for_all
            (fun (name, check) ->
              let full = check base in
              let expected = render_stats full in
              let expected_tight = render_stats (check tight) in
              (match name, full with
               | "T", (Refine.Holds s | Refine.Inconclusive (s, _))
                 when s.Refine.spec_nodes > s.Refine.pairs + 1 ->
                 QCheck.Test.fail_reportf
                   "%d spec nodes for %d pairs@.spec=%s@.impl=%s"
                   s.Refine.spec_nodes s.Refine.pairs (Proc.to_string spec)
                   (Proc.to_string impl)
               | _ -> ());
              List.for_all
                (fun (leg, config, expected) ->
                  let got = render_stats (check config) in
                  String.equal expected got
                  || QCheck.Test.fail_reportf
                       "%s leg of %s diverged (reductions=%s):@.no cache: \
                        %s@.got:      %s@.spec=%s@.impl=%s"
                       leg name
                       (Reduce.pipeline_to_string pipeline)
                       expected got (Proc.to_string spec)
                       (Proc.to_string impl))
                [
                  "cold", Check_config.with_cache cache base, expected;
                  "warm", Check_config.with_cache cache base, expected;
                  ( "warm with 3 pairs",
                    Check_config.with_cache cache tight,
                    expected_tight );
                  "workers 2", Check_config.with_workers 2 base, expected;
                ])
            checks)
        [ []; Reduce.default_pipeline ])

(* The random terms above name no process. A spec that is a named call
   to a composition is where the cached staged graph and the stepped
   term could disagree on states: the term semantics keeps the call
   apart from the re-reached body. *)
let test_call_rooted_spec_stats () =
  let defs = Helpers.make_defs () in
  Defs.define_proc defs "A" [] (Helpers.send "a" 0 (Proc.call ("A", [])));
  Defs.define_proc defs "B" [] (Helpers.send "b" 0 (Proc.call ("B", [])));
  Defs.define_proc defs "SPEC" []
    (Proc.inter (Proc.call ("A", []), Proc.call ("B", [])));
  Defs.define_proc defs "P" []
    (Helpers.send "a" 0 (Helpers.send "b" 0 (Proc.call ("P", []))));
  let spec = Proc.call ("SPEC", []) and impl = Proc.call ("P", []) in
  List.iter
    (fun pipeline ->
      let base = Check_config.(default |> with_reductions pipeline) in
      let check config = render_stats (Refine.check ~config defs ~spec ~impl) in
      let expected = check base in
      let cache = Cache.create () in
      List.iter
        (fun leg ->
          check_string
            (Printf.sprintf "%s leg, reductions=%s" leg
               (Reduce.pipeline_to_string pipeline))
            expected
            (check (Check_config.with_cache cache base)))
        [ "cold"; "warm" ])
    [ []; Reduce.default_pipeline ]

(* ------------------------------------------------------------------ *)
(* Digest invalidation is exactly as wide as reachability              *)
(* ------------------------------------------------------------------ *)

(* Two environments differing in one definition's body: terms that can
   reach the edited definition must change digest, terms that cannot
   must keep it — byte for byte, across distinct [Defs.t] values. *)
let edited_defs () =
  let build p_body =
    let defs = Helpers.make_defs () in
    Defs.define_proc defs "P" [] p_body;
    Defs.define_proc defs "Q" [] (Helpers.send "b" 0 Proc.stop);
    Defs.define_proc defs "Top" []
      (Proc.inter (Proc.call ("P", []), Proc.call ("Q", [])));
    defs
  in
  ( build (Helpers.send "a" 0 Proc.stop),
    build (Helpers.send "a" 1 Proc.stop) )

let test_digest_reachability () =
  let defs1, defs2 = edited_defs () in
  let d defs name = Cache.digest_term defs (Proc.call (name, [])) in
  check_string "a term that cannot reach the edit keeps its digest"
    (d defs1 "Q") (d defs2 "Q");
  check_bool "a term naming the edited definition changes digest" true
    (not (String.equal (d defs1 "P") (d defs2 "P")));
  check_bool "a term reaching the edit transitively changes digest" true
    (not (String.equal (d defs1 "Top") (d defs2 "Top")));
  (* the same content in a freshly built environment digests identically —
     keys are content, not [Defs.t] identity *)
  let defs1', _ = edited_defs () in
  check_string "digests are content-addressed, not Defs-identity-addressed"
    (d defs1 "Top") (d defs1' "Top")

(* After an edit, re-checking the untouched component is pure hits and
   the edited component is a fresh miss — the incremental-re-checking
   contract, observed through the stats counters. *)
let test_edit_invalidates_only_affected () =
  let defs1, defs2 = edited_defs () in
  let cache = Cache.create () in
  let config =
    Check_config.(default |> with_max_states 10_000 |> with_cache cache)
  in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let run defs name =
    render (Refine.check ~config defs ~spec ~impl:(Proc.call (name, [])))
  in
  check_string "P holds before the edit" "holds" (run defs1 "P");
  check_string "Q holds before the edit" "holds" (run defs1 "Q");
  let cold = Cache.stats cache in
  check_bool "the cold runs populated the cache" true (cold.Cache.misses > 0);
  (* untouched component: every lookup hits *)
  check_string "Q holds after the edit" "holds" (run defs2 "Q");
  let after_q = Cache.stats cache in
  check_int "re-checking the untouched component misses nothing"
    cold.Cache.misses after_q.Cache.misses;
  check_bool "and it hit the cache" true (after_q.Cache.hits > cold.Cache.hits);
  (* edited component: its graph keys miss (the spec's key still hits) *)
  check_string "P holds after the edit too" "holds" (run defs2 "P");
  let after_p = Cache.stats cache in
  check_bool "re-checking the edited component recompiles" true
    (after_p.Cache.misses > after_q.Cache.misses)

(* ------------------------------------------------------------------ *)
(* A warm re-check skips compile, normalise, and reduce entirely       *)
(* ------------------------------------------------------------------ *)

let spans_of_run f =
  let path = Filename.temp_file "cache_spans" ".jsonl" in
  let oc = open_out path in
  let obs = Obs.create (Obs.Jsonl oc) in
  f obs;
  Obs.flush obs;
  close_out oc;
  let names = ref [] in
  let ic = open_in path in
  (try
     while true do
       match Obs.Json.parse (input_line ic) with
       | Error _ -> ()
       | Ok json ->
         (match Obs.Json.(member "ev" json, member "name" json) with
          | Some (Obs.Json.Str "span"), Some (Obs.Json.Str name) ->
            names := name :: !names
          | _ -> ())
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  !names

let test_warm_run_skips_pipeline_spans () =
  let cache = Cache.create () in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "b" 1 Proc.stop) in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let run obs =
    check_string "the check holds" "holds"
      (render
         (Refine.check
            ~config:Check_config.(default |> with_cache cache |> with_obs obs)
            defs ~spec ~impl))
  in
  let has names prefix = List.exists (fun n -> Helpers.contains n prefix) names in
  let cold = spans_of_run run in
  check_bool "the cold run compiled" true (has cold "compile_staged");
  check_bool "the cold run normalised" true (has cold "normalise");
  let warm = spans_of_run run in
  check_bool "the warm run searched" true (has warm "search.");
  check_bool "the warm run did not compile" false (has warm "compile_staged");
  check_bool "the warm run did not normalise" false (has warm "normalise");
  check_bool "the warm run did not reduce" false (has warm "reduce.")

(* ------------------------------------------------------------------ *)
(* Disk persistence: a fresh cache starts warm from the directory      *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let path = Filename.temp_file "ltscache" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let test_persistence_across_caches () =
  let dir = temp_dir () in
  let persist =
    { Cache.dir; write = (fun ~path text -> Serve.Fsio.atomic_write ~path text) }
  in
  let defs = Helpers.make_defs () in
  let impl = Helpers.send "a" 0 (Helpers.send "a" 1 Proc.stop) in
  let spec = Proc.run (Eventset.chan "a") in
  let run cache =
    render
      (Refine.check
         ~config:Check_config.(default |> with_cache cache)
         defs ~spec ~impl)
  in
  let first = Cache.create ~persist () in
  check_string "cold verdict" "holds" (run first);
  check_bool "entries were spilled" true
    (Array.exists
       (fun f -> Filename.check_suffix f ".ltsc")
       (Sys.readdir dir));
  (* a different cache value, as after a daemon restart: memory is empty,
     the directory is not *)
  let second = Cache.create ~persist () in
  check_string "warm verdict from disk" "holds" (run second);
  let s = Cache.stats second in
  check_bool
    (Printf.sprintf "the restarted cache hit the directory (%d hits)"
       s.Cache.hits)
    true (s.Cache.hits > 0);
  (* a corrupted entry is a miss, not a crash *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ltsc" then (
        let oc = open_out (Filename.concat dir f) in
        output_string oc "not a cache entry";
        close_out oc))
    (Sys.readdir dir);
  let third = Cache.create ~persist () in
  check_string "corrupt entries fall back to recompiling" "holds" (run third);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* LRU bounding                                                        *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  (* a cache bounded below the workload's footprint must evict, keep its
     resident count under the bound, and keep answering correctly *)
  let cache = Cache.create ~max_resident_states:8 () in
  let defs = Helpers.make_defs () in
  let spec = Proc.run (Eventset.chan "a") in
  List.iter
    (fun n ->
      let rec chain i =
        if i = 0 then Proc.stop else Helpers.send "a" (i mod 3) (chain (i - 1))
      in
      check_string "bounded cache still answers" "holds"
        (render
           (Refine.check
              ~config:Check_config.(default |> with_cache cache)
              defs ~spec ~impl:(chain n))))
    [ 3; 4; 5; 6; 3 ];
  let s = Cache.stats cache in
  check_bool "something was evicted" true (s.Cache.evictions > 0);
  check_bool
    (Printf.sprintf "residency respects the bound (%d states)"
       s.Cache.resident_states)
    true (s.Cache.resident_states <= 8)

(* ------------------------------------------------------------------ *)
(* Marshalling round trip                                              *)
(* ------------------------------------------------------------------ *)

let test_reintern_restores_identity () =
  let p =
    Proc.ext
      ( Helpers.send "a" 0 (Proc.call ("X", [])),
        Proc.hide (Helpers.send "b" 1 Proc.skip, Eventset.chan "b") )
  in
  let copy : Proc.t = Marshal.from_string (Marshal.to_string p []) 0 in
  check_bool "marshalling loses physical identity" false (copy == p);
  let back = Cache.reintern_proc copy in
  check_bool "reinterning restores it" true (back == p)

(* ------------------------------------------------------------------ *)
(* One cache, many checking domains                                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_shared_cache () =
  (* the daemon's shape: concurrent checks race find/add on one cache
     over the same keys. Every verdict must come back correct, and the
     counters must account for every lookup. *)
  let cache = Cache.create () in
  let spec = Proc.run (Eventset.chans [ "a"; "b" ]) in
  let impls =
    [|
      Helpers.send "a" 0 (Helpers.send "b" 1 Proc.stop);
      Helpers.send "b" 0 (Helpers.send "a" 2 Proc.stop);
      Proc.inter (Helpers.send "a" 1 Proc.stop, Helpers.send "b" 2 Proc.stop);
    |]
  in
  let worker () =
    (* each domain builds its own environment — the digests are content,
       so the keys still collide across domains, which is the race *)
    let defs = Helpers.make_defs () in
    Array.to_list
      (Array.init 9 (fun i ->
           render
             (Refine.check
                ~config:Check_config.(default |> with_cache cache)
                defs ~spec
                ~impl:impls.(i mod Array.length impls))))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d ->
      List.iter
        (fun verdict -> check_string "every racing verdict holds" "holds" verdict)
        (Domain.join d))
    domains;
  let s = Cache.stats cache in
  check_bool "the racing domains shared entries" true (s.Cache.hits > 0);
  check_bool "the cache retained the shared graphs" true
    (s.Cache.resident_entries > 0)

let suite =
  ( "cache",
    [
      QCheck_alcotest.to_alcotest cached_equals_uncached;
      QCheck_alcotest.to_alcotest stats_identical_across_cache_legs;
      Alcotest.test_case "a call-rooted spec counts the same with a cache"
        `Quick test_call_rooted_spec_stats;
      Alcotest.test_case "digests invalidate exactly the reachable edits"
        `Quick test_digest_reachability;
      Alcotest.test_case "an edit misses only the component that reaches it"
        `Quick test_edit_invalidates_only_affected;
      Alcotest.test_case "a warm re-check skips compile/normalise/reduce"
        `Quick test_warm_run_skips_pipeline_spans;
      Alcotest.test_case "a fresh cache starts warm from the spill directory"
        `Quick test_persistence_across_caches;
      Alcotest.test_case "LRU eviction respects the resident-state bound"
        `Quick test_lru_eviction;
      Alcotest.test_case "reinterning restores hash-consing identity" `Quick
        test_reintern_restores_identity;
      Alcotest.test_case "concurrent domains share one cache coherently"
        `Quick test_concurrent_shared_cache;
    ] )
