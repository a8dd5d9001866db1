(* perftrace — the traced, in-process half of the benchmark.

   [perfbench/run.py] measures the real binaries with tracing off. This
   program gives the per-layer numbers: it calls the same public library
   functions, in the same order, that the binaries call for a workload,
   and wraps each call in a span (name, start, end, parent) kept in
   memory until the end. Each span also records the words the call
   allocated. Spans are laid out flat under one root per pass, so a
   layer's self time is its summed span time, and the part of the pass
   no named span covers is reported as "other".

   Usage:
     perftrace ns fixed|flawed OUT.csp
         write the Needham-Schroeder script the case-studies workload
         checks (printed from Security.Ns_protocol)
     perftrace run --seconds S [--cache] STEP...
         repeat one pass over the STEPs until S seconds have passed (at
         least once) and print one JSON document on stdout

   A STEP is one of
     check=SCRIPT            what [cspm_check -j 1 SCRIPT] does
     capl=DBC,NODE.can,...   what [capl2cspm -d DBC NODE.can ... --lint
                             --deny-warnings] does
     corpus=SPECS,CORPUS     what [cspm_tracecheck check SPECS --corpus
                             CORPUS] does
   With --cache, all check steps of a pass share one fresh Csp.Cache, as
   the jobs of [cspm_checkd --cache] do.

   The document carries, per pass, the wall time, each layer's self time
   and allocation, and the results of every step (verdicts, state and
   pair counts, emitted scripts, per-spec stream counts). run.py checks
   those results against what the binaries printed; this program checks
   that every pass produced the same results. *)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  name : string;
  parent : int;  (** id of the enclosing span; -1 at the pass root *)
  start : float;
  stop : float;
  alloc_w : float;  (** words allocated, enclosed spans included *)
}

let recorded : (int * span) list ref = ref []
let next_id = ref 0
let current = ref (-1)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let a0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let alloc_w = allocated_words () -. a0 in
      recorded := (id, { name; parent; start = t0; stop; alloc_w }) :: !recorded;
      current := parent)
    f

(* Self time and self allocation per span name: a span's own figures
   minus those of the spans directly inside it. *)
let layer_totals spans =
  let child_time = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun (_, s) ->
      if s.parent >= 0 then begin
        bump child_time s.parent (s.stop -. s.start);
        bump child_alloc s.parent s.alloc_w
      end)
    spans;
  let self_s = Hashtbl.create 32 and self_w = Hashtbl.create 32 in
  let calls = Hashtbl.create 32 in
  List.iter
    (fun (id, s) ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl id) in
      bump self_s s.name (s.stop -. s.start -. get child_time);
      bump self_w s.name (s.alloc_w -. get child_alloc);
      bump calls s.name 1.)
    spans;
  List.sort compare
    (Hashtbl.fold
       (fun name t acc ->
         (name, t, Hashtbl.find self_w name, Hashtbl.find calls name) :: acc)
       self_s [])

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perftrace: " ^ msg); exit 2) fmt

let num n = Obs.Json.Num (float_of_int n)

(* cspm_check's and cspm_checkd's default state budget; with no pair
   budget of its own the product search inherits it. *)
let max_states = 1_000_000

(* ------------------------------------------------------------------ *)
(* check=SCRIPT — Refine.check for a [T=] assertion, as cspm_check     *)
(* runs it with the default reduction pipeline on one worker.          *)

let stats_json (s : Csp.Refine.stats) =
  Obs.Json.Obj
    [
      "impl_states", num s.Csp.Refine.impl_states;
      "spec_nodes", num s.Csp.Refine.spec_nodes;
      "pairs", num s.Csp.Refine.pairs;
      ( "reductions",
        Obs.Json.List
          (List.map
             (fun (pass, before, after) ->
               Obs.Json.Obj
                 [
                   "pass", Obs.Json.Str pass;
                   "states_before", num before;
                   "states_after", num after;
                 ])
             s.Csp.Refine.reductions) );
    ]

let result_json = function
  | Csp.Refine.Holds stats ->
    Obs.Json.Obj [ "verdict", Obs.Json.Str "pass"; "stats", stats_json stats ]
  | Csp.Refine.Fails cex ->
    Obs.Json.Obj
      [
        "verdict", Obs.Json.Str "fail";
        ( "trace",
          Obs.Json.List
            (List.map
               (fun l -> Obs.Json.Str (Csp.Event.label_to_string l))
               cex.Csp.Refine.trace) );
      ]
  | Csp.Refine.Inconclusive _ -> Obs.Json.Obj [ "verdict", Obs.Json.Str "inconclusive" ]

let cached cache key =
  match cache, key with
  | Some c, Some k -> span "csp.cache" (fun () -> Csp.Cache.find c k)
  | _ -> None

let store cache key v =
  match cache, key with
  | Some c, Some k -> span "csp.cache" (fun () -> Csp.Cache.add c k v)
  | _ -> ()

(* The traces-model path of Refine.product_check, one call per span. *)
let refine ~cache defs ~spec ~impl =
  let pipeline = Csp.Reduce.effective ~model:`Traces Csp.Reduce.default_pipeline in
  let spec_key =
    Option.map
      (fun _ -> span "csp.cache" (fun () -> Csp.Cache.spec_key ~max_states defs spec))
      cache
  in
  let norm =
    match cached cache spec_key with
    | Some (Csp.Cache.Norm_spec (_, norm)) -> norm
    | Some _ | None -> (
      match
        span "csp.lts.spec_compile" (fun () ->
            Csp.Lts.compile_budgeted ~max_states defs spec)
      with
      | Csp.Lts.Partial _ -> die "specification exceeds the state budget"
      | Csp.Lts.Complete lts ->
        let norm = span "csp.normalise" (fun () -> Csp.Normalise.normalise lts) in
        store cache spec_key (Csp.Cache.Norm_spec (lts, norm));
        norm)
  in
  let keys =
    match spec_key with
    | None -> None
    | Some spec_k ->
      span "csp.cache" (fun () ->
          let impl_k = Csp.Cache.impl_key ~max_states defs impl in
          Some (impl_k, Csp.Cache.reduced_key ~model:`Traces ~pipeline ~spec:spec_k ~impl:impl_k))
  in
  let impl_key = Option.map fst keys and reduced_key = Option.map snd keys in
  let reduced, pass_stats =
    match cached cache reduced_key with
    | Some (Csp.Cache.Reduced (g, stats)) -> g, stats
    | Some _ | None ->
      let impl_lts =
        match cached cache impl_key with
        | Some (Csp.Cache.Lts_graph g) -> g
        | Some _ | None -> (
          match
            span "csp.reduce.compile_staged" (fun () ->
                Csp.Reduce.compile_staged ~max_states defs impl)
          with
          | Csp.Lts.Partial _ -> die "implementation exceeds the state budget"
          | Csp.Lts.Complete g ->
            store cache impl_key (Csp.Cache.Lts_graph g);
            g)
      in
      let g, stats =
        span "csp.reduce.apply" (fun () ->
            Csp.Reduce.apply ~model:`Traces ~norm pipeline impl_lts)
      in
      store cache reduced_key (Csp.Cache.Reduced (g, stats));
      g, stats
  in
  let result =
    span "csp.search" (fun () ->
        let por =
          if List.memq Csp.Reduce.Por pipeline then
            Some (Csp.Reduce.por_hooks ~norm reduced)
          else None
        in
        Csp.Search.product ~refusal:`None ~max_pairs:max_states ~workers:1 ?por
          ~pipeline:(Csp.Reduce.fingerprint pipeline) ~norm
          (Csp.Search.lts_source ~check_divergence:false reduced))
  in
  match result with
  | Csp.Refine.Fails _ -> (
    (* the raw re-derivation that makes reported counterexamples
       independent of the reductions *)
    let raw =
      span "csp.search.cex" (fun () ->
          let impl0 = Csp.Proc.const_fold ~tys:(Csp.Defs.ty_lookup defs) (Csp.Defs.fenv defs) impl in
          Csp.Search.product ~refusal:`None ~max_pairs:max_states ~workers:1 ~norm
            (Csp.Search.proc_source ~make_step:(fun () -> Csp.Semantics.make_cached defs) impl0))
    in
    match raw with Csp.Refine.Fails _ -> raw | _ -> result)
  | Csp.Refine.Holds stats ->
    Csp.Refine.Holds
      {
        stats with
        Csp.Refine.reductions =
          List.map
            (fun s -> s.Csp.Reduce.pass, s.Csp.Reduce.states_before, s.Csp.Reduce.states_after)
            pass_stats;
      }
  | Csp.Refine.Inconclusive _ -> result

let check_step ~cache path =
  let source = read_file path in
  let ast = span "cspm.parse" (fun () -> Cspm.Parser.script source) in
  let loaded = span "cspm.elaborate" (fun () -> Cspm.Elaborate.load ast) in
  let outcomes =
    List.map
      (fun (assertion, _) ->
        match assertion with
        | Cspm.Ast.A_refines (spec_t, Cspm.Ast.M_traces, impl_t) ->
          let spec, impl =
            span "cspm.elaborate" (fun () ->
                ( Cspm.Elaborate.proc_of_term loaded spec_t,
                  Cspm.Elaborate.proc_of_term loaded impl_t ))
          in
          result_json (refine ~cache loaded.Cspm.Elaborate.defs ~spec ~impl)
        | _ -> die "%s: only [T= assertions are traced" path)
      loaded.Cspm.Elaborate.assertions
  in
  Obs.Json.Obj [ "step", Obs.Json.Str "check"; "script", Obs.Json.Str path; "assertions", Obs.Json.List outcomes ]

(* ------------------------------------------------------------------ *)
(* capl=DBC,NODE.can,... — capl2cspm --lint --deny-warnings            *)

let capl_step dbc_path node_paths =
  let dbc = read_file dbc_path in
  let sources =
    List.map (fun p -> Filename.remove_extension (Filename.basename p), read_file p) node_paths
  in
  let db, programs =
    span "capl.parse" (fun () -> Extractor.Pipeline.parse_sources ~dbc sources)
  in
  let diags = span "analysis.dataflow" (fun () -> Extractor.Pipeline.lint_programs ~db programs) in
  let rendered =
    match diags with
    | [] -> ""
    | ds -> Format.asprintf "@[<v>%a@]@." Analysis.Diag.pp_list ds
  in
  let script =
    if Analysis.Diag.blocking ~deny_warnings:true diags then Obs.Json.Null
    else
      Obs.Json.Str
        (span "extractor.extract" (fun () ->
             Extractor.Pipeline.emit_script (Extractor.Pipeline.build ~db programs)))
  in
  Obs.Json.Obj
    [
      "step", Obs.Json.Str "capl";
      "nodes", Obs.Json.List (List.map (fun p -> Obs.Json.Str p) node_paths);
      "diagnostics", Obs.Json.Str rendered;
      "script", script;
    ]

(* ------------------------------------------------------------------ *)
(* corpus=SPECS,CORPUS — Trace_run.prepare and check_corpus, with the  *)
(* read, parse, map and step stages of each batch timed apart.         *)

type stream_state = {
  mutable corrupt : bool;
  cursors : Csp.Tracecheck.cursor array;
}

let batch = 8192 (* Trace_run.check_corpus's default *)

let corpus_step specs_path corpus =
  let script =
    let source = read_file specs_path in
    let ast = span "cspm.parse" (fun () -> Cspm.Parser.script source) in
    span "cspm.elaborate" (fun () -> Cspm.Elaborate.load ast)
  in
  let header =
    match span "serve.read" (fun () -> Serve.Trace_io.read_header ~path:corpus) with
    | Ok h -> h
    | Error msg -> die "%s: %s" corpus msg
  in
  let dbc = match header.Serve.Trace_io.dbc with Some d -> d | None -> die "%s: no dbc" corpus in
  let mapper =
    span "extractor.trace_rv.make" (fun () ->
        Extractor.Trace_rv.make (Candb.Dbc_parser.parse dbc))
  in
  let defs = script.Cspm.Elaborate.defs in
  let names =
    List.filter_map
      (fun (name, (params, _)) ->
        if params = [] && String.length name >= 4 && String.sub name 0 4 = "SPEC" then Some name
        else None)
      (Csp.Defs.procs defs)
    |> List.sort String.compare
  in
  let checkers =
    Array.of_list
      (List.map
         (fun name ->
           span "csp.tracecheck.compile" (fun () ->
               match
                 Csp.Tracecheck.compile
                   ~alphabet:(Extractor.Trace_rv.channels mapper)
                   defs
                   (Csp.Proc.call (name, []))
               with
               | Ok c -> c
               | Error msg -> die "spec %s: %s" name msg))
         names)
  in
  let nreq = Array.length checkers in
  let states : (string, stream_state) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] in
  let state_of stream =
    match Hashtbl.find_opt states stream with
    | Some st -> st
    | None ->
      let st = { corrupt = false; cursors = Array.map Csp.Tracecheck.start checkers } in
      Hashtbl.replace states stream st;
      order := stream :: !order;
      st
  in
  let entries = ref 0 and events = ref 0 and skipped = ref 0 in
  let faults = ref 0 and malformed = ref 0 in
  let ic = open_in_bin corpus in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      ignore (input_line ic);
      let lines = Array.make batch "" in
      let parsed = Array.make batch (Serve.Trace_io.Malformed { stream = None; reason = "" }) in
      let labels = Array.make batch None in
      let rec loop () =
        let n =
          span "serve.read" (fun () ->
              let n = ref 0 in
              (try
                 while !n < batch do
                   lines.(!n) <- input_line ic;
                   incr n
                 done
               with End_of_file -> ());
              !n)
        in
        if n > 0 then begin
          span "serve.parse" (fun () ->
              for i = 0 to n - 1 do
                parsed.(i) <- Serve.Trace_io.parse_line lines.(i)
              done);
          span "extractor.trace_rv.map" (fun () ->
              for i = 0 to n - 1 do
                labels.(i) <-
                  (match parsed.(i) with
                   | Serve.Trace_io.Entry { entry; _ } -> Extractor.Trace_rv.label_of_entry mapper entry
                   | _ -> None)
              done);
          span "csp.tracecheck.step" (fun () ->
              for i = 0 to n - 1 do
                match parsed.(i) with
                | Serve.Trace_io.Meta _ -> ()
                | Serve.Trace_io.Malformed { stream; _ } ->
                  incr malformed;
                  Option.iter (fun s -> (state_of s).corrupt <- true) stream
                | Serve.Trace_io.Entry { stream; entry } -> (
                  let st = state_of stream in
                  incr entries;
                  (match entry.Canbus.Trace_log.direction with
                   | Canbus.Trace_log.Fault _ -> incr faults
                   | _ -> ());
                  match labels.(i) with
                  | Some label when not st.corrupt ->
                    incr events;
                    for r = 0 to nreq - 1 do
                      st.cursors.(r) <- Csp.Tracecheck.step checkers.(r) st.cursors.(r) label
                    done
                  | _ -> incr skipped)
              done);
          if n = batch then loop ()
        end
      in
      loop ());
  let requirements =
    List.mapi
      (fun r name ->
        let accepted = ref 0 and rejected = ref 0 and corrupt = ref 0 in
        Hashtbl.iter
          (fun _ st ->
            if st.corrupt then incr corrupt
            else
              match Csp.Tracecheck.verdict st.cursors.(r) with
              | Csp.Tracecheck.Accepted -> incr accepted
              | Csp.Tracecheck.Rejected _ -> incr rejected)
          states;
        Obs.Json.Obj
          [
            "spec", Obs.Json.Str name;
            "accepted", num !accepted;
            "rejected", num !rejected;
            "corrupt", num !corrupt;
          ])
      names
  in
  (* per-stream verdicts of the authentication spec, for run.py's oracle *)
  let auth_rejected =
    match List.find_index (String.equal "SPEC_AUTH") names with
    | None -> []
    | Some r ->
      List.filter
        (fun s ->
          match Csp.Tracecheck.verdict (Hashtbl.find states s).cursors.(r) with
          | Csp.Tracecheck.Rejected _ -> true
          | Csp.Tracecheck.Accepted -> false)
        (List.sort String.compare !order)
  in
  Obs.Json.Obj
    [
      "step", Obs.Json.Str "corpus";
      "streams", num (Hashtbl.length states);
      "entries", num !entries;
      "events", num !events;
      "skipped", num !skipped;
      "faults", num !faults;
      "malformed", num !malformed;
      "requirements", Obs.Json.List requirements;
      "auth_rejected", Obs.Json.List (List.map (fun s -> Obs.Json.Str s) auth_rejected);
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type step =
  | Check of string
  | Capl of string * string list
  | Corpus of string * string

let step_of_arg arg =
  match String.index_opt arg '=' with
  | None -> die "bad step %S" arg
  | Some i -> (
    let kind = String.sub arg 0 i in
    let parts = String.split_on_char ',' (String.sub arg (i + 1) (String.length arg - i - 1)) in
    match kind, parts with
    | "check", [ path ] -> Check path
    | "capl", dbc :: (_ :: _ as nodes) -> Capl (dbc, nodes)
    | "corpus", [ specs; corpus ] -> Corpus (specs, corpus)
    | _ -> die "bad step %S" arg)

let run_pass ~use_cache steps =
  recorded := [];
  next_id := 0;
  current := -1;
  let cache = if use_cache then Some (Csp.Cache.create ()) else None in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (function
        | Check path -> check_step ~cache path
        | Capl (dbc, nodes) -> capl_step dbc nodes
        | Corpus (specs, corpus) -> corpus_step specs corpus)
      steps
  in
  let wall = Unix.gettimeofday () -. t0 in
  let layers = layer_totals !recorded in
  let covered = List.fold_left (fun acc (_, t, _, _) -> acc +. t) 0. layers in
  let pass =
    Obs.Json.Obj
      [
        "wall_s", Obs.Json.Num wall;
        "other_s", Obs.Json.Num (wall -. covered);
        ( "layers",
          Obs.Json.Obj
            (List.map
               (fun (name, t, w, calls) ->
                 ( name,
                   Obs.Json.Obj
                     [
                       "self_s", Obs.Json.Num t;
                       "alloc_w", Obs.Json.Num w;
                       "calls", Obs.Json.Num calls;
                     ] ))
               layers) );
      ]
  in
  pass, Obs.Json.List results

let run seconds use_cache steps =
  let t0 = Unix.gettimeofday () in
  let rec go acc first =
    (* start every pass from a compacted heap, as each binary run starts
       from a fresh one *)
    Gc.compact ();
    let pass, results = run_pass ~use_cache steps in
    let first =
      match first with
      | None -> Some results
      | Some r when r = results -> first
      | Some _ -> die "pass %d reproduced different results" (List.length acc + 1)
    in
    let acc = pass :: acc in
    if Unix.gettimeofday () -. t0 < seconds then go acc first
    else List.rev acc, Option.get first
  in
  let passes, results = go [] None in
  print_string
    (Obs.Json.to_string
       (Obs.Json.Obj [ "passes", Obs.Json.List passes; "results", results ]));
  print_newline ()

let write_ns fixed out =
  let defs, system = Security.Ns_protocol.build ~fixed in
  let spec = Security.Ns_protocol.authentication_spec defs in
  Csp.Defs.define_proc defs "NS_SYSTEM" [] system;
  Csp.Defs.define_proc defs "NS_SPEC" [] spec;
  let text =
    Cspm.Print.script
      ~header:
        (Printf.sprintf "Needham-Schroeder public-key protocol (%s), lazy spy"
           (if fixed then "Lowe's fix" else "original"))
      defs
    ^ "\nassert NS_SPEC [T= NS_SYSTEM\n"
  in
  let oc = open_out_bin out in
  output_string oc text;
  close_out oc

let () =
  match Array.to_list Sys.argv with
  | _ :: "ns" :: variant :: [ out ] ->
    (match variant with
     | "fixed" -> write_ns true out
     | "flawed" -> write_ns false out
     | _ -> die "ns: expected fixed or flawed, got %S" variant)
  | _ :: "run" :: "--seconds" :: s :: rest ->
    let seconds = match float_of_string_opt s with Some f -> f | None -> die "bad --seconds %S" s in
    let use_cache, rest =
      match rest with "--cache" :: rest -> true, rest | _ -> false, rest
    in
    if rest = [] then die "run: no steps";
    run seconds use_cache (List.map step_of_arg rest)
  | _ ->
    prerr_endline
      "usage: perftrace ns fixed|flawed OUT.csp\n\
      \       perftrace run --seconds S [--cache] STEP...";
    exit 2
