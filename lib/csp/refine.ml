(* All four checks are thin configurations of the shared product-search
   engine in Search: they pick a state source (the staged combinator tree
   explored on the fly, or its compiled and reduced graph) and a
   refusal/divergence mode, and the engine owns interning, parents,
   budgets, and trace reconstruction. *)

type violation = Search.violation =
  | Trace_violation of Event.label
  | Refusal_violation of {
      offered : Event.label list;
      acceptances : Event.label list list;
    }
  | Deadlock
  | Divergence

type counterexample = Search.counterexample = {
  trace : Event.label list;
  violation : violation;
  impl_state : Proc.t;
}

type stats = Search.stats = {
  impl_states : int;
  spec_nodes : int;
  pairs : int;
  wall_s : float;
  states_per_sec : float;
  peak_frontier : int;
  reductions : (string * int * int) list;
}

type budget_kind = Search.budget_kind =
  | Deadline
  | States
  | Pairs
  | Interrupt
  | Memory

type resume_hint = Search.resume_hint = {
  frontier : int;
  deepest : Event.label list;
  exhausted : budget_kind;
  checkpoint : Search.checkpoint option;
}

type result = Search.result =
  | Holds of stats
  | Fails of counterexample
  | Inconclusive of stats * resume_hint

type model =
  | Traces
  | Failures
  | Failures_divergences

let visible_trace = Search.visible_trace

(* What a product search decides: a refinement model, or determinism
   (a failures self-refinement that compares acceptance sets of the same
   process against itself — no reduction pass is proven
   verdict-preserving for it, so it never reduces). *)
type mode = [ `Traces | `Failures | `Fd | `Determinism ]

let pass_stat_triples =
  List.map (fun s -> s.Reduce.pass, s.Reduce.states_before, s.Reduce.states_after)

(* Cache-fronted lookups. A hit returns the finished artifact without
   opening any compile span. Only [Complete] compiles are ever stored: a
   [Partial] graph reflects the budgets of the run that produced it, not
   the content its key names. *)
let lookup key extract =
  match key with
  | Some (cache, key) -> Option.bind (Cache.find cache key) extract
  | None -> None

let store key value =
  match key with
  | Some (cache, key) -> Cache.add cache key value
  | None -> ()

(* The cache slot of a term's staged graph, when a cache is configured. *)
let impl_slot ~(config : Check_config.t) defs proc =
  Option.map
    (fun cache -> cache, Cache.impl_key ~max_states:config.max_states defs proc)
    config.cache

(* The implementation graph: materialised by the staged compiler, or the
   graph cached under [slot]. *)
let staged_graph ~(config : Check_config.t) ?stop_at ?cancel slot defs proc =
  match lookup slot (function Cache.Lts_graph g -> Some g | _ -> None) with
  | Some g -> Lts.Complete g
  | None ->
    let r =
      Reduce.compile_staged ~max_states:config.max_states ?stop_at ?cancel
        ~obs:config.obs defs proc
    in
    (match r with
     | Lts.Complete g -> store slot (Cache.Lts_graph g)
     | Lts.Partial _ -> ());
    r

(* The specification side of a check: an on-demand normal form private to
   this check (the search mutates it as it goes), plus the key the spec is
   cached under (feeding the reduced-graph key). Without a cache the normal
   form steps the term itself and no graph is compiled; its budgets trip
   inside the search. With a cache, the spec's staged graph is the cached
   artifact and every check builds a fresh normal form over it — a hit
   opens no compile or normalise span. A spec whose graph does not fit the
   budgets is not cached and falls back to the term. Either way nodes are
   numbered by the search's own queries. *)
let spec_normal_form ~(config : Check_config.t) ?stop_at defs spec =
  let obs = config.obs in
  let of_term () =
    Normalise.of_spec ~obs ~max_states:config.max_states ?stop_at
      ?cancel:config.cancel defs spec
  in
  match config.cache with
  | None -> of_term (), None
  | Some cache ->
    let key = Cache.spec_key ~max_states:config.max_states defs spec in
    let slot = Some (cache, key) in
    let norm =
      match
        lookup slot (function Cache.Norm_spec (g, _) -> Some g | _ -> None)
      with
      | Some lts -> Normalise.normalise lts
      | None ->
        (match
           Reduce.compile_staged ~max_states:config.max_states ?stop_at ~obs
             defs spec
         with
         | Lts.Complete lts ->
           store slot (Cache.Norm_spec (lts, Normalise.normalise lts));
           Normalise.normalise ~obs lts
         | Lts.Partial _ -> of_term ())
    in
    norm, Some key

(* The final [normalise.nodes] counter: nodes the check materialised. *)
let record_nodes ~obs norm result =
  Obs.add (Obs.counter obs "normalise.nodes") (Normalise.num_nodes norm);
  result

let with_reduction_stats reductions = function
  | Holds stats -> Holds { stats with reductions }
  | Inconclusive (stats, hint) -> Inconclusive ({ stats with reductions }, hint)
  | Fails _ as r -> r

(* A compile that ran out of budget before the search could start. *)
let lts_inconclusive progress =
  let exhausted =
    match progress.Lts.reason with `States -> States | `Deadline -> Deadline
  in
  Inconclusive
    ( Search.make_stats ~impl_states:progress.Lts.explored ~spec_nodes:0
        ~pairs:0 (),
      {
        frontier = progress.Lts.frontier;
        deepest = [];
        exhausted;
        checkpoint = None;
      } )

(* Every product check takes one path. The implementation is the staged
   combinator tree over [impl]:
   - unreduced, it is searched on the fly ({!Reduce.staged_source}), so an
     early counterexample never pays for the whole graph and an infinite
     implementation runs into the pair budget. FD is the exception:
     divergence needs the whole tau graph, so it searches the compiled
     graph, and a compile out of budget is [Inconclusive].
   - with passes, the graph is compiled, reduced and searched. A
     counterexample of the reduced search reflects the reduced shape, so
     it is re-derived by a fresh unreduced search — exactly what
     [--reductions none] runs; if that cannot reach a verdict within the
     budgets the reduced one is kept. A graph or dead pass out of budget
     falls back to the unreduced search. *)
let product_check ~(config : Check_config.t) ~(mode : mode) ~max_pairs
    ?stop_at ?resume_from defs ~spec ~impl =
  let obs = config.obs in
  let divergence = match mode with `Fd -> true | _ -> false in
  let norm, spec_key = spec_normal_form ~config ?stop_at defs spec in
  let search ?resume_from ?por ?pipeline source =
    Search.product
      ~refusal:
        (match mode with
         | `Traces -> `None
         | `Failures | `Fd -> `Acceptances
         | `Determinism -> `Full)
      ~max_pairs ?stop_at ~obs ?progress:config.progress
      ?cancel:config.cancel ?memory_limit_mb:config.memory_limit_mb
      ?resume_from ?resume_deadline:config.deadline ?por ?pipeline ~norm
      source
  in
  let slot = lazy (impl_slot ~config defs impl) in
  (* A resumed search rebuilds the graph deterministically, with no
     cancellation mid-compile: its checkpoint implies the compile
     completed. FD cannot fall back to an on-the-fly search, so its
     compile leaves the token to the search that follows. *)
  let graph =
    lazy
      (let cancel =
         match resume_from with
         | Some _ -> None
         | None -> if divergence then None else config.cancel
       in
       staged_graph ~config ?stop_at ?cancel (Lazy.force slot) defs impl)
  in
  let unreduced ?resume_from () =
    if divergence then
      match Lazy.force graph with
      | Lts.Partial (_, progress) -> lts_inconclusive progress
      | Lts.Complete g ->
        search ?resume_from (Search.lts_source ~check_divergence:true g)
    else search ?resume_from (Reduce.staged_source ~obs defs impl)
  in
  (* A checkpoint names the pipeline of the search that recorded it. An
     unreduced one resumes unreduced whatever [config.reductions] says;
     one recorded by a reduced search must be resumed by the same
     pipeline, and [Search.product] raises [Resume_mismatch] if not. *)
  let pipeline =
    match mode, resume_from with
    | `Determinism, _ -> []
    | _, Some cp when String.equal cp.Search.pipeline "none" -> []
    | ((`Traces | `Failures | `Fd) as model), _ ->
      Reduce.effective ~model config.reductions
  in
  record_nodes ~obs norm
  @@
  match mode, pipeline with
  | `Determinism, _ | _, [] -> unreduced ?resume_from ()
  | ((`Traces | `Failures | `Fd) as model), pipeline ->
    (* The reduced key includes the spec key: the dead pass eliminates
       events against the spec's normal-form alphabet, so the same
       implementation reduced against a different spec is a different
       artifact. *)
    let reduced_slot =
      match Lazy.force slot, spec_key with
      | Some (cache, impl_key), Some spec ->
        Some (cache, Cache.reduced_key ~model ~pipeline ~spec ~impl:impl_key)
      | _ -> None
    in
    let reduction =
      match
        lookup reduced_slot (function
          | Cache.Reduced (g, stats) -> Some (g, stats)
          | _ -> None)
      with
      | Some _ as hit -> hit
      | None ->
        (match Lazy.force graph with
         | Lts.Partial _ -> None
         | Lts.Complete g ->
           (match Reduce.apply ~obs ~model ~norm pipeline g with
            | exception Normalise.Out_of_budget _ -> None
            | reduced, pass_stats ->
              store reduced_slot (Cache.Reduced (reduced, pass_stats));
              Some (reduced, pass_stats)))
    in
    (match reduction with
     | None -> unreduced ?resume_from ()
     | Some (reduced, pass_stats) ->
       (match
          if List.memq Reduce.Por pipeline then
            Some (Reduce.por_hooks ~norm reduced)
          else None
        with
        | exception Normalise.Out_of_budget _ -> unreduced ?resume_from ()
        | por ->
          let result =
            search ?resume_from ?por ~pipeline:(Reduce.fingerprint pipeline)
              (Search.lts_source ~check_divergence:divergence reduced)
          in
          (match result with
           | Fails _ ->
             (match unreduced () with
              | Fails _ as canonical -> canonical
              | Holds _ | Inconclusive _ -> result)
           | Holds _ | Inconclusive _ ->
             with_reduction_stats (pass_stat_triples pass_stats) result)))

let mode_of = function
  | Traces -> `Traces
  | Failures -> `Failures
  | Failures_divergences -> `Fd

let stop_at_of_deadline = function
  | None -> None
  | Some seconds -> Some (Obs.now () +. seconds)

let check ?(config = Check_config.default) ?model ?max_states ?deadline defs
    ~spec ~impl =
  (* the convenience arguments override the record's fields *)
  let config =
    match max_states with
    | Some n -> Check_config.with_max_states n config
    | None -> config
  in
  let config =
    match deadline with
    | Some d -> Check_config.with_deadline d config
    | None -> config
  in
  let model = Option.value model ~default:Traces in
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  let stop_at = stop_at_of_deadline config.deadline in
  product_check ~config ~mode:(mode_of model) ~max_pairs ?stop_at defs ~spec
    ~impl

let traces_refines ?config defs ~spec ~impl =
  check ?config ~model:Traces defs ~spec ~impl

let failures_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures defs ~spec ~impl

let fd_refines ?config defs ~spec ~impl =
  check ?config ~model:Failures_divergences defs ~spec ~impl

(* Resuming rebuilds the specification's normal form (and, for FD,
   recompiles the implementation) without a deadline — both are
   deterministic, and the replay re-expands the spec exactly as the
   interrupted run did — then hands the checkpoint to the engine, which
   fast-forwards the replay and arms [config.deadline] (or the
   checkpoint's unconsumed budget) at the crossing point. *)
let resume ?(config = Check_config.default) ?model ~checkpoint defs ~spec
    ~impl =
  let model = Option.value model ~default:Traces in
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  product_check ~config ~mode:(mode_of model) ~max_pairs
    ~resume_from:checkpoint defs ~spec ~impl

let resume_deterministic ?(config = Check_config.default) ~checkpoint defs
    proc =
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  product_check ~config ~mode:`Determinism ~max_pairs
    ~resume_from:checkpoint defs ~spec:proc ~impl:proc

(* Deadlock/divergence freedom: compile the graph, find the offending
   states, and BFS a shortest path to one. The offender set is looked up
   through a bitset, not a list scan. *)
let bad_state_check ~violation ~find ~(config : Check_config.t) defs proc =
  let t0 = Obs.now () in
  match
    staged_graph ~config
      ?stop_at:(stop_at_of_deadline config.deadline)
      (impl_slot ~config defs proc) defs proc
  with
  | Lts.Partial (_, progress) -> lts_inconclusive progress
  | Lts.Complete lts ->
    (match find lts with
     | [] ->
       Holds
         (Search.make_stats
            ~wall_s:(Obs.now () -. t0)
            ~impl_states:(Lts.num_states lts) ~spec_nodes:0 ~pairs:0 ())
     | bad ->
       let bits = Array.make (max 1 (Lts.num_states lts)) false in
       List.iter (fun i -> bits.(i) <- true) bad;
       (match Lts.path_to lts (fun i -> bits.(i)) with
        | None -> invalid_arg "Refine.check: flagged state has no path"
        | Some (labels, i) ->
          Fails
            {
              trace = visible_trace labels;
              violation;
              impl_state = Lts.state_term lts i;
            }))

let deadlock_free ?(config = Check_config.default) defs proc =
  bad_state_check ~violation:Deadlock ~find:Lts.deadlocks ~config defs proc

let divergence_free ?(config = Check_config.default) defs proc =
  bad_state_check ~violation:Divergence ~find:Lts.divergences ~config defs
    proc

let deterministic ?(config = Check_config.default) defs proc =
  let max_pairs = Option.value config.max_pairs ~default:config.max_states in
  product_check ~config ~mode:`Determinism ~max_pairs
    ?stop_at:(stop_at_of_deadline config.deadline) defs ~spec:proc ~impl:proc

let holds = function
  | Holds _ -> true
  | Fails _ | Inconclusive _ -> false

let inconclusive = function
  | Inconclusive _ -> true
  | Holds _ | Fails _ -> false

let pp_labels ppf labels =
  match labels with
  | [] -> Format.pp_print_string ppf "<>"
  | _ ->
    Format.fprintf ppf "<%a>"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Event.pp_label)
      labels

let pp_violation ppf = function
  | Trace_violation l ->
    Format.fprintf ppf "trace violation: implementation performs %a"
      Event.pp_label l
  | Refusal_violation { offered; acceptances } ->
    Format.fprintf ppf
      "refusal violation: stable state offers %a but the specification \
       requires one of %a"
      pp_labels offered
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " / ")
         pp_labels)
      acceptances
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Divergence -> Format.pp_print_string ppf "divergence (tau cycle)"

let pp_counterexample ppf cex =
  Format.fprintf ppf "@[<v 2>counterexample:@ trace = %a@ %a@ state = %a@]"
    pp_labels cex.trace pp_violation cex.violation Proc.pp cex.impl_state

let pp_budget_kind ppf = function
  | Deadline -> Format.pp_print_string ppf "deadline"
  | States -> Format.pp_print_string ppf "state budget"
  | Pairs -> Format.pp_print_string ppf "pair budget"
  | Interrupt -> Format.pp_print_string ppf "interrupted"
  | Memory -> Format.pp_print_string ppf "memory watermark"

let pp_resume_hint ppf hint =
  (* the deepest trace can be thousands of events long on a budget-limited
     run — show its depth and only the last few steps *)
  let depth = List.length hint.deepest in
  let max_shown = 12 in
  if depth <= max_shown then
    Format.fprintf ppf "%a exhausted; frontier = %d, deepest trace = %a"
      pp_budget_kind hint.exhausted hint.frontier pp_labels hint.deepest
  else
    let tail =
      List.filteri (fun i _ -> i >= depth - max_shown) hint.deepest
    in
    Format.fprintf ppf
      "%a exhausted; frontier = %d, deepest trace (depth %d) ends <..., %a"
      pp_budget_kind hint.exhausted hint.frontier depth
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Event.pp_label)
      tail;
    Format.pp_print_string ppf ">"

let pp_stats ppf stats =
  Format.fprintf ppf "%d impl states, %d spec nodes, %d pairs" stats.impl_states
    stats.spec_nodes stats.pairs;
  if stats.wall_s > 0. then
    Format.fprintf ppf "; %.3fs, %.0f states/s, peak frontier %d" stats.wall_s
      stats.states_per_sec stats.peak_frontier

let pp_result ppf = function
  | Holds stats -> Format.fprintf ppf "holds (%a)" pp_stats stats
  | Fails cex -> Format.fprintf ppf "FAILS@ %a" pp_counterexample cex
  | Inconclusive (stats, hint) ->
    Format.fprintf ppf "INCONCLUSIVE (%a)@ %a" pp_stats stats pp_resume_hint
      hint
