(** Running the [assert] declarations of a loaded script — the
    FDR-equivalent step of the paper's workflow (Fig. 1, "Refinement
    checking"). *)

type outcome = {
  assertion : Ast.assertion;
  pos : Ast.pos option;
  result : Csp.Refine.result;
}

val run_assertion :
  ?config:Csp.Check_config.t ->
  Elaborate.t ->
  Ast.assertion ->
  Csp.Refine.result
(** Elaborate the assertion's terms against the loaded script and run the
    corresponding check ([T=] trace refinement, [F=] stable-failures
    refinement, deadlock or divergence freedom) on the calling domain.
    Budgets and observability come from [config] (default
    {!Csp.Check_config.default}); on a budget expiry the result is
    {!Csp.Refine.Inconclusive} rather than an exception. *)

val slice : remaining_wall:float -> remaining:int -> float
(** The wall-clock share the next assertion receives when
    [remaining_wall] seconds are left for [remaining] assertions:
    [remaining_wall / remaining], clamped to be non-negative. Exposed so
    the rolling-budget arithmetic is testable on its own. *)

type stop = {
  next_index : int;  (** the assertion that was interrupted *)
  search : Csp.Search.checkpoint option;
      (** the engine checkpoint of the interrupted product search; [None]
          when the interrupt landed outside a checkpointable search *)
}

val run_seq :
  ?start:int ->
  ?resume_first:Csp.Search.checkpoint ->
  config:Csp.Check_config.t ->
  Elaborate.t ->
  outcome list * stop option
(** The interruptible sequential runner behind [cspm_check
    --checkpoint-out]/[--resume]. Runs assertions [start..] in script
    order (default [start = 0]), resuming the first one from
    [resume_first] when given. Stops early when an assertion comes back
    {!Csp.Refine.Inconclusive} with [exhausted = Interrupt] (the
    cancellation token tripped): the interrupted outcome is still the
    last element of the returned list — so a valid partial report can be
    written — but the {!stop} record points at it as the assertion to
    re-run. [stop = None] means the sequence ran to the end.

    A [config.deadline] is a rolling budget over the assertions actually
    run, recomputed per assertion exactly like {!run}'s sequential
    deadline path. *)

val run : ?config:Csp.Check_config.t -> Elaborate.t -> outcome list
(** Run every [assert], reporting outcomes in script order. A
    [config.deadline] covers the whole run; each assertion's slice is
    recomputed as remaining-wall / remaining-assertions, so budget left
    unused by fast assertions rolls forward to later (possibly hard) ones
    instead of being discarded.

    [config.workers] is how many assertions run at once: without a
    deadline, up to that many independent assertions are checked
    concurrently, each on its own domain. A single assertion always runs
    on one domain, and under a deadline (whose accounting is inherently
    sequential) the assertions run one after another. Verdicts and
    counterexamples are identical to a sequential run either way.

    [config.obs] records a [check.assertion] span per assertion (on the
    sequential paths) on top of the engine's own spans and metrics. *)

val all_pass : outcome list -> bool
(** Every outcome is {!Csp.Refine.Holds} — inconclusive is not a pass. *)

val any_fails : outcome list -> bool
(** At least one outcome is a definite {!Csp.Refine.Fails}. *)

val any_inconclusive : outcome list -> bool

val json_of_outcomes : ?cache:Csp.Cache.stats -> outcome list -> Obs.Json.t
(** The machine-readable outcome report behind [cspm_check --format
    json]. Stable schema ["cspm-check/1"]:

    {v
    { "schema": "cspm-check/1",
      "assertions": [
        { "index": 0, "assertion": "<pretty CSPm>",
          "line": 3, "col": 1,            // present when the source
                                          // position is known
          "verdict": "pass" | "fail" | "inconclusive",
          "stats": { "impl_states", "spec_nodes", "pairs", "wall_s",
                     "states_per_sec", "peak_frontier", "workers",
                     "par_speedup",
                     "reductions": [      // one entry per reduction pass
                       { "pass", "states_before", "states_after" }, ... ]
                   },                     // pass and inconclusive
          "counterexample": { "trace": ["ev.1", ...],
                              "violation": "<description>" },  // fail
          "resume_hint": { "frontier", "exhausted": "deadline" |
                           "states" | "pairs",
                           "deepest": [...] } },  // inconclusive
        ... ],
      "summary": { "total", "passed", "failed", "inconclusive" } }
    v}

    New fields may be added over time; existing fields keep their names
    and meanings (earlier revisions added ["resume_hint"]["checkpoint"] —
    the engine checkpoint, when one exists — and widened ["exhausted"] to
    the full {!Csp.Search.budget_kind_to_string} vocabulary; this one
    adds ["stats"]["reductions"], the per-pass state counts of the staged
    reduction pipeline, [[]] when the search ran unreduced, and this one
    adds the optional top-level ["cache"] object — [{"hits", "misses",
    "evictions", "resident_states", "resident_entries"}], present when
    the run used an LTS cache). ["workers"] and ["par_speedup"] are the
    constants [1] and [1.0]: the product search is sequential, and the
    keys stay so existing consumers keep parsing. ["spec_nodes"] counts
    the normal-form nodes the check materialised: the specification is
    normalised on demand, so it is the part of the normal form the search
    reached, not its full size. Timing fields
    ([wall_s], [states_per_sec]) vary run to run; everything else is
    deterministic. *)

val json_of_outcome : int -> outcome -> Obs.Json.t
(** One entry of the report's ["assertions"] array, at index [i]. *)

val report_of_json_outcomes :
  ?cache:Csp.Cache.stats -> Obs.Json.t list -> Obs.Json.t
(** Wrap already-rendered outcome objects into a full ["cspm-check/1"]
    report, recounting the summary from their ["verdict"] fields; [cache]
    adds the top-level ["cache"] stats object.
    [json_of_outcomes os = report_of_json_outcomes (List.mapi
    json_of_outcome os)]; a resumed run splices the outcome objects
    stored in its checkpoint in front of the ones it computed itself. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_outcomes : Format.formatter -> outcome list -> unit

(** {2 The ["cspm-checkpoint/1"] document}

    What [cspm_check --checkpoint-out] writes and [--resume] reads: the
    script digest (resuming against a different script is refused
    up-front), the rendered outcomes of the assertions that completed,
    the index of the assertion to re-run, and — when the interrupt landed
    inside a product search — the engine checkpoint to fast-forward it
    from. *)

type resume_state = {
  script_digest : string;
      (** hex digest of the script source the checkpoint belongs to *)
  completed : Obs.Json.t list;
      (** rendered {!json_of_outcome} objects for assertions
          [0 .. next_index - 1] *)
  next_index : int;  (** the assertion to re-run *)
  search : Csp.Search.checkpoint option;
}

val checkpoint_schema : string
(** ["cspm-checkpoint/1"]. *)

val json_of_resume_state : resume_state -> Obs.Json.t

val resume_state_of_json : Obs.Json.t -> (resume_state, string) result
(** Validates the schema tag, that [completed] has exactly [next_index]
    entries, and the embedded engine checkpoint (when non-null). *)
