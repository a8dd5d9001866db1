(* cspm_checkd — a supervised CSPm checking service over stdio NDJSON.

   One request object per stdin line (schema cspm-checkd/1: submit /
   health / drain), one event object per stdout line. Job results embed
   the same cspm-check/1 report cspm_check --format json prints, so
   clients parse one vocabulary. Jobs queue up to a bound (beyond it
   submissions are rejected — that is the backpressure), run one at a
   time, and a job whose attempt exhausts its wall budget is retried
   with exponential backoff and jitter, resuming from the interrupted
   attempt's engine checkpoint rather than restarting. SIGINT/SIGTERM
   drain gracefully: the running search stops at its next poll, reports
   a valid partial result, and the daemon emits its final drained event
   before exiting. *)

let ensure_dir dir =
  try if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  with Unix.Unix_error _ -> ()

let run queue_limit retries backoff_s backoff_max_s deadline_cap seed
    trace_out use_cache cache_dir state_dir =
  let token = Serve.Signals.create () in
  Serve.Signals.install_termination token;
  let trace_oc = Option.map open_out trace_out in
  let obs =
    match trace_oc with
    | Some oc -> Obs.create (Obs.Jsonl oc)
    | None -> Obs.silent
  in
  let emit json =
    print_string (Obs.Json.to_string json);
    print_newline ();
    flush stdout
  in
  (* One cache for the daemon's lifetime, shared by every job: a stream
     of near-duplicate models (the edit–re-check loop) only recompiles
     the components each edit actually changed. *)
  let cache =
    if use_cache || Option.is_some cache_dir then
      let persist =
        Option.map
          (fun dir ->
            ensure_dir dir;
            {
              Csp.Cache.dir;
              write = (fun ~path text -> Serve.Fsio.atomic_write ~path text);
            })
          cache_dir
      in
      Some (Csp.Cache.create ~obs ?persist ())
    else None
  in
  Option.iter ensure_dir state_dir;
  let cfg =
    {
      (Serve.Runner.default_config ~emit) with
      Serve.Runner.queue_limit;
      default_retries = retries;
      backoff_base_s = backoff_s;
      backoff_max_s;
      max_deadline_factor = deadline_cap;
      seed;
      obs;
      cancel = token;
      cache;
      state_dir;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.flush obs;
      Option.iter close_out_noerr trace_oc)
    (fun () ->
      match Serve.Runner.serve cfg stdin with
      | () -> 0
      | exception Stack_overflow ->
        prerr_endline "cspm_checkd: stack overflow";
        2
      | exception Out_of_memory ->
        prerr_endline "cspm_checkd: out of memory";
        2)

open Cmdliner

let queue_limit_arg =
  Arg.(
    value & opt int 16
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Bounded job queue: submissions arriving while $(docv) jobs \
           are already waiting are rejected (event $(b,rejected), reason \
           \"queue full\") — the client's backpressure signal.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Default retry budget for jobs that do not set max_retries: a \
           job attempt that exhausts its wall budget is retried up to \
           $(docv) times, each attempt resuming from the previous one's \
           checkpoint with a doubled deadline.")

let backoff_arg =
  Arg.(
    value & opt float 0.05
    & info [ "backoff" ] ~docv:"SECS"
        ~doc:
          "Base backoff before the first retry; doubles each retry and \
           is jittered by a uniform factor in [0.5, 1.5).")

let backoff_max_arg =
  Arg.(
    value & opt float 2.0
    & info [ "backoff-max" ] ~docv:"SECS"
        ~doc:"Ceiling on the (pre-jitter) backoff.")

let seed_arg =
  Arg.(
    value & opt int 0x5eed
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed for the jitter PRNG — fix it to make retry schedules \
           reproducible.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the observability stream (per-job spans plus the \
           serve.* queue/health gauges and retry counters) to $(docv) \
           as JSON Lines.")

let deadline_cap_arg =
  Arg.(
    value & opt float 8.0
    & info [ "deadline-cap" ] ~docv:"FACTOR"
        ~doc:
          "Ceiling on the per-attempt wall budget: retries double a \
           job's deadline_s but never past deadline_s × $(docv), so a \
           pathological model cannot hold the runner for exponentially \
           longer than the client asked.")

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Share one content-addressed LTS cache across all jobs: \
           compiled, normalised, and reduced graphs are keyed by digests \
           of each assertion's elaborated terms (plus budgets, model, \
           and reduction pipeline), so a job stream of near-duplicate \
           models — the edit-one-handler re-check loop — only \
           recompiles what changed. Bounded by resident states with LRU \
           eviction; hit/miss/eviction counts appear in $(b,health) \
           events and in every result's embedded report as a \
           $(b,cache) object. Verdicts are byte-identical either way.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Implies $(b,--cache); persist cache entries to $(docv) \
           (created if missing) so a restarted daemon starts warm. \
           Entries are written atomically and durably, and validated on \
           load.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Spill each job's retry checkpoint to $(docv) (created if \
           missing) as a cspm-checkpoint/1 document before every \
           backoff, refreshed if shutdown interrupts the job, and \
           removed when the job reaches a terminal verdict — a daemon \
           crash mid-retry leaves a resume handle usable with \
           $(b,cspm_check --resume).")

let cmd =
  let doc = "supervised CSPm checking jobs over stdio NDJSON" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Requests (one JSON object per stdin line, schema \
         cspm-checkd/1): $(b,submit) with an id and an inline \
         $(b,script) or a $(b,path), plus optional $(b,deadline_s), \
         $(b,workers), $(b,max_states), $(b,max_retries); $(b,health); \
         $(b,drain). $(b,workers) sizes a trace-check job's stream \
         fan-out; a check job runs its assertions one after another on \
         one domain and ignores it.";
      `P
        "Events (one JSON object per stdout line): $(b,accepted), \
         $(b,rejected), $(b,started), $(b,retrying), $(b,result) with \
         the embedded cspm-check/1 report, $(b,failed), $(b,health), \
         and a final $(b,drained). End of input is an implicit drain; \
         SIGINT/SIGTERM interrupt the running job at its next poll and \
         drain.";
      `S Manpage.s_exit_status;
      `P "0 — drained cleanly (even if individual jobs failed).";
      `P "2 — the daemon itself ran out of stack or memory.";
    ]
  in
  Cmd.v
    (Cmd.info "cspm_checkd" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ queue_limit_arg $ retries_arg $ backoff_arg
      $ backoff_max_arg $ deadline_cap_arg $ seed_arg $ trace_out_arg
      $ cache_arg $ cache_dir_arg $ state_dir_arg)

let () = exit (Cmd.eval' cmd)
