(* Aggregated test runner: one Alcotest suite per module. *)

let () =
  Alcotest.run "ecu_csp"
    [
      Test_value.suite;
      Test_ty.suite;
      Test_expr.suite;
      Test_eventset.suite;
      Test_defs.suite;
      Test_proc.suite;
      Test_semantics.suite;
      Test_lts.suite;
      Test_traces.suite;
      Test_normalise.suite;
      Test_refine.suite;
      Test_cspm.suite;
      Test_capl.suite;
      Test_interp.suite;
      Test_msgdb.suite;
      Test_canbus.suite;
      Test_fault.suite;
      Test_candb.suite;
      Test_template.suite;
      Test_extract.suite;
      Test_pipeline.suite;
      Test_security.suite;
      Test_ota.suite;
      Test_laws.suite;
      Test_conformance_prop.suite;
      Test_extended_ops.suite;
      Test_timed.suite;
      Test_fd.suite;
      Test_productions.suite;
      Test_misc.suite;
      Test_hashcons.suite;
      Test_obs.suite;
      Test_analysis.suite;
      Test_checkpoint.suite;
      Test_serve.suite;
      Test_reduce.suite;
      Test_cache.suite;
      Test_tracecheck.suite;
      Test_decoders.suite;
    ]
