(* Hash-consing invariants, and the structural-equality oracle: the
   id-based interner must be observationally identical to a deep
   structural-equality build of the seed engine ([Helpers.raw_check]),
   which steps and interns process terms on the fly. *)

open Csp
module AT = Security.Attack_tree

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* qcheck: equal/hash agree with structural equality                   *)
(* ------------------------------------------------------------------ *)

(* A deep copy through the smart constructors: by the hash-consing
   invariant the copy must come back physically equal. *)
let rec rebuild p =
  match Proc.view p with
  | Proc.Stop -> Proc.stop
  | Proc.Skip -> Proc.skip
  | Proc.Omega -> Proc.omega
  | Proc.Prefix (c, items, k) -> Proc.prefix_items (c, items, rebuild k)
  | Proc.Ext (a, b) -> Proc.ext (rebuild a, rebuild b)
  | Proc.Int (a, b) -> Proc.intc (rebuild a, rebuild b)
  | Proc.Seq (a, b) -> Proc.seq (rebuild a, rebuild b)
  | Proc.Par (a, s, b) -> Proc.par (rebuild a, s, rebuild b)
  | Proc.APar (a, sa, sb, b) -> Proc.apar (rebuild a, sa, sb, rebuild b)
  | Proc.Inter (a, b) -> Proc.inter (rebuild a, rebuild b)
  | Proc.Interrupt (a, b) -> Proc.interrupt (rebuild a, rebuild b)
  | Proc.Timeout (a, b) -> Proc.timeout (rebuild a, rebuild b)
  | Proc.Hide (a, s) -> Proc.hide (rebuild a, s)
  | Proc.Rename (a, m) -> Proc.rename (rebuild a, m)
  | Proc.If (c, a, b) -> Proc.ite (c, rebuild a, rebuild b)
  | Proc.Guard (c, a) -> Proc.guard (c, rebuild a)
  | Proc.Call (n, args) -> Proc.call (n, args)
  | Proc.Ext_over (x, s, a) -> Proc.ext_over (x, s, rebuild a)
  | Proc.Int_over (x, s, a) -> Proc.int_over (x, s, rebuild a)
  | Proc.Inter_over (x, s, a) -> Proc.inter_over (x, s, rebuild a)
  | Proc.Run s -> Proc.run s
  | Proc.Chaos s -> Proc.chaos s

let equal_is_structural =
  QCheck.Test.make ~count:500
    ~name:"Proc.equal and Proc.compare agree with structural equality"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (p, q) ->
      Proc.equal p q = Proc.structural_equal p q
      && Proc.compare p q = 0 = Proc.equal p q)

let rebuild_interns_to_same_node =
  QCheck.Test.make ~count:500
    ~name:"a deep rebuild is physically the same term, with the same hash"
    Helpers.arb_proc (fun p ->
      let q = rebuild p in
      p == q && Proc.hash p = Proc.hash q && Proc.id p = Proc.id q
      && Proc.structural_hash p = Proc.structural_hash q)

let noop_subst_is_identity =
  QCheck.Test.make ~count:500
    ~name:"a substitution that binds nothing preserves identity"
    Helpers.arb_proc (fun p -> Proc.subst (fun _ -> None) p == p)

(* ------------------------------------------------------------------ *)
(* Oracle: `Id vs `Structural interning, byte-identical verdicts       *)
(* ------------------------------------------------------------------ *)

(* Canonical rendering of a result, excluding the timing fields (wall_s,
   states_per_sec) that legitimately vary between runs. Everything else —
   verdict, counterexample trace, violating state, structural stats,
   resume hints — must match byte for byte. *)
let render result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  (match result with
   | Refine.Holds s ->
     Format.fprintf ppf "Holds impl=%d spec=%d pairs=%d" s.Refine.impl_states
       s.Refine.spec_nodes s.Refine.pairs
   | Refine.Fails cex -> Format.fprintf ppf "Fails %a" Refine.pp_counterexample cex
   | Refine.Inconclusive (s, hint) ->
     Format.fprintf ppf "Inconclusive impl=%d spec=%d pairs=%d %a"
       s.Refine.impl_states s.Refine.spec_nodes s.Refine.pairs
       Refine.pp_resume_hint hint);
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let agree name runs =
  List.iter
    (fun (label, run) ->
      check_string
        (Printf.sprintf "%s/%s: id and structural verdicts identical" name label)
        (render (run `Structural))
        (render (run `Id)))
    runs

(* The requirement checks keep their specifications private, so the
   scenario legs check the systems they are run on: trace self-refinement
   and the determinism self-check, which interns the system's states on
   both sides of the product. *)
let scenario_legs (s : Ota.Scenario.t) =
  let check model interner =
    Helpers.raw_check ~interner s.Ota.Scenario.defs ~model
      ~spec:s.Ota.Scenario.system ~impl:s.Ota.Scenario.system
  in
  [ "traces", check `Traces; "deterministic", check `Determinism ]

let test_requirements_oracle () =
  agree "secure-update" (scenario_legs (Ota.Scenario.make ()))

let test_requirements_oracle_intruder () =
  agree "intruder"
    (scenario_legs
       (Ota.Scenario.make ~check_macs:false ~medium:Ota.Scenario.Intruder ()))

let test_ns_oracle () =
  let traces ~max_pairs ~fixed interner =
    let defs, system = Security.Ns_protocol.build ~fixed in
    let spec = Security.Ns_protocol.authentication_spec defs in
    Helpers.raw_check ~interner ~max_states:2_000_000 ?max_pairs defs
      ~model:`Traces ~spec ~impl:system
  in
  agree "needham-schroeder"
    [
      (* the broken protocol fails quickly with Lowe's attack trace *)
      "broken", traces ~max_pairs:None ~fixed:false;
      (* a pair-budgeted run of the fixed protocol: Inconclusive, but the
         explored prefix and resume hint must still be identical *)
      "fixed-budgeted", traces ~max_pairs:(Some 500) ~fixed:true;
    ]

let test_attack_tree_oracle () =
  let tree =
    AT.or_node
      [
        AT.ordered_and [ AT.action "capture" []; AT.action "inject" [] ];
        AT.ordered_and [ AT.action "steal_key" []; AT.action "forge" [] ];
      ]
  in
  let make_defs () =
    let defs = Defs.create () in
    List.iter (fun c -> Defs.declare_channel defs c []) (AT.channels tree);
    defs
  in
  let proc = AT.to_proc tree in
  (* the replay branch alone is a trace refinement of the full tree; the
     full tree is not a refinement of the replay branch *)
  let replay_only =
    AT.to_proc (AT.ordered_and [ AT.action "capture" []; AT.action "inject" [] ])
  in
  let check model ~spec ~impl interner =
    Helpers.raw_check ~interner (make_defs ()) ~model ~spec ~impl
  in
  agree "attack-tree"
    [
      "replay-refines-tree", check `Traces ~spec:proc ~impl:replay_only;
      "tree-exceeds-replay", check `Traces ~spec:replay_only ~impl:proc;
      "self-failures", check `Failures ~spec:proc ~impl:proc;
    ]

(* Random pairs in every model the on-the-fly engine serves. *)
let interners_agree =
  QCheck.Test.make ~count:100
    ~name:"id and structural interning render identically on random checks"
    (QCheck.pair Helpers.arb_proc Helpers.arb_proc)
    (fun (spec, impl) ->
      let defs = Helpers.make_defs () in
      List.for_all
        (fun model ->
          let run interner =
            render
              (Helpers.raw_check ~interner ~max_states:50_000 defs ~model
                 ~spec ~impl)
          in
          let id = run `Id and structural = run `Structural in
          String.equal id structural
          || QCheck.Test.fail_reportf "id: %s@.structural: %s@.spec=%s@.impl=%s"
               id structural (Proc.to_string spec) (Proc.to_string impl))
        [ `Traces; `Failures; `Determinism ])

let suite =
  ( "hashcons",
    [
      QCheck_alcotest.to_alcotest equal_is_structural;
      QCheck_alcotest.to_alcotest rebuild_interns_to_same_node;
      QCheck_alcotest.to_alcotest noop_subst_is_identity;
      Alcotest.test_case "oracle: secure-update requirements" `Quick
        test_requirements_oracle;
      Alcotest.test_case "oracle: intruder scenario" `Quick
        test_requirements_oracle_intruder;
      Alcotest.test_case "oracle: Needham-Schroeder" `Quick test_ns_oracle;
      Alcotest.test_case "oracle: attack trees" `Quick test_attack_tree_oracle;
      QCheck_alcotest.to_alcotest interners_agree;
    ] )
