(* The translation-soundness property, tested on randomly generated CAPL
   programs: whatever frame trace the executing network produces, the
   extracted CSP model must accept. This exercises the extractor, the
   interpreter, the bus, the DBC adapters and the conformance replayer in
   one loop — an end-to-end differential test of the paper's core claim. *)

let dbc =
  "BU_: A B\n\
   BO_ 1 ping: 1 A\n\
   \ SG_ v : 0|3@1+ (1,0) [0|7] \"\" B\n\
   BO_ 2 pong: 1 B\n\
   \ SG_ v : 0|3@1+ (1,0) [0|7] \"\" A\n\
   BO_ 3 beat: 1 A\n\
   \ SG_ v : 0|3@1+ (1,0) [0|7] \"\" B\n"

(* A random "responder" body for [on message ping] in node B: code over
   this.v, a tracked global and outputs, with static loops over a local
   counter, data-dependent break/continue, switch fall-through and calls
   to a void helper. *)
type loop_kind =
  | For
  | While
  | Do_while

type stmt_tpl =
  | Out_const of int
  | Out_this_plus of int
  | Out_global
  | Global_incr
  | Global_set_this
  | Call_helper of int option  (** [helper(n)], or [helper(this.v)] *)
  | If_this_lt of int * stmt_tpl list * stmt_tpl list
  | Loop of loop_kind * int * stmt_tpl list
      (** counts a local from 0 to the static bound *)
  | Break_if_this_lt of int  (** only inside a loop or a switch *)
  | Continue_if_this_lt of int  (** only inside a loop *)
  | Switch of (int option * stmt_tpl list * bool) list
      (** label ([None] is the default), body, whether it ends in break *)

(* Loops nest at most twice, so two counters cover every depth. *)
let counters = [ "i0"; "i1" ]

let rec render_stmt ~loops buf stmt =
  let add = Buffer.add_string buf in
  let body ss = List.iter (render_stmt ~loops buf) ss in
  match stmt with
  | Out_const n -> add (Printf.sprintf "  m.v = %d; output(m);\n" n)
  | Out_this_plus n ->
    add (Printf.sprintf "  m.v = this.v + %d; output(m);\n" n)
  | Out_global -> add "  m.v = g; output(m);\n"
  | Global_incr -> add "  g = g + 1;\n"
  | Global_set_this -> add "  g = this.v;\n"
  | Call_helper None -> add "  helper(this.v);\n"
  | Call_helper (Some n) -> add (Printf.sprintf "  helper(%d);\n" n)
  | If_this_lt (n, a, b) ->
    add (Printf.sprintf "  if (this.v < %d) {\n" n);
    body a;
    add "  } else {\n";
    body b;
    add "  }\n"
  | Loop (kind, bound, ss) ->
    let i = List.nth counters loops in
    let header, footer =
      match kind with
      | For -> Printf.sprintf "for (%s = 0; %s < %d; %s++) {" i i bound i, "}"
      | While ->
        Printf.sprintf "%s = 0; while (%s < %d) { %s++;" i i bound i, "}"
      | Do_while ->
        ( Printf.sprintf "%s = 0; do { %s++;" i i,
          Printf.sprintf "} while (%s < %d);" i bound )
    in
    add ("  " ^ header ^ "\n");
    List.iter (render_stmt ~loops:(loops + 1) buf) ss;
    add ("  " ^ footer ^ "\n")
  | Break_if_this_lt n -> add (Printf.sprintf "  if (this.v < %d) break;\n" n)
  | Continue_if_this_lt n ->
    add (Printf.sprintf "  if (this.v < %d) continue;\n" n)
  | Switch cases ->
    add "  switch (this.v) {\n";
    List.iter
      (fun (label, ss, brk) ->
        (match label with
         | Some n -> add (Printf.sprintf "  case %d:\n" n)
         | None -> add "  default:\n");
        body ss;
        if brk then add "  break;\n")
      cases;
    add "  }\n"

let render_responder stmts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "variables { message pong m; int g = 0; }\n";
  Buffer.add_string buf
    "void helper(int x) { m.v = x; output(m); g = g + 1; }\n";
  Buffer.add_string buf "on message ping {\n  int i0 = 0;\n  int i1 = 0;\n";
  List.iter (render_stmt ~loops:0 buf) stmts;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The driver node sends a few pings with random payloads. *)
let render_driver payloads =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "variables { message ping p; msTimer t; int step = 0; }\n";
  Buffer.add_string buf "on start { setTimer(t, 10); }\n";
  Buffer.add_string buf "on timer t {\n";
  List.iteri
    (fun i v ->
      Buffer.add_string buf
        (Printf.sprintf "  if (step == %d) { p.v = %d; output(p); }\n" i v))
    payloads;
  Buffer.add_string buf
    (Printf.sprintf "  step = step + 1;\n  if (step < %d) setTimer(t, 10);\n"
       (List.length payloads));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let gen_stmts : stmt_tpl list QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf_at ~in_loop ~in_switch =
    oneof
      ([
         map (fun n -> Out_const n) (int_range 0 7);
         map (fun n -> Out_this_plus n) (int_range 0 7);
         return Out_global;
         return Global_incr;
         return Global_set_this;
         map (fun n -> Call_helper n) (option (int_range 0 7));
       ]
      @ (if in_loop || in_switch then
           [ map (fun n -> Break_if_this_lt n) (int_range 1 7) ]
         else [])
      @
      if in_loop then [ map (fun n -> Continue_if_this_lt n) (int_range 1 7) ]
      else [])
  in
  let stmt =
    fix
      (fun self (depth, loops, in_switch) ->
        let leaf = leaf_at ~in_loop:(loops > 0) ~in_switch in
        let block ?(loops = loops) ?(in_switch = in_switch) () =
          list_size (int_range 1 2) (self (depth - 1, loops, in_switch))
        in
        (* one compound statement per iteration keeps the unrolled model
           small: every branch copies the rest of the loop *)
        let loop_body first =
          map2 (fun s rest -> s :: rest) first
            (list_size (int_range 0 1) (leaf_at ~in_loop:true ~in_switch:false))
        in
        let switch =
          (* at most one default, anywhere among the cases *)
          let case = triple (int_range 0 7) (block ~in_switch:true ()) bool in
          map3
            (fun cases default at ->
              let cases = List.map (fun (n, b, brk) -> Some n, b, brk) cases in
              match default with
              | None -> Switch cases
              | Some (b, brk) ->
                let at = at mod (List.length cases + 1) in
                Switch
                  (List.filteri (fun i _ -> i < at) cases
                  @ ((None, b, brk) :: List.filteri (fun i _ -> i >= at) cases)
                  ))
            (list_size (int_range 1 2) case)
            (option (pair (block ~in_switch:true ()) bool))
            nat
        in
        if depth <= 0 then leaf
        else
          frequency
            ([
               4, leaf;
               1,
               map3
                 (fun n a b -> If_this_lt (n, a, b))
                 (int_range 1 7) (block ()) (block ());
               1, switch;
             ]
            @
            if loops < List.length counters then
              [
                ( 2,
                  map3
                    (fun kind bound body -> Loop (kind, bound, body))
                    (oneofl [ For; While; Do_while ])
                    (int_range 0 3)
                    (loop_body (self (depth - 1, loops + 1, false))) );
              ]
            else []))
      (2, 0, false)
  in
  list_size (int_range 1 3) stmt

let arb =
  QCheck.make
    ~print:(fun (stmts, payloads) ->
      render_responder stmts ^ "\n-- payloads: "
      ^ String.concat "," (List.map string_of_int payloads))
    QCheck.Gen.(pair gen_stmts (list_size (int_range 1 3) (int_range 0 7)))

let conformance_prop =
  QCheck.Test.make ~count:500
    ~name:"random CAPL responders: execution conforms to the extracted model"
    arb
    (fun (stmts, payloads) ->
      let sources =
        [ "A", render_driver payloads; "B", render_responder stmts ]
      in
      match
        Extractor.Pipeline.build_from_sources ~dbc sources
      with
      | exception _ -> QCheck.assume_fail ()
      | system ->
        let db = Candb.To_capl.msgdb (Candb.Dbc_parser.parse dbc) in
        let sim = Capl.Simulation.of_sources ~db sources in
        let report = Extractor.Conformance.run_and_check system sim in
        if report.Extractor.Conformance.accepted then true
        else
          QCheck.Test.fail_reportf "trace rejected: %a"
            Extractor.Conformance.pp_report report)

(* A deliberately broken variant: if the interpreter and extractor were
   fed different programs, conformance must notice. *)
let detects_mismatch () =
  let honest = [ Out_this_plus 0 ] in
  let twisted = [ Out_this_plus 1 ] in
  let sources_model = [ "A", render_driver [ 3 ]; "B", render_responder honest ] in
  let sources_run = [ "A", render_driver [ 3 ]; "B", render_responder twisted ] in
  let system = Extractor.Pipeline.build_from_sources ~dbc sources_model in
  let db = Candb.To_capl.msgdb (Candb.Dbc_parser.parse dbc) in
  let sim = Capl.Simulation.of_sources ~db sources_run in
  let report = Extractor.Conformance.run_and_check system sim in
  Alcotest.(check bool) "mismatch detected" false
    report.Extractor.Conformance.accepted

let suite =
  ( "conformance-prop",
    [
      QCheck_alcotest.to_alcotest conformance_prop;
      Alcotest.test_case "detects model/implementation mismatch" `Quick
        detects_mismatch;
    ] )
