(* Tests for the CAPL interpreter: expression semantics, control flow,
   functions, message objects, timers, and the write() formatter. *)

open Capl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let db =
  Msgdb.of_messages
    [
      { Msgdb.msg_name = "Cmd"; msg_id = 0x10; msg_dlc = 2;
        signals =
          [ { Msgdb.sig_name = "op"; start_bit = 0; length = 4;
              byte_order = Msgdb.Little_endian; signed = false;
              minimum = 0; maximum = 15 };
            { Msgdb.sig_name = "arg"; start_bit = 4; length = 8;
              byte_order = Msgdb.Little_endian; signed = false;
              minimum = 0; maximum = 255 } ] };
    ]

let make ?runtime src = Interp.create ?runtime ~db (Parser.program src)

let get_int t name =
  match Interp.global t name with
  | Interp.V_int n -> n
  | v -> Alcotest.failf "expected int, got %a" Interp.pp_value v

let test_global_init_and_masking () =
  let t = make "variables { int a = 70000; byte b = 260; word w = 70000; long l = 70000; }" in
  (* CAPL int is 16-bit signed *)
  check_int "int wraps" 4464 (get_int t "a");
  check_int "byte masks" 4 (get_int t "b");
  check_int "word masks" 4464 (get_int t "w");
  check_int "long keeps" 70000 (get_int t "l")

let test_handlers_and_functions () =
  let t =
    make
      {|
variables { int n = 0; }
int sq(int x) { return x * x; }
on start { n = sq(4); }
|}
  in
  Interp.fire_start t;
  check_int "function result" 16 (get_int t "n");
  (match Interp.call_function t "sq" [ Interp.V_int 7 ] with
   | Interp.V_int 49 -> ()
   | _ -> Alcotest.fail "direct call");
  try
    ignore (Interp.call_function t "nope" []);
    Alcotest.fail "expected Runtime_error"
  with Interp.Runtime_error _ -> ()

let test_control_flow () =
  let t =
    make
      {|
variables { int total = 0; int evens = 0; }
on start {
  int i;
  for (i = 0; i < 10; i++) {
    if (i % 2 == 0) evens++;
    if (i == 7) break;
    total += i;
  }
  while (total > 20) { total -= 10; }
  do { total++; } while (total < 15);
}
|}
  in
  Interp.fire_start t;
  (* loop sums 0..6 = 21, break at 7; evens among 0..7 = 4; then 21>20 ->
     11; then do-while to 15 *)
  check_int "evens" 4 (get_int t "evens");
  check_int "total" 15 (get_int t "total")

let test_switch_fallthrough () =
  let t =
    make
      {|
variables { int r = 0; }
int classify(int x) {
  switch (x) {
    case 1:
    case 2: return 10;
    case 3: r = 1;   // falls through
    default: return 99;
  }
}
|}
  in
  (match Interp.call_function t "classify" [ Interp.V_int 2 ] with
   | Interp.V_int 10 -> ()
   | v -> Alcotest.failf "case grouping: %a" Interp.pp_value v);
  (match Interp.call_function t "classify" [ Interp.V_int 3 ] with
   | Interp.V_int 99 -> ()
   | _ -> Alcotest.fail "fallthrough to default");
  check_int "side effect of fallthrough" 1 (get_int t "r");
  match Interp.call_function t "classify" [ Interp.V_int 8 ] with
  | Interp.V_int 99 -> ()
  | _ -> Alcotest.fail "default"

let test_arrays () =
  let t =
    make
      {|
variables { int buf[4]; int sum = 0; }
on start {
  int i;
  for (i = 0; i < elCount(buf); i++) buf[i] = i * i;
  for (i = 0; i < 4; i++) sum += buf[i];
}
|}
  in
  Interp.fire_start t;
  check_int "array sum" 14 (get_int t "sum")

let test_message_objects () =
  let sent = ref [] in
  let runtime =
    { Interp.null_runtime with
      Interp.rt_output = (fun m -> sent := m :: !sent) }
  in
  let t =
    make ~runtime
      {|
variables { message Cmd m; }
on start {
  m.op = 3;
  m.arg = 200;
  m.byte(1) = m.byte(1) | 0x40;
  output(m);
}
on message Cmd {
  m.op = this.op + 1;
  output(m);
}
|}
  in
  Interp.fire_start t;
  (match !sent with
   | [ m ] ->
     check_int "id from spec" 0x10 m.Interp.m_id;
     let frame = Interp.frame_of_msg m in
     check_int "op encoded" 3
       (Msgdb.decode_signal
          (Option.get (Msgdb.find_signal (Option.get (Msgdb.find_by_id db 0x10)) "op"))
          [| Canbus.Frame.data_byte frame 0; Canbus.Frame.data_byte frame 1 |]);
     check_bool "byte() or-mask applied" true
       (Canbus.Frame.data_byte frame 1 land 0x40 <> 0)
   | _ -> Alcotest.fail "one frame expected");
  (* dispatch a received frame: this.op = 5 -> replies with op = 6 *)
  let data = [| 0; 0 |] in
  Msgdb.encode_signal
    (Option.get (Msgdb.find_signal (Option.get (Msgdb.find_by_id db 0x10)) "op"))
    data 5;
  Interp.on_frame t (Canbus.Frame.make ~id:0x10 (Array.to_list data));
  match !sent with
  | m :: _ ->
    let frame = Interp.frame_of_msg m in
    let op =
      Msgdb.decode_signal
        (Option.get (Msgdb.find_signal (Option.get (Msgdb.find_by_id db 0x10)) "op"))
        [| Canbus.Frame.data_byte frame 0; Canbus.Frame.data_byte frame 1 |]
    in
    check_int "handler read this.op" 6 op
  | [] -> Alcotest.fail "reply expected"

let test_timers () =
  let armed = ref [] in
  let cancelled = ref [] in
  let runtime =
    { Interp.null_runtime with
      Interp.rt_set_timer = (fun ~name ~us -> armed := (name, us) :: !armed);
      rt_cancel_timer = (fun ~name -> cancelled := name :: !cancelled) }
  in
  let t =
    make ~runtime
      {|
variables { msTimer fast; timer slow; int fired = 0; }
on start { setTimer(fast, 50); setTimer(slow, 2); cancelTimer(fast); }
on timer fast { fired++; }
|}
  in
  Interp.fire_start t;
  check_bool "ms timer scaled" true (List.mem ("fast", 50_000) !armed);
  check_bool "s timer scaled" true (List.mem ("slow", 2_000_000) !armed);
  Alcotest.(check (list string)) "cancelled" [ "fast" ] !cancelled;
  Interp.fire_timer t "fast";
  check_int "timer handler ran" 1 (get_int t "fired")

let test_write_formatting () =
  let lines = ref [] in
  let runtime =
    { Interp.null_runtime with Interp.rt_write = (fun s -> lines := s :: !lines) }
  in
  let t =
    make ~runtime
      {|
on start { write("n=%d hex=%x chr=%c pct=%% s=%s", 42, 255, 65, "ok"); }
|}
  in
  Interp.fire_start t;
  match !lines with
  | [ line ] -> check_string "formatted" "n=42 hex=ff chr=A pct=% s=ok" line
  | _ -> Alcotest.fail "one line"

let test_runtime_errors () =
  let t = make "variables { int a = 0; } int f(int x) { return x / a; }" in
  (try
     ignore (Interp.call_function t "f" [ Interp.V_int 1 ]);
     Alcotest.fail "expected division error"
   with Interp.Runtime_error _ -> ());
  let t2 = make "int g() { return g(); }" in
  try
    ignore (Interp.call_function t2 "g" []);
    Alcotest.fail "expected depth error"
  with Interp.Runtime_error _ -> ()

(* A function body is its own break/continue boundary: a jump that
   escapes it is an error, not a jump in the caller's loop (the extractor
   gives function bodies no break/continue target either). *)
let test_jump_escaping_function () =
  let src =
    {|
variables { int n = 0; }
void f() { switch (1) { case 1: continue; } n = 99; }
void g() { break; }
on start { int i; for (i = 0; i < 3; i++) { f(); n++; } }
|}
  in
  let t = make src in
  (try
     Interp.fire_start t;
     Alcotest.fail "expected Runtime_error from the escaping continue"
   with Interp.Runtime_error _ -> ());
  check_int "caller's loop did not run on" 0 (get_int t "n");
  try
    ignore (Interp.call_function (make src) "g" []);
    Alcotest.fail "expected Runtime_error from the escaping break"
  with Interp.Runtime_error _ -> ()

let test_deterministic_random () =
  let t = make "variables { int a = 0; int b = 0; } on start { a = random(100); b = random(100); }" in
  Interp.fire_start t;
  let a1 = get_int t "a" and b1 = get_int t "b" in
  let t2 = make "variables { int a = 0; int b = 0; } on start { a = random(100); b = random(100); }" in
  Interp.fire_start t2;
  check_int "same seed, same sequence" a1 (get_int t2 "a");
  check_int "same seed, same sequence (2)" b1 (get_int t2 "b");
  check_bool "in range" true (a1 >= 0 && a1 < 100)

let suite =
  ( "interp",
    [
      Alcotest.test_case "global initialization and masking" `Quick
        test_global_init_and_masking;
      Alcotest.test_case "handlers and functions" `Quick test_handlers_and_functions;
      Alcotest.test_case "control flow" `Quick test_control_flow;
      Alcotest.test_case "switch with fallthrough" `Quick test_switch_fallthrough;
      Alcotest.test_case "arrays" `Quick test_arrays;
      Alcotest.test_case "message objects" `Quick test_message_objects;
      Alcotest.test_case "timers" `Quick test_timers;
      Alcotest.test_case "write formatting" `Quick test_write_formatting;
      Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
      Alcotest.test_case "break/continue cannot escape a function" `Quick
        test_jump_escaping_function;
      Alcotest.test_case "deterministic random" `Quick test_deterministic_random;
    ] )
