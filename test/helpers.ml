(* Shared fixtures for the CSP engine tests: a small standard environment,
   event/process builders, and a QCheck generator of random well-formed
   ground processes used by the differential and round-trip properties. *)

open Csp

(* Channels: a, b, c carry one small int; tick-free [done_] is a bare
   event channel. *)
let make_defs () =
  let defs = Defs.create () in
  Defs.declare_channel defs "a" [ Ty.Int_range (0, 2) ];
  Defs.declare_channel defs "b" [ Ty.Int_range (0, 2) ];
  Defs.declare_channel defs "c" [ Ty.Int_range (0, 1) ];
  Defs.declare_channel defs "done_" [];
  defs

(* Substring containment, for asserting on error-message contents. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let ev chan n = Event.event chan [ Value.Int n ]
let ev0 chan = Event.event chan []

let send chan n p = Proc.send chan [ Value.Int n ] p

(* Labels helper *)
let vis chan n = Event.Vis (ev chan n)

let label = Alcotest.testable Event.pp_label Event.equal_label

let proc_testable = Alcotest.testable Proc.pp Proc.equal

let sorted_initials defs p = Semantics.initials defs p

(* ------------------------------------------------------------------ *)
(* Random ground processes over the standard environment.              *)
(* ------------------------------------------------------------------ *)

let gen_proc : Proc.t QCheck.Gen.t =
  let open QCheck.Gen in
  let chan_gen = oneofl [ "a", 2; "b", 2; "c", 1 ] in
  let leaf =
    oneof
      [
        return Proc.stop;
        return Proc.skip;
        map
          (fun (chan, hi) -> send chan hi Proc.stop)
          chan_gen;
      ]
  in
  let set_gen =
    oneof
      [
        map (fun c -> Eventset.chan c) (oneofl [ "a"; "b"; "c" ]);
        return (Eventset.chans [ "a"; "b" ]);
        return Eventset.empty;
        map (fun n -> Eventset.events [ ev "a" n ]) (int_range 0 2);
      ]
  in
  sized_size (int_range 0 8) @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            1, leaf;
            3,
            map2
              (fun (chan, hi) p ->
                let v = hi in
                send chan v p)
              chan_gen (self (n - 1));
            2,
            map
              (fun p -> Proc.prefix_items ("a", [ Proc.In ("x", None) ], p))
              (self (n - 1));
            2, map2 (fun p q -> Proc.ext (p, q)) (self (n / 2)) (self (n / 2));
            2, map2 (fun p q -> Proc.intc (p, q)) (self (n / 2)) (self (n / 2));
            2, map2 (fun p q -> Proc.seq (p, q)) (self (n / 2)) (self (n / 2));
            2,
            map3
              (fun p s q -> Proc.par (p, s, q))
              (self (n / 2)) set_gen (self (n / 2));
            1, map2 (fun p q -> Proc.inter (p, q)) (self (n / 2)) (self (n / 2));
            1, map2 (fun p s -> Proc.hide (p, s)) (self (n - 1)) set_gen;
          ])

(* Sizes are capped at 8 in [gen_proc]: trace-set computations are
   exponential in term size by nature. *)
let arb_proc = QCheck.make ~print:Proc.to_string gen_proc

(* ------------------------------------------------------------------ *)
(* The seed engine, kept as the oracle of the checks                   *)
(* ------------------------------------------------------------------ *)

(* The search the checker ran before every compile went through the
   staged combinator tree: for traces, failures and determinism the
   implementation term is stepped by the operational semantics and
   interned on the fly ([interner] picks hash-consed ids or deep
   structural equality); for FD it is compiled by [Lts.compile_budgeted].
   Either way it is searched against the specification's on-demand normal
   form, with no reduction pass. *)
let raw_check ?(interner = `Id) ?(max_states = 1_000_000) ?max_pairs defs
    ~model ~spec ~impl =
  let max_pairs = Option.value max_pairs ~default:max_states in
  let norm = Normalise.of_spec ~max_states defs spec in
  let search refusal source =
    Search.product ~refusal ~max_pairs ~norm source
  in
  match model with
  | `Fd -> (
    match Lts.compile_budgeted ~max_states defs impl with
    | Lts.Complete g -> search `Acceptances (Search.lts_source g)
    | Lts.Partial _ -> invalid_arg "raw_check: FD implementation over budget")
  | (`Traces | `Failures | `Determinism) as model ->
    let impl =
      Proc.const_fold ~tys:(Defs.ty_lookup defs) (Defs.fenv defs) impl
    in
    search
      (match model with
       | `Traces -> `None
       | `Failures -> `Acceptances
       | `Determinism -> `Full)
      (Search.proc_source ~interner
         ~make_step:(fun () -> Semantics.make_cached defs)
         impl)

(* ------------------------------------------------------------------ *)
(* Byte-level edits of valid inputs, for the decoders' never-raise and  *)
(* agreement properties                                                *)
(* ------------------------------------------------------------------ *)

(* One to three edits of [input] — a byte replaced, the tail cut off, a
   byte inserted or appended — each new byte drawn from [interesting]
   (the decoder's own punctuation) three times in four, else any byte. *)
let gen_byte_edits ~interesting input =
  let open QCheck.Gen in
  let gen_byte = frequency [ (3, oneofl interesting); (1, char) ] in
  let edit s =
    let n = String.length s in
    let* pos = int_bound (max 0 (n - 1)) and* b = gen_byte in
    oneofl
      [
        (if n = 0 then s
         else String.mapi (fun i c -> if i = pos then b else c) s);
        String.sub s 0 pos;
        String.sub s 0 pos ^ String.make 1 b ^ String.sub s pos (n - pos);
        s ^ String.make 1 b;
      ]
  in
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  int_range 1 3 >>= fun k -> go k input
