(* Observability: spans, metrics, sinks. The silent handle must cost one
   branch per operation on the engine's hot paths, so every mutable piece
   hangs off an [active] flag checked first. Counters and histograms are
   atomic (worker domains update them concurrently); span bookkeeping and
   sink writes share one mutex. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let add_num buf f =
    (* Integral values print as integers up to 2^53, the last float whose
       integer neighbourhood is exact — checkpoint digests are 52-bit and
       must survive the round trip bit-for-bit. *)
    if Float.is_integer f && Float.abs f < 9007199254740992. then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.9g" f)

  let rec to_buffer buf v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> add_escaped buf s
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buffer buf v;
    Buffer.contents buf

  exception Bad of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
           | Some '"' -> Buffer.add_char buf '"'; advance ()
           | Some '\\' -> Buffer.add_char buf '\\'; advance ()
           | Some '/' -> Buffer.add_char buf '/'; advance ()
           | Some 'b' -> Buffer.add_char buf '\b'; advance ()
           | Some 'f' -> Buffer.add_char buf '\012'; advance ()
           | Some 'n' -> Buffer.add_char buf '\n'; advance ()
           | Some 'r' -> Buffer.add_char buf '\r'; advance ()
           | Some 't' -> Buffer.add_char buf '\t'; advance ()
           | Some 'u' ->
             advance ();
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad \\u escape"
              | Some code ->
                pos := !pos + 4;
                (* encode the BMP code point as UTF-8 *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end)
           | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)

  let member k v =
    match v with Obj fields -> List.assoc_opt k fields | _ -> None

  let to_float v = match v with Num f -> Some f | _ -> None

  (* [int_of_float] is unspecified outside the int range, which as
     floats is [-2^62, 2^62): both bounds are exact. *)
  let to_int v =
    match v with
    | Num f
      when Float.is_integer f
           && f >= Float.of_int min_int
           && f < -.Float.of_int min_int ->
      Some (int_of_float f)
    | _ -> None

  let to_str v = match v with Str s -> Some s | _ -> None
end

type sink =
  | Silent
  | Console of Format.formatter
  | Jsonl of out_channel

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Metric cells                                                        *)
(* ------------------------------------------------------------------ *)

type counter = { c_active : bool; cell : int Atomic.t }

type gauge = { g_active : bool; level : float Atomic.t }

type hist_state = {
  bounds : float array;  (* sorted upper bounds; overflow bucket implicit *)
  counts : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  (* sum is kept in microunits to stay atomic without a lock; precise
     enough for the duration/size scales observed here *)
  sum_micro : int Atomic.t;
  observations : int Atomic.t;
}

type histogram = { h_active : bool; h : hist_state }

type cell =
  | C of int Atomic.t
  | G of float Atomic.t
  | H of hist_state

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
      sum : float;
      observations : int;
    }

type t = {
  sink : sink;
  registry : (string, cell) Hashtbl.t;
  mutex : Mutex.t;
  mutable depth : int;  (* open spans; approximate across domains *)
  t0 : float;  (* handle creation time: span timestamps are relative *)
}

let make sink =
  {
    sink;
    registry = Hashtbl.create 32;
    mutex = Mutex.create ();
    depth = 0;
    t0 = now ();
  }

let silent = make Silent
let create sink = match sink with Silent -> silent | _ -> make sink
let is_silent t = match t.sink with Silent -> true | _ -> false

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let dummy_counter = { c_active = false; cell = Atomic.make 0 }
let dummy_gauge = { g_active = false; level = Atomic.make 0. }

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

let dummy_histogram =
  {
    h_active = false;
    h =
      {
        bounds = default_buckets;
        counts = Array.init (Array.length default_buckets + 1) (fun _ -> Atomic.make 0);
        sum_micro = Atomic.make 0;
        observations = Atomic.make 0;
      };
  }

(* Register-or-find under the mutex; mismatched kinds for one name are a
   programming error worth failing loudly on. *)
let register t name build check =
  locked t (fun () ->
      match Hashtbl.find_opt t.registry name with
      | Some cell -> check cell
      | None ->
        let cell = build () in
        Hashtbl.replace t.registry name cell;
        check cell)

let counter t name =
  if is_silent t then dummy_counter
  else
    register t name
      (fun () -> C (Atomic.make 0))
      (fun cell ->
        match cell with
        | C cell -> { c_active = true; cell }
        | _ -> invalid_arg ("Obs.counter: " ^ name ^ " is not a counter"))

let incr c = if c.c_active then ignore (Atomic.fetch_and_add c.cell 1)
let add c n = if c.c_active then ignore (Atomic.fetch_and_add c.cell n)
let counter_value c = Atomic.get c.cell

let gauge t name =
  if is_silent t then dummy_gauge
  else
    register t name
      (fun () -> G (Atomic.make 0.))
      (fun cell ->
        match cell with
        | G level -> { g_active = true; level }
        | _ -> invalid_arg ("Obs.gauge: " ^ name ^ " is not a gauge"))

let set g v = if g.g_active then Atomic.set g.level v
let gauge_value g = Atomic.get g.level

let histogram ?(buckets = default_buckets) t name =
  if is_silent t then dummy_histogram
  else
    register t name
      (fun () ->
        let bounds = Array.copy buckets in
        Array.sort compare bounds;
        H
          {
            bounds;
            counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            sum_micro = Atomic.make 0;
            observations = Atomic.make 0;
          })
      (fun cell ->
        match cell with
        | H h -> { h_active = true; h }
        | _ -> invalid_arg ("Obs.histogram: " ^ name ^ " is not a histogram"))

let bucket_index bounds v =
  (* first bucket whose upper bound admits v; linear scan — bucket counts
     are small and fixed *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe hg v =
  if hg.h_active then begin
    let h = hg.h in
    ignore (Atomic.fetch_and_add h.counts.(bucket_index h.bounds v) 1);
    ignore (Atomic.fetch_and_add h.sum_micro (int_of_float (v *. 1e6)));
    ignore (Atomic.fetch_and_add h.observations 1)
  end

let hist_snapshot h =
  let buckets =
    List.init
      (Array.length h.counts)
      (fun i ->
        let bound =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        bound, Atomic.get h.counts.(i))
  in
  ( buckets,
    float_of_int (Atomic.get h.sum_micro) /. 1e6,
    Atomic.get h.observations )

let histogram_counts hg =
  let buckets, _, _ = hist_snapshot hg.h in
  buckets

let histogram_sum hg =
  let _, sum, _ = hist_snapshot hg.h in
  sum

let histogram_observations hg = Atomic.get hg.h.observations

let metrics t =
  if is_silent t then []
  else
    locked t (fun () ->
        Hashtbl.fold
          (fun name cell acc ->
            let m =
              match cell with
              | C c -> Counter (Atomic.get c)
              | G g -> Gauge (Atomic.get g)
              | H h ->
                let buckets, sum, observations = hist_snapshot h in
                Histogram { buckets; sum; observations }
            in
            (name, m) :: acc)
          t.registry [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let emit_json t obj =
  match t.sink with
  | Jsonl oc ->
    locked t (fun () ->
        output_string oc (Json.to_string (Json.Obj obj));
        output_char oc '\n')
  | _ -> ()

let event t name fields =
  match t.sink with
  | Silent -> ()
  | Jsonl _ ->
    emit_json t (("ev", Json.Str "event") :: ("name", Json.Str name) :: fields)
  | Console ppf ->
    locked t (fun () ->
        Format.fprintf ppf "[obs] %s%a@." name
          (fun ppf fields ->
            List.iter
              (fun (k, v) -> Format.fprintf ppf " %s=%s" k (Json.to_string v))
              fields)
          fields)

let span t name f =
  match t.sink with
  | Silent -> f ()
  | sink ->
    let start = now () in
    let depth = locked t (fun () ->
        let d = t.depth in
        t.depth <- d + 1;
        d)
    in
    Fun.protect
      ~finally:(fun () ->
        let dur = now () -. start in
        match sink with
        | Silent -> ()
        | Jsonl _ ->
          locked t (fun () -> t.depth <- t.depth - 1);
          emit_json t
            [
              "ev", Json.Str "span";
              "name", Json.Str name;
              "depth", Json.Num (float_of_int depth);
              "start_s", Json.Num (start -. t.t0);
              "dur_s", Json.Num dur;
            ]
        | Console ppf ->
          locked t (fun () ->
              t.depth <- t.depth - 1;
              Format.fprintf ppf "[obs] %s%s: %.3f ms@."
                (String.make (2 * depth) ' ')
                name (dur *. 1e3)))
      f

let flush t =
  match t.sink with
  | Silent -> ()
  | Jsonl oc ->
    List.iter
      (fun (name, m) ->
        match m with
        | Counter v ->
          emit_json t
            [
              "ev", Json.Str "counter";
              "name", Json.Str name;
              "value", Json.Num (float_of_int v);
            ]
        | Gauge v ->
          emit_json t
            [ "ev", Json.Str "gauge"; "name", Json.Str name; "value", Json.Num v ]
        | Histogram { buckets; sum; observations } ->
          emit_json t
            [
              "ev", Json.Str "histogram";
              "name", Json.Str name;
              "sum", Json.Num sum;
              "observations", Json.Num (float_of_int observations);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (bound, count) ->
                       Json.Obj
                         [
                           ( "le",
                             if Float.is_integer bound || bound = infinity then
                               Json.Str
                                 (if bound = infinity then "inf"
                                  else Printf.sprintf "%.0f" bound)
                             else Json.Str (Printf.sprintf "%g" bound) );
                           "count", Json.Num (float_of_int count);
                         ])
                     buckets) );
            ])
      (metrics t);
    locked t (fun () -> Stdlib.flush oc)
  | Console ppf ->
    let ms = metrics t in
    locked t (fun () ->
        if ms <> [] then begin
          Format.fprintf ppf "[obs] metrics:@.";
          List.iter
            (fun (name, m) ->
              match m with
              | Counter v -> Format.fprintf ppf "[obs]   %-32s %d@." name v
              | Gauge v -> Format.fprintf ppf "[obs]   %-32s %g@." name v
              | Histogram { sum; observations; buckets } ->
                Format.fprintf ppf "[obs]   %-32s n=%d sum=%g %s@." name
                  observations sum
                  (String.concat " "
                     (List.filter_map
                        (fun (bound, count) ->
                          if count = 0 then None
                          else
                            Some
                              (Printf.sprintf "le%s:%d"
                                 (if bound = infinity then "+inf"
                                  else Printf.sprintf "%g" bound)
                                 count))
                        buckets)))
            ms
        end;
        Format.pp_print_flush ppf ())
