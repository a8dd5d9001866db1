type token = {
  flag : bool Atomic.t;
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
}

let create () = { flag = Atomic.make false; wake = None }
let tripped t = Atomic.get t.flag
let read t () = Atomic.get t.flag
let wake_fd t = Option.map fst t.wake

(* Only the first trip writes, so the pipe never fills. *)
let trip t =
  if not (Atomic.exchange t.flag true) then
    Option.iter (fun (_, w) -> ignore (Unix.single_write_substring w "!" 0 1))
      t.wake

let install_termination t =
  if t.wake = None then t.wake <- Some (Unix.pipe ~cloexec:true ());
  let handle signo =
    (* First signal: degrade gracefully. Second signal of the same kind:
       the default (fatal) behaviour, because this handler is gone. *)
    Sys.set_signal signo Sys.Signal_default;
    trip t
  in
  List.iter
    (fun signo -> Sys.set_signal signo (Sys.Signal_handle handle))
    [ Sys.sigint; Sys.sigterm ]
