(** Cancellation tokens and termination-signal plumbing.

    The search engine polls a [unit -> bool] token once per 256 dequeues;
    this module provides the token (an atomic flag, safe to trip from a
    signal handler or another domain) and the one place in the codebase
    allowed to install handlers for SIGINT/SIGTERM. The lint in
    [tools/lint.ml] bans signal installation and sleeping elsewhere under
    [lib/] so that interruption policy stays in this subsystem. *)

type token

val create : unit -> token
(** A fresh, untripped token. *)

val trip : token -> unit
(** Trip the token; idempotent, async-signal-safe, domain-safe. The
    first trip also makes {!wake_fd} readable. *)

val tripped : token -> bool

val read : token -> unit -> bool
(** The closure form expected by [Csp.Check_config.with_cancel]:
    [read t] is a function that returns [tripped t]. *)

val wake_fd : token -> Unix.file_descr option
(** Once {!install_termination} has run, a descriptor that turns
    readable when the token trips: in a [Unix.select] read set it ends
    the wait even if the signal landed just before the wait began. *)

val install_termination : token -> unit
(** Install handlers for SIGINT and SIGTERM that trip [t]. Each handler
    restores that signal's default behaviour as its first act, so a
    second signal of the same kind kills the process outright — graceful
    degradation must never make a hung process unkillable. *)
