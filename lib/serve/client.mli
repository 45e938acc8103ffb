(** Blocking scripted client: the view of the daemon that the tests, the
    [serve-client] verb (strict request/reply alternation) and the
    throughput bench share.

    One [t] per thread — the receive buffer is not shared. *)

type t

val connect : Server.listen -> t
(** Connect to a daemon, retrying (100 attempts, 20 ms apart)
    while the socket is not yet bound — the startup race of launching a
    daemon and connecting to it. Raises the last [Unix.Unix_error] when
    the attempts are exhausted. *)

val send_line : t -> string -> unit
(** Send one request line (terminator appended). *)

val recv_line : t -> string option
(** Next complete response line (terminator stripped), blocking;
    [None] once the server has closed the connection. *)

val round_trip : t -> string -> string option
(** [send_line] then [recv_line] — the synchronous request/reply
    cycle. *)

val close : t -> unit
