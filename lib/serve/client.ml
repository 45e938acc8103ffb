(* Blocking scripted client for tests, the [serve-client] verb and the
   throughput bench: connect (with retry while the daemon binds its
   socket), send lines, read newline-delimited replies. One [t] per
   thread — the buffer is not shared. *)

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  scratch : Bytes.t;
  mutable at_eof : bool;
}

let addr_of = function
  | Server.Unix_path path -> Unix.ADDR_UNIX path
  | Server.Tcp_port port ->
      Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Connection attempts while the daemon binds its socket, and the pause
   between them: two seconds in all. *)
let attempts = 100
let delay_s = 0.02

let connect listen =
  let addr = addr_of listen in
  let rec go n =
    let fd =
      Unix.socket
        (match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
        Unix.SOCK_STREAM 0
    in
    match Unix.connect fd addr with
    | () ->
        { fd; buf = Buffer.create 512; scratch = Bytes.create 8192; at_eof = false }
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when n > 1 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf delay_s;
        go (n - 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go attempts

let send_line t line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let rec write ofs =
    if ofs < len then
      let n = Unix.write_substring t.fd payload ofs (len - ofs) in
      write (ofs + n)
  in
  write 0

(* One complete line (terminator stripped), or [None] at server EOF. *)
let recv_line t =
  let take_line () =
    let data = Buffer.contents t.buf in
    match String.index_opt data '\n' with
    | None -> None
    | Some i ->
        let stop = if i > 0 && data.[i - 1] = '\r' then i - 1 else i in
        let line = String.sub data 0 stop in
        Buffer.clear t.buf;
        Buffer.add_substring t.buf data (i + 1) (String.length data - i - 1);
        Some line
  in
  let rec go () =
    match take_line () with
    | Some line -> Some line
    | None ->
        if t.at_eof then None
        else begin
          (match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
          | 0 -> t.at_eof <- true
          | n -> Buffer.add_subbytes t.buf t.scratch 0 n
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              t.at_eof <- true);
          go ()
        end
  in
  go ()

let close t =
  if not t.at_eof then t.at_eof <- true;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let round_trip t line =
  send_line t line;
  recv_line t
