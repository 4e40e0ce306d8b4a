exception Bad_request of string

let max_head_bytes = 64 * 1024

let max_body_bytes = 64 * 1024 * 1024

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

let header r name = List.assoc_opt (String.lowercase_ascii name) r.headers

let wants_close r =
  match header r "connection" with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

(* ------------------------------------------------------------------ *)
(* Buffered reading                                                   *)

(* One growable buffer per connection: bytes [start, stop) of [buf] are
   read but not yet consumed. Reads append at [stop]; consuming advances
   [start]. Room is made by sliding the live bytes to the front when they
   fill at most half the buffer, and by doubling it otherwise, so reading
   a body of n bytes costs O(n) copying. *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

let chunk_size = 8192

let conn fd = { fd; buf = Bytes.create chunk_size; start = 0; stop = 0 }

let conn_fd c = c.fd

let available c = c.stop - c.start

(* make room for at least [want] more bytes after [stop] *)
let reserve c want =
  let cap = Bytes.length c.buf in
  if c.stop + want > cap then begin
    let live = available c in
    let dst =
      if live + want <= cap / 2 then c.buf
      else Bytes.create (max (2 * cap) (live + want))
    in
    Bytes.blit c.buf c.start dst 0 live;
    c.buf <- dst;
    c.start <- 0;
    c.stop <- live
  end

(* false on EOF *)
let read_more ?(want = chunk_size) c =
  reserve c want;
  let n = Unix.read c.fd c.buf c.stop (Bytes.length c.buf - c.stop) in
  c.stop <- c.stop + n;
  n > 0

(* Hand the buffer of a large body back once it is consumed, so an idle
   keep-alive connection does not pin it. *)
let consume c len =
  c.start <- c.start + len;
  if c.start = c.stop && Bytes.length c.buf > max_head_bytes then begin
    c.buf <- Bytes.create chunk_size;
    c.start <- 0;
    c.stop <- 0
  end

(* first CRLFCRLF at or after [from] among the buffered bytes *)
let find_blank_line c from =
  let b = c.buf in
  let rec go i =
    if i + 4 > c.stop then None
    else if
      Bytes.get b i = '\r'
      && Bytes.get b (i + 1) = '\n'
      && Bytes.get b (i + 2) = '\r'
      && Bytes.get b (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go (max c.start from)

(* Read until the buffer holds a complete header block; returns the head
   (without the final CRLFCRLF) and leaves the rest buffered. Each pass
   scans only the bytes that arrived since the last one (offsets are kept
   relative to [start], which a slide moves). [None] on EOF before any
   byte. *)
let read_head c =
  let rec go scanned =
    match find_blank_line c (c.start + scanned - 3) with
    | Some i ->
        let head = Bytes.sub_string c.buf c.start (i - c.start) in
        consume c (i + 4 - c.start);
        Some head
    | None ->
        if available c > max_head_bytes then
          raise (Bad_request "request head too large");
        let before = available c in
        if read_more c then go before
        else if before = 0 then None
        else raise (Bad_request "connection closed mid-request")
  in
  go 0

let read_body c len =
  if len > max_body_bytes then raise (Bad_request "request body too large");
  while available c < len do
    if not (read_more ~want:(len - available c) c) then
      raise (Bad_request "connection closed mid-body")
  done;
  let body = Bytes.sub_string c.buf c.start len in
  consume c len;
  body

let split_lines head = String.split_on_char '\n' head |> List.map String.trim

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> raise (Bad_request (Printf.sprintf "malformed header %S" line))
  | Some i ->
      ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ]
    when version = "HTTP/1.1" || version = "HTTP/1.0" ->
      (String.uppercase_ascii meth, path)
  | _ -> raise (Bad_request (Printf.sprintf "malformed request line %S" line))

let read_request c =
  match read_head c with
  | None -> None
  | Some head ->
      let lines = split_lines head in
      let meth, path =
        match lines with
        | first :: _ -> parse_request_line first
        | [] -> raise (Bad_request "empty request head")
      in
      let headers =
        List.filter_map
          (fun l -> if l = "" then None else Some (parse_header_line l))
          (List.tl lines)
      in
      if List.mem_assoc "transfer-encoding" headers then
        raise (Bad_request "chunked transfer encoding is not supported");
      let body =
        match List.assoc_opt "content-length" headers with
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some len when len >= 0 -> read_body c len
            | Some _ | None -> raise (Bad_request "invalid Content-Length"))
        | None ->
            if meth = "POST" || meth = "PUT" then
              raise (Bad_request "Content-Length required")
            else ""
      in
      Some { meth; path; headers; body }

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)

let reason = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> if c >= 200 && c < 300 then "OK" else "Error"

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let write_response ?(content_type = "application/json") ?(keep_alive = true)
    ?(headers = []) fd ~status ~body =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: %s\r\n%s\r\n"
      status (reason status) content_type (String.length body)
      (if keep_alive then "keep-alive" else "close")
      extra
  in
  write_all fd (head ^ body)

(* ------------------------------------------------------------------ *)
(* Client                                                             *)

type client = { c : conn; host : string }

let connect ~host ~port =
  let addrs =
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  in
  let addr =
    match addrs with
    | { Unix.ai_addr; _ } :: _ -> ai_addr
    | [] ->
        Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  { c = conn fd; host }

let close cl = try Unix.close cl.c.fd with Unix.Unix_error _ -> ()

let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: _ when String.length version >= 5 -> (
      match int_of_string_opt code with
      | Some status -> status
      | None -> raise (Bad_request (Printf.sprintf "bad status line %S" line)))
  | _ -> raise (Bad_request (Printf.sprintf "bad status line %S" line))

let read_response c =
  match read_head c with
  | None -> raise End_of_file
  | Some head ->
      let lines = split_lines head in
      let status = parse_status_line (List.hd lines) in
      let headers =
        List.filter_map
          (fun l -> if l = "" then None else Some (parse_header_line l))
          (List.tl lines)
      in
      let body =
        match List.assoc_opt "content-length" headers with
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some len when len >= 0 -> read_body c len
            | Some _ | None -> raise (Bad_request "invalid Content-Length"))
        | None -> ""
      in
      (status, headers, body)

let call_full ?(close_after = false) ?(headers = []) cl ~meth ~path
    ?(body = "") () =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n\
       Content-Length: %d\r\nConnection: %s\r\n%s\r\n"
      meth path cl.host (String.length body)
      (if close_after then "close" else "keep-alive")
      extra
  in
  write_all cl.c.fd (head ^ body);
  read_response cl.c

let call_on ?close_after ?headers cl ~meth ~path ?body () =
  let status, _, body = call_full ?close_after ?headers cl ~meth ~path ?body () in
  (status, body)

let call ?headers cl ~meth ~path ?body () = call_on ?headers cl ~meth ~path ?body ()

let request ?headers ~host ~port ~meth ~path ?body () =
  let cl = connect ~host ~port in
  Fun.protect
    ~finally:(fun () -> close cl)
    (fun () -> call_on ~close_after:true ?headers cl ~meth ~path ?body ())
