(* The benchmark's statistics, kept free of I/O so they can be tested:
   percentiles with sample counts, the tail rule, due-time accounting for
   open-loop requests, the rate-ladder search and daemon counter deltas. *)

module Json = Server.Json

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least p% of the
   samples at or below it. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank n p - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The percentiles the tail rule may report, highest first. *)
let tail_levels = [ 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75.; 50. ]

type tail = { level : float; value : float; samples : int; beyond : int }

(* The highest listed percentile that still has [min_beyond] samples
   strictly above its rank, so a tail figure never rests on a handful of
   requests. [None] when even the median lacks them. *)
let tail ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun level ->
      let k = if n = 0 then 0 else rank n level in
      if n > 0 && n - k >= min_beyond then
        Some { level; value = a.(k - 1); samples = n; beyond = n - k }
      else None)
    tail_levels

(* ------------------------------------------------------------------ *)
(* Due-time accounting                                                *)

type outcome = Ok | Wrong | Failed of string

type request = {
  cls : string;
  due : float;  (** seconds from the start of the schedule *)
  picked : float;  (** when a connection became free to send it *)
  sent : float;
  finished : float;
  outcome : outcome;
}

(* A request is timed from when it was due, not from when it left, so a
   stall that delays later sends shows up in their latency. A request
   that failed, was refused or answered wrongly has no latency: it misses
   every limit. *)
let latency_ms r =
  match r.outcome with
  | Ok -> (r.finished -. r.due) *. 1000.
  | Wrong | Failed _ -> Float.infinity

(* How long a request waited behind the schedule: busy connections
   plus the generator's own lateness. *)
let late_ms r = (r.sent -. r.due) *. 1000.

(* The generator's own lateness: how long after it could have sent the
   request (due, and a connection free) it actually did. *)
let gen_late_ms r = (r.sent -. Float.max r.due r.picked) *. 1000.

(* Send to answer: the service time when nothing queues at the client. *)
let service_ms r = (r.finished -. r.sent) *. 1000.

let is_error r = match r.outcome with Ok -> false | Wrong | Failed _ -> true

let errors rs = List.length (List.filter is_error rs)

let of_class cls rs = List.filter (fun r -> r.cls = cls) rs

(* Median latency of the answered requests of a class, with its count. *)
let class_p50 cls rs =
  match List.filter (fun r -> not (is_error r)) (of_class cls rs) with
  | [] -> None
  | ok -> Some (median (List.map latency_ms ok), List.length ok)

(* Whether [lateness] grows over the run: its median over the last
   third of the requests (by due time) exceeds that of the first third by
   more than [slack_ms]. *)
let grows ?(slack_ms = 20.) lateness rs =
  let a = Array.of_list (List.sort (fun x y -> Float.compare x.due y.due) rs) in
  let n = Array.length a in
  if n < 6 then false
  else
    let third = n / 3 in
    let part lo hi = median (List.init (hi - lo) (fun i -> lateness a.(lo + i))) in
    part (n - third) n > part 0 third +. slack_ms

(* A backlog grows when sends fall further behind the schedule. *)
let backlog_growing ?slack_ms rs = grows ?slack_ms late_ms rs

(* A run whose generator itself falls behind measures the generator, not
   the daemon, and is invalid. *)
let generator_falling_behind rs = grows ~slack_ms:5. gen_late_ms rs

(* A rung of the ladder passes when its tail meets the limit, every
   request was answered correctly (a failure misses any limit) and the
   backlog did not grow. *)
let rung_ok ~limit_ms rs =
  errors rs = 0
  && (not (backlog_growing rs))
  &&
  match tail (List.map latency_ms rs) with
  | Some t -> t.value <= limit_ms
  | None -> false

(* Walk the fixed ladder upward and stop at the first rate that fails;
   the answer is the last rate that passed (0 when the first fails). *)
let ladder_search ladder probe =
  let rec go best = function
    | [] -> best
    | rate :: rest -> if probe rate then go rate rest else best
  in
  go 0. ladder

(* ------------------------------------------------------------------ *)
(* Daemon counters                                                    *)

(* A number at a path of object keys in a /stats or /metrics document. *)
let field path json =
  let rec go json = function
    | [] -> ( match json with Json.Num x -> Some x | _ -> None)
    | key :: rest -> Option.bind (Json.member key json) (fun j -> go j rest)
  in
  go json path

let delta ~before ~after path =
  match (field path before, field path after) with
  | Some b, Some a -> a -. b
  | None, Some a -> a
  | _, None -> 0.

let ratio num den = if den = 0. then 0. else num /. den
