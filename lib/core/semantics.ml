module Vec = Numeric.Vec
module Chain = Ctmc.Chain
module Explore = Ctmc.Explore

type state = {
  up : bool array;
  in_repair : int list array;
  queue : int list array;
  stage : int array;
      (* completed Erlang repair stages per component (0 when repair has not
         progressed); only ever non-zero for components with repair_stages
         greater than 1 *)
  failed_mode : int array;
      (* index of the active failure mode per component (0 = the primary
         mode; only meaningful while the component is down) *)
}

exception Build_error of string

let () =
  Printexc.register_printer (function
    | Build_error msg -> Some (Printf.sprintf "Core.Semantics.Build_error (%s)" msg)
    | _ -> None)

let error fmt = Printf.ksprintf (fun msg -> raise (Build_error msg)) fmt

(* ---- packed states -------------------------------------------------------
   A state is a fixed number of int words holding bit fields that never
   straddle a word: per component an up bit, the failure-mode index, the
   completed-stage count and (for units that share crews) an in-repair
   flag; per repair unit one queue slot per member that can wait, holding
   the member's position + 1 (0 = empty), queue head first. A zero-width
   field reads as 0. *)

type field = { word : int; shift : int; mask : int }

let get code f = (Array.unsafe_get code f.word lsr f.shift) land f.mask

let set code f v =
  Array.unsafe_set code f.word
    (Array.unsafe_get code f.word land lnot (f.mask lsl f.shift) lor (v lsl f.shift))

let word_bits = 62

(* bits needed to hold the values 0..v *)
let rec bits_for ?(b = 0) v = if v lsr b = 0 then b else bits_for ~b:(b + 1) v

let max_stages modes =
  Array.fold_left (fun acc fm -> max acc fm.Component.fm_repair_stages) 1 modes

(* Static per-model data, compiled once per build. *)
type ctx = {
  comps : Component.t array;
  modes : Component.failure_mode array array; (* per component *)
  index : (string, int) Hashtbl.t;
  rus : Repair.t array;
  ru_of : int array; (* repair-unit index per component, -1 when none *)
  rank : int array array;
      (* scheduling rank per component and failure mode (0 when no RU);
         under FRF/FFF the mode determines the repair/failure rate and
         hence the priority *)
  dedicated : bool array; (* per unit *)
  preemptive : bool array; (* per unit; false for dedicated units *)
  members : int array array; (* per unit, in the unit's declaration order *)
  position : int array; (* per component, its position in [members] *)
  fail_rate : float array array; (* per component and mode *)
  dormant_rate : float array array; (* the same, times the spare dormancy *)
  stage_rate : float array array;
  spare_before : int array array;
      (* per component, the members before it in its spare unit *)
  spare_needed : int array; (* its spare unit's primary count (1 if none) *)
  words : int;
  up_f : field array;
  mode_f : field array;
  stage_f : field array;
  busy_f : field array;
  slot_f : field array array; (* per unit, one per member *)
}

let make_ctx model =
  let comps = Array.of_list model.Model.components in
  let n = Array.length comps in
  let index = Hashtbl.create n in
  Array.iteri (fun i c -> Hashtbl.replace index c.Component.name i) comps;
  let find name = Hashtbl.find index name in
  let modes = Array.map (fun c -> Array.of_list (Component.modes c)) comps in
  let rus = Array.of_list model.Model.repair_units in
  let members = Array.map (fun ru -> Array.of_list (List.map find ru.Repair.components)) rus in
  let ru_of = Array.make n (-1) and position = Array.make n 0 in
  Array.iteri (fun u -> Array.iteri (fun k i -> ru_of.(i) <- u; position.(i) <- k)) members;
  (* per-unit rank tables: distinct rate values across every (component,
     mode) pair of the unit, ascending *)
  let rank = Array.map (Array.map (fun _ -> 0)) modes in
  Array.iteri
    (fun u ru ->
      let value_of i m =
        match ru.Repair.strategy with
        | Repair.Dedicated | Repair.Fcfs -> 0.
        | Repair.Frf -> modes.(i).(m).Component.fm_mttr
        | Repair.Fff -> modes.(i).(m).Component.fm_mttf
        | Repair.Priority order ->
            let rec position p = function
              | [] -> 0.
              | c :: rest ->
                  if c = comps.(i).Component.name then float_of_int p else position (p + 1) rest
            in
            position 0 order
      in
      let pairs i = List.init (Array.length modes.(i)) (fun m -> value_of i m) in
      let values = List.sort_uniq compare (List.concat_map pairs (Array.to_list members.(u))) in
      let rec rank_of p v = function
        | [] -> 0
        | x :: rest -> if x = v then p else rank_of (p + 1) v rest
      in
      Array.iter
        (fun i ->
          Array.iteri (fun m _ -> rank.(i).(m) <- rank_of 0 (value_of i m) values) modes.(i))
        members.(u))
    rus;
  let dedicated = Array.map (fun ru -> ru.Repair.strategy = Repair.Dedicated) rus in
  let preemptive = Array.mapi (fun u ru -> (not dedicated.(u)) && ru.Repair.preemptive) rus in
  let spare = Array.map (fun c -> Model.spare_unit_of model c.Component.name) comps in
  let spare_before i =
    match spare.(i) with
    | None -> [||]
    | Some smu ->
        let rec before = function [] -> [] | c :: rest -> if c = i then [] else c :: before rest in
        Array.of_list (before (List.map find (Spare.members smu)))
  in
  let rates factor =
    Array.mapi (fun i -> Array.map (fun fm -> Component.mode_failure_rate fm *. factor i)) modes
  in
  (* the layout: fields packed greedily into words of [word_bits] bits *)
  let words = ref 1 and used = ref 0 in
  let field width =
    if width = 0 then { word = 0; shift = 0; mask = 0 }
    else begin
      if !used + width > word_bits then begin
        incr words;
        used := 0
      end;
      used := !used + width;
      { word = !words - 1; shift = !used - width; mask = (1 lsl width) - 1 }
    end
  in
  let per_component f = Array.init n f in
  let up_f = per_component (fun _ -> field 1) in
  let mode_f = per_component (fun i -> field (bits_for (Array.length modes.(i) - 1))) in
  let stage_f = per_component (fun i -> field (bits_for (max_stages modes.(i) - 1))) in
  let busy_f =
    per_component (fun i ->
        let u = ru_of.(i) in
        field (if u >= 0 && not (dedicated.(u) || preemptive.(u)) then 1 else 0))
  in
  (* A preemptive queue holds every failed member; a shared-crew queue
     only those waiting while all crews are busy. *)
  let slot_f =
    Array.mapi
      (fun u ms ->
        let k =
          if dedicated.(u) then 0
          else if preemptive.(u) then Array.length ms
          else max 0 (Array.length ms - rus.(u).Repair.crews)
        in
        Array.init k (fun _ -> field (bits_for (Array.length ms))))
      members
  in
  {
    comps; modes; index; rus; ru_of; rank; dedicated; preemptive; members; position;
    fail_rate = rates (fun _ -> 1.);
    dormant_rate =
      rates (fun i -> match spare.(i) with None -> 1. | Some smu -> Spare.dormancy_factor smu);
    stage_rate = Array.map (Array.map Component.mode_stage_rate) modes;
    spare_before = per_component spare_before;
    spare_needed =
      Array.map (function None -> 1 | Some smu -> List.length smu.Spare.primaries) spare;
    words = !words; up_f; mode_f; stage_f; busy_f; slot_f;
  }

let component_count ctx = Array.length ctx.comps

let is_up ctx code i = get code ctx.up_f.(i) = 1

(* ---- encode / decode ---------------------------------------------------- *)

let encode ctx st =
  let n = component_count ctx and nru = Array.length ctx.rus in
  if Array.length st.up <> n then error "build: initial state has wrong component count";
  let invalid fmt = Printf.ksprintf (fun msg -> error "initial state: %s" msg) fmt in
  List.iter
    (fun (what, len, expected) ->
      if len <> expected then invalid "%s has length %d, expected %d" what len expected)
    [
      ("stage", Array.length st.stage, n); ("failed_mode", Array.length st.failed_mode, n);
      ("in_repair", Array.length st.in_repair, nru); ("queue", Array.length st.queue, nru);
    ];
  let code = Array.make ctx.words 0 in
  let put what f i v limit =
    if v < 0 || v >= limit then
      invalid "%s of %s is %d, outside [0, %d)" what ctx.comps.(i).Component.name v limit;
    set code f v
  in
  for i = 0 to n - 1 do
    put "up" ctx.up_f.(i) i (if st.up.(i) then 1 else 0) 2;
    put "failed_mode" ctx.mode_f.(i) i st.failed_mode.(i) (Array.length ctx.modes.(i));
    put "stage" ctx.stage_f.(i) i st.stage.(i) (max_stages ctx.modes.(i))
  done;
  Array.iteri
    (fun u ru ->
      let name = ru.Repair.name in
      (* entry [i] of unit [u]'s list [what], after the entries [earlier] *)
      let member what earlier i =
        if i < 0 || i >= n then invalid "%s of unit %s holds component index %d" what name i;
        let c = ctx.comps.(i).Component.name in
        if ctx.ru_of.(i) <> u then
          invalid "%s of unit %s holds %s, which it does not repair" what name c;
        if st.up.(i) then invalid "%s of unit %s holds %s, which is up" what name c;
        if List.mem i earlier then invalid "%s of unit %s lists %s twice" what name c
      in
      if st.in_repair.(u) <> [] && (ctx.dedicated.(u) || ctx.preemptive.(u)) then
        invalid "in_repair of unit %s must be empty (%s unit)" name
          (if ctx.dedicated.(u) then "dedicated" else "preemptive");
      let waiting = List.length st.queue.(u) and slots = Array.length ctx.slot_f.(u) in
      if waiting > slots then
        invalid "queue of unit %s holds %d components; at most %d can wait" name waiting slots;
      if List.sort_uniq compare st.in_repair.(u) <> st.in_repair.(u) then
        invalid "in_repair of unit %s is not strictly ascending" name;
      ignore
        (List.fold_left
           (fun earlier i ->
             member "in_repair" earlier i;
             set code ctx.busy_f.(i) 1;
             i :: earlier)
           [] st.in_repair.(u));
      ignore
        (List.fold_left
           (fun earlier i ->
             member "queue" earlier i;
             set code ctx.slot_f.(u).(List.length earlier) (ctx.position.(i) + 1);
             i :: earlier)
           [] st.queue.(u)))
    ctx.rus;
  code

let queue_member ctx code u k =
  let v = get code ctx.slot_f.(u).(k) in
  if v = 0 then -1 else ctx.members.(u).(v - 1)

let queue_length ctx code u =
  let slots = ctx.slot_f.(u) and k = ref 0 in
  while !k < Array.length slots && get code slots.(!k) <> 0 do
    incr k
  done;
  !k

let decode ctx code =
  let n = component_count ctx in
  let in_repair u =
    List.filter (fun i -> ctx.ru_of.(i) = u && get code ctx.busy_f.(i) = 1) (List.init n Fun.id)
  in
  let queue u = List.init (queue_length ctx code u) (queue_member ctx code u) in
  {
    up = Array.init n (is_up ctx code);
    in_repair = Array.init (Array.length ctx.rus) in_repair;
    queue = Array.init (Array.length ctx.rus) queue;
    stage = Array.init n (fun i -> get code ctx.stage_f.(i));
    failed_mode = Array.init n (fun i -> get code ctx.mode_f.(i));
  }

(* ---- transitions ----------------------------------------------------------
   Scheduling follows {!Repair}. Queues are kept in canonical form: stably
   sorted by scheduling rank. Dispatch only ever takes the queue head
   (minimal rank, earliest arrival within its rank class), so two states
   whose queues differ only in the interleaving of different rank classes
   are bisimilar; canonicalizing at insertion collapses them and shrinks
   the state space by orders of magnitude on models with many rate
   classes. *)

let current_rank ctx code i = ctx.rank.(i).(get code ctx.mode_f.(i))

(* copy [len] queue slots from [src] to [dst], one slot away *)
let shift_slots ctx code u ~dst ~src ~len =
  let slots = ctx.slot_f.(u) in
  if dst < src then
    for k = 0 to len - 1 do
      set code slots.(dst + k) (get code slots.(src + k))
    done
  else
    for k = len - 1 downto 0 do
      set code slots.(dst + k) (get code slots.(src + k))
    done

(* drop slot [k] of a queue of length [len], closing the gap *)
let remove_slot ctx code u k len =
  shift_slots ctx code u ~dst:k ~src:(k + 1) ~len:(len - k - 1);
  set code ctx.slot_f.(u).(len - 1) 0

(* [f i k] for each component unit [u] is repairing, last first: the
   failed members of a dedicated unit, queue slots [k] up to the crew count
   of a preemptive unit, the in-repair components of a shared-crew unit by
   component index ([k] is only meaningful for preemptive units). [expand]
   emits repairs in this order, so it fixes the state numbering. *)
let iter_repairing ctx code u f =
  if ctx.dedicated.(u) then begin
    let ms = ctx.members.(u) in
    for k = Array.length ms - 1 downto 0 do
      if not (is_up ctx code ms.(k)) then f ms.(k) k
    done
  end
  else if ctx.preemptive.(u) then
    for k = min ctx.rus.(u).Repair.crews (queue_length ctx code u) - 1 downto 0 do
      f (queue_member ctx code u k) k
    done
  else
    for i = component_count ctx - 1 downto 0 do
      if ctx.ru_of.(i) = u && get code ctx.busy_f.(i) = 1 then f i 0
    done

(* busy crews of unit [u] *)
let busy ctx code u =
  let count = ref 0 in
  iter_repairing ctx code u (fun _ _ -> incr count);
  !count

(* An operational member of a spare unit is dormant when at least as many
   members before it (primaries first, then spares in order) are up as
   the unit has primaries. *)
let dormant ctx code i =
  let before = ctx.spare_before.(i) and ups = ref 0 in
  for k = 0 to Array.length before - 1 do
    if is_up ctx code before.(k) then incr ups
  done;
  !ups >= ctx.spare_needed.(i)

(* Per-expansion scratch: the successor being built, and per unit the
   source state's busy-crew count, queue length and the ranks of its
   queued components. *)
type scratch = { next : int array; busy : int array; len : int array; ranks : int array array }

(* insert [i] into unit [u]'s queue after every queued component of rank
   <= its own *)
let enqueue ctx code sc u i =
  let r = current_rank ctx code i and ranks = sc.ranks.(u) and len = sc.len.(u) in
  let k = ref 0 in
  while !k < len && ranks.(!k) <= r do
    incr k
  done;
  shift_slots ctx code u ~dst:(!k + 1) ~src:!k ~len:(len - !k);
  set code ctx.slot_f.(u).(!k) (ctx.position.(i) + 1)

let copy ctx code next =
  for k = 0 to ctx.words - 1 do
    Array.unsafe_set next k (Array.unsafe_get code k)
  done

(* Repairs are Erlang-[k] distributed: each of the [k] stages completes at
   rate [k / mttr]; the state tracks the completed-stage count, so an
   interrupted repair resumes where it stopped (preemptive-resume; for
   k = 1 this is the memoryless case). A preemptive unit repairs queue
   slot [k]. *)
let repair_step ctx code sc emit u i k =
  let next = sc.next and m = get code ctx.mode_f.(i) and stage = get code ctx.stage_f.(i) in
  copy ctx code next;
  if stage < ctx.modes.(i).(m).Component.fm_repair_stages - 1 then
    set next ctx.stage_f.(i) (stage + 1)
  else begin
    set next ctx.up_f.(i) 1;
    set next ctx.stage_f.(i) 0;
    set next ctx.mode_f.(i) 0;
    if ctx.dedicated.(u) then ()
    else if ctx.preemptive.(u) then remove_slot ctx next u k sc.len.(u)
    else begin
      (* the freed crew takes the queue head, as long as crews are free *)
      set next ctx.busy_f.(i) 0;
      let busy = ref (sc.busy.(u) - 1) and len = ref sc.len.(u) in
      while !busy < ctx.rus.(u).Repair.crews && !len > 0 do
        set next ctx.busy_f.(queue_member ctx next u 0) 1;
        remove_slot ctx next u 0 !len;
        incr busy;
        decr len
      done
    end
  end;
  emit next ctx.stage_rate.(i).(m)

let failure ctx code sc emit i m rates =
  let next = sc.next and u = ctx.ru_of.(i) in
  copy ctx code next;
  set next ctx.up_f.(i) 0;
  set next ctx.mode_f.(i) m;
  if u < 0 || ctx.dedicated.(u) then ()
  else if ctx.preemptive.(u) then enqueue ctx next sc u i
  else if sc.busy.(u) < ctx.rus.(u).Repair.crews then set next ctx.busy_f.(i) 1
  else enqueue ctx next sc u i;
  emit next rates.(m)

(* Transitions out of a state. The emission order fixes the state
   numbering (breadth-first, successors numbered as first emitted):
   repairs of the last unit first, each unit's repair list from its end
   (a shared-crew unit's list is ascending by component), then failures
   from the last component and its last mode. *)
let expand ctx =
  let nru = Array.length ctx.rus in
  let sc =
    {
      next = Array.make ctx.words 0;
      busy = Array.make nru 0;
      len = Array.make nru 0;
      ranks = Array.map (fun ms -> Array.make (Array.length ms) 0) ctx.members;
    }
  in
  fun code emit ->
    for u = 0 to nru - 1 do
      if not ctx.dedicated.(u) then begin
        sc.len.(u) <- queue_length ctx code u;
        for k = 0 to sc.len.(u) - 1 do
          sc.ranks.(u).(k) <- current_rank ctx code (queue_member ctx code u k)
        done;
        if not ctx.preemptive.(u) then sc.busy.(u) <- busy ctx code u
      end
    done;
    for u = nru - 1 downto 0 do
      iter_repairing ctx code u (repair_step ctx code sc emit u)
    done;
    (* a dormant cold spare fails at rate 0, which the explorer ignores *)
    for i = component_count ctx - 1 downto 0 do
      if is_up ctx code i then begin
        let rates = if dormant ctx code i then ctx.dormant_rate.(i) else ctx.fail_rate.(i) in
        for m = Array.length rates - 1 downto 0 do
          failure ctx code sc emit i m rates
        done
      end
    done

(* ---- building ------------------------------------------------------------ *)

type space = {
  ctx : ctx;
  explored : Explore.t;
  down : int -> bool;
  level : int -> float;
  costs : (Vec.t * Vec.t * Vec.t) Lazy.t; (* component, repair, total *)
  cost_lock : Mutex.t; (* a lazy value must not be forced by two domains at once *)
}

type built = {
  model : Model.t;
  chain : Chain.t;
  component_index : string -> int;
  state_index : state -> int option;
  space : space;
}

let all_up_state model =
  let n = List.length model.Model.components in
  let nru = List.length model.Model.repair_units in
  {
    up = Array.make n true;
    in_repair = Array.make nru [];
    queue = Array.make nru [];
    stage = Array.make n 0;
    failed_mode = Array.make n 0;
  }

let component_of ?(what = "unknown component") ctx name =
  match Hashtbl.find_opt ctx.index name with Some i -> i | None -> error "%s %s" what name

let mode_index ctx i mode_name =
  let rec position m =
    if m >= Array.length ctx.modes.(i) then
      error "unknown failure mode %s:%s" ctx.comps.(i).Component.name mode_name
    else if ctx.modes.(i).(m).Component.fm_name = mode_name then m
    else position (m + 1)
  in
  position 0

let disaster_state model ~failed =
  let ctx = make_ctx model in
  let state = all_up_state model in
  List.iter
    (fun literal ->
      let name, mode_name = Model.split_literal literal in
      let i = component_of ~what:"disaster_state: unknown component" ctx name in
      state.up.(i) <- false;
      state.failed_mode.(i) <-
        (match mode_name with
        | None -> 0
        | Some mn -> (
            try mode_index ctx i mn
            with Build_error _ -> error "disaster_state: %s has no failure mode %s" name mn)))
    failed;
  (* queue construction per unit: failed members ordered by (rank, model
     order); crews dispatched to the head *)
  let rank i = ctx.rank.(i).(state.failed_mode.(i)) in
  Array.iteri
    (fun u ru ->
      let failed_members =
        List.filter
          (fun i -> (not state.up.(i)) && ctx.ru_of.(i) = u)
          (List.init (component_count ctx) Fun.id)
      in
      let ordered = List.stable_sort (fun a b -> compare (rank a) (rank b)) failed_members in
      if ctx.dedicated.(u) then ()
      else if ctx.preemptive.(u) then state.queue.(u) <- ordered
      else begin
        let taken = List.filteri (fun k _ -> k < ru.Repair.crews) ordered in
        state.in_repair.(u) <- List.sort compare taken;
        state.queue.(u) <- List.filteri (fun k _ -> k >= ru.Repair.crews) ordered
      end)
    ctx.rus;
  state

(* a field of the stored code of state [s] *)
let stored (codes : Explore.codes) w s f =
  (Bigarray.Array1.unsafe_get codes ((s * w) + f.word) lsr f.shift) land f.mask

(* fault-tree literal evaluation over state indices: "c" is true when the
   component is failed in any mode; "c:m" when it is failed in that
   specific mode *)
let literal_at ctx explored literal =
  let name, mode_name = Model.split_literal literal in
  let i = component_of ctx name in
  let codes = Explore.codes explored and w = ctx.words and up = ctx.up_f.(i) in
  match mode_name with
  | None -> fun s -> stored codes w s up = 0
  | Some mn ->
      let m = mode_index ctx i mn and mode = ctx.mode_f.(i) in
      fun s -> stored codes w s up = 0 && stored codes w s mode = m

(* The paper's cost model per state: component costs (failed / operational
   rates) and, per repair unit, busy crews times busy cost plus idle crews
   times idle cost. *)
let cost_vectors ctx explored =
  let n = Explore.states explored in
  let comp_cost = Vec.zeros n and ru_cost = Vec.zeros n in
  for s = 0 to n - 1 do
    let code = Explore.code explored s in
    for i = 0 to Array.length ctx.comps - 1 do
      comp_cost.(s) <-
        (comp_cost.(s)
        +.
        if is_up ctx code i then ctx.comps.(i).Component.operational_cost
        else ctx.modes.(i).(get code ctx.mode_f.(i)).Component.fm_failed_cost)
    done;
    Array.iteri
      (fun u ru ->
        let busy = busy ctx code u in
        let idle = Repair.crew_count ru - busy in
        ru_cost.(s) <-
          ru_cost.(s)
          +. (float_of_int busy *. ru.Repair.busy_cost)
          +. (float_of_int idle *. ru.Repair.idle_cost))
      ctx.rus
  done;
  (comp_cost, ru_cost, Vec.add comp_cost ru_cost)

let build ?(max_states = 5_000_000) ?initial model =
  let ctx = make_ctx model in
  let initial = match initial with Some s -> s | None -> all_up_state model in
  let explored =
    try
      Explore.run ~words:ctx.words ~max_states ~initial:(encode ctx initial)
        ~expand:(expand ctx)
    with Explore.State_limit limit -> error "state space exceeds max_states = %d" limit
  in
  let n = Explore.states explored in
  let literal = literal_at ctx explored in
  let level =
    Fault_tree.compile_quantitative (Model.service_tree model) (fun lit ->
        let failed = literal lit in
        fun s -> if failed s then 0. else 1.)
  in
  {
    model;
    chain = Chain.make ~init:(Vec.unit n 0) (Explore.rates explored);
    space =
      {
        ctx;
        explored;
        down = Fault_tree.compile model.Model.fault_tree literal;
        level;
        costs = lazy (cost_vectors ctx explored);
        cost_lock = Mutex.create ();
      };
    component_index = component_of ctx;
    state_index =
      (fun st ->
        match encode ctx st with
        | code -> Explore.find explored code
        | exception Build_error _ -> None);
  }

(* ---- per-state observations ---------------------------------------------- *)

let state built s = decode built.space.ctx (Explore.code built.space.explored s)

let component_up built s name =
  let ctx = built.space.ctx in
  stored (Explore.codes built.space.explored) ctx.words s ctx.up_f.(built.component_index name)
  = 1

let literal_pred built literal = literal_at built.space.ctx built.space.explored literal

let down_pred built = built.space.down

let operational_pred built =
  let down = built.space.down in
  fun s -> not (down s)

let service_level built = built.space.level

let service_at_least built x =
  let level = built.space.level in
  fun s -> level s >= x -. 1e-9

let under_repair built s =
  let ctx = built.space.ctx and code = Explore.code built.space.explored s in
  let acc = ref [] in
  for u = Array.length ctx.rus - 1 downto 0 do
    iter_repairing ctx code u (fun i _ -> acc := i :: !acc)
  done;
  !acc

let costs built = Mutex.protect built.space.cost_lock (fun () -> Lazy.force built.space.costs)

let cost_structures built =
  let comp, ru, _ = costs built in
  (comp, ru)

let cost_structure built =
  let _, _, total = costs built in
  total
