(** Operational semantics: from an Arcade model to an explicit CTMC.

    The global state tracks, per component, whether it is operational, and,
    per repair unit, which components are under repair and which wait in
    the arrival queue. Failures never occur simultaneously (CTMC), matching
    the paper's prerequisite for the PRISM translation. Scheduling follows
    {!Repair}: a failed component goes straight to a free crew, otherwise
    it queues; on completion the strategy picks the most urgent waiting
    component (rate priority, ties FCFS). Dedicated units repair every
    failed component immediately. Preemptive units re-evaluate the assigned
    set after every event (preemptive-resume; memoryless repairs make this
    equal to preemptive-restart).

    Spare management units modulate failure rates: dormant spares fail at
    the dormancy-scaled rate (hot = full, warm = scaled, cold = never). *)

type state = {
  up : bool array;  (** per component, indexed like the model's list *)
  in_repair : int list array;
      (** per repair unit (model order), sorted component indices under
          repair; unused (always empty) for dedicated and preemptive units *)
  queue : int list array;
      (** per repair unit, waiting components in arrival order; for
          preemptive units this holds {e all} failed components *)
  stage : int array;
      (** per component, the number of completed Erlang repair stages (0
          unless the component's [repair_stages] exceeds 1 and its repair
          has progressed); an interrupted repair keeps its progress
          (preemptive-resume) *)
  failed_mode : int array;
      (** per component, the index of the active failure mode (0 = the
          primary mode; only meaningful while the component is down).
          Under FRF/FFF the mode's rates determine the scheduling
          priority. *)
}

type space
(** The explored state space: packed state codes, the intern table and
    the per-state observations compiled for this model. *)

type built = {
  model : Model.t;
  chain : Ctmc.Chain.t;
  component_index : string -> int;
  state_index : state -> int option;
      (** [None] for a state outside the explored space (including one that
          is not a valid state of the model) *)
  space : space;
}

exception Build_error of string

val all_up_state : Model.t -> state
(** The fully operational state (empty queues). *)

val disaster_state : Model.t -> failed:string list -> state
(** The paper's GOOD construction: the given components start failed; since
    the failure order is unknown, each unit's queue is ordered by the
    strategy's own component priority (ties: model declaration order), and
    crews are already dispatched to the most urgent components. Entries may
    be component names (["pump1"], primary mode) or mode references
    (["valve:leak"]). *)

val build : ?max_states:int -> ?initial:state -> Model.t -> built
(** Explore the reachable state space from [initial] (default
    {!all_up_state}) and build the CTMC (initial distribution: point mass
    on [initial]). [max_states] defaults to [5_000_000].

    States are explored by {!Ctmc.Explore} over a packed encoding (per
    component an up bit, failure-mode and Erlang-stage fields and, for
    units that share crews, an in-repair flag; per repair unit one queue
    slot per member that can wait). State 0 is [initial]; the others are
    numbered in breadth-first discovery order. Raises {!Build_error}
    naming the field when [initial] does not fit the model: wrong array
    lengths, a [failed_mode] or [stage] out of range, an [in_repair] /
    [queue] entry that is not a failed member of that unit or is listed
    twice, an [in_repair] list in a dedicated or preemptive unit, or a
    queue longer than the members that can wait (none in a dedicated
    unit, all members in a preemptive one, members minus crews
    otherwise). *)

val state : built -> int -> state
(** Decode the state with the given index. *)

(** {2 Per-state observations} *)

val component_up : built -> int -> string -> bool
(** [component_up b s name]: is the component operational in state [s]? *)

val literal_pred : built -> string -> int -> bool
(** Evaluate a fault-tree basic event (["c"] — failed in any mode — or
    ["c:mode"]) in a state. *)

val down_pred : built -> int -> bool
(** Fault-tree evaluation: true when the system is down in the state. *)

val operational_pred : built -> int -> bool
(** Negation of {!down_pred}. *)

val service_level : built -> int -> float
(** Quantitative service-tree evaluation in a state. *)

val service_at_least : built -> float -> int -> bool
(** [service_at_least b x]: predicate for the paper's [S_sl(x)] sets
    (service level >= x, with a 1e-9 tolerance). *)

val under_repair : built -> int -> int list
(** Component indices under repair in a state (across all units, including
    dedicated ones). *)

val cost_structure : built -> Ctmc.Rewards.structure
(** The paper's cost model per state: component costs (failed / operational
    rates) plus, per repair unit, idle crews times idle cost and busy crews
    times busy cost. Computed once per [built], together with
    {!cost_structures}, and shared by every caller: do not mutate it. *)

val cost_structures : built -> Ctmc.Rewards.structure * Ctmc.Rewards.structure
(** The component and repair parts of {!cost_structure}, whose sum it is;
    shared like it. *)

