(** Breadth-first state-space exploration over packed states, emitting the
    rate matrix directly in CSR form.

    A caller describes its state space by a fixed width [words] and a
    successor function over [words]-int codes; the explorer owns the rest:

    - codes live back to back in one flat growable [int] Bigarray (state
      [s] at offset [s * words]), outside the OCaml heap;
    - codes are interned through an open-addressing hash table that stores
      state indices and compares the words in place;
    - state [i] is expanded when the scan reaches index [i], and its
      successors are numbered in the order they are first emitted, so the
      numbering is the breadth-first discovery order and row [i] is
      complete when it is emitted. The row goes through a small scratch
      buffer that drops self-loops, merges duplicate columns (summing in
      emission order) and drops zero sums, then is appended to the CSR
      arrays: no triplet list and no sort of the whole matrix.

    Both the Arcade semantics ([Core.Semantics]) and the PRISM builder use
    this one loop. *)

type t

exception State_limit of int
(** Raised (with the limit) when exploration would intern more than
    [max_states] states. *)

val run :
  words:int ->
  max_states:int ->
  initial:int array ->
  expand:(int array -> (int array -> float -> unit) -> unit) ->
  t
(** [run ~words ~max_states ~initial ~expand] explores from [initial]
    (state 0). [expand code emit] must call [emit code' rate] for every
    transition out of [code]; [code] is a private copy, and [code'] is read
    during the call only, so one scratch array can serve every successor.
    A transition with a zero rate is ignored (its target is not
    discovered). State indices are stored as int32, so a [max_states]
    above [Int32.max_int] counts as [Int32.max_int]. Raises
    [Invalid_argument] when [words < 0] or [initial] has the wrong
    length. *)

val states : t -> int

type codes = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val codes : t -> codes
(** The packed codes, state [s] at offset [s * words]. The array may be
    longer than [states * words]; treat it as read-only. *)

val code : t -> int -> int array
(** A fresh copy of the code of a state. Raises [Invalid_argument] on a
    bad index. *)

val find : t -> int array -> int option
(** The index of a code, if it was discovered. *)

val rates : t -> Numeric.Sparse.t
(** The [states x states] off-diagonal rate matrix, rows in index order. *)
