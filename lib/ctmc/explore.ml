module A1 = Bigarray.Array1
module Sparse = Numeric.Sparse

exception State_limit of int

type codes = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

let resized a len =
  let b = A1.create (A1.kind a) Bigarray.c_layout len in
  let keep = min len (A1.dim a) in
  A1.blit (A1.sub a 0 keep) (A1.sub b 0 keep);
  b

(* ---- intern table ------------------------------------------------------
   Codes live in [store] in index order. Open addressing with linear
   probing over a power-of-two array of state indices (-1 = empty), kept
   at most half full: a probe compares words in place, so no key is ever
   allocated. Both arrays live outside the OCaml heap, so the garbage
   collector never scans them. *)

type interner = {
  w : int;
  mutable n : int;
  mutable store : codes;
  mutable table : (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t;
}

let empty_table slots =
  let table = A1.create Bigarray.int32 Bigarray.c_layout slots in
  A1.fill table (-1l);
  table

let hash (code : int array) w =
  let h = ref w in
  for k = 0 to w - 1 do
    h := (!h * 0x2545F4914F6CDD1D) + Array.unsafe_get code k
  done;
  let h = !h lxor (!h lsr 31) in
  let h = h * 0x1B873593A5B4D1C7 in
  h lxor (h lsr 29)

let entry it s = Int32.to_int (A1.unsafe_get it.table s)

let rec same it off (code : int array) k =
  k = it.w
  || A1.unsafe_get it.store (off + k) = Array.unsafe_get code k && same it off code (k + 1)

(* the slot holding [code], or the empty slot where it belongs *)
let rec probe it code mask s =
  let e = entry it s in
  if e < 0 || same it (e * it.w) code 0 then s else probe it code mask ((s + 1) land mask)

let slot_of it code =
  let mask = A1.dim it.table - 1 in
  probe it code mask (hash code it.w land mask)

(* copy the stored code of state [s] into [code] *)
let load it s code =
  for k = 0 to it.w - 1 do
    Array.unsafe_set code k (A1.unsafe_get it.store ((s * it.w) + k))
  done

let intern it ~max_states code =
  let s = slot_of it code in
  let e = entry it s in
  if e >= 0 then e
  else begin
    let i = it.n in
    if i >= max_states then raise (State_limit max_states);
    if (i + 1) * it.w > A1.dim it.store then it.store <- resized it.store (2 * A1.dim it.store);
    for k = 0 to it.w - 1 do
      A1.unsafe_set it.store ((i * it.w) + k) (Array.unsafe_get code k)
    done;
    A1.unsafe_set it.table s (Int32.of_int i);
    it.n <- i + 1;
    if 2 * it.n > A1.dim it.table then begin
      (* rehash every stored code into a table twice the size *)
      it.table <- empty_table (2 * A1.dim it.table);
      let scratch = Array.make it.w 0 in
      for j = 0 to it.n - 1 do
        load it j scratch;
        A1.unsafe_set it.table (slot_of it scratch) (Int32.of_int j)
      done
    end;
    i
  end

(* ---- row emission ------------------------------------------------------
   The scratch row collects one state's transitions; [append_row] sorts it
   by column (insertion sort: rows are short, and stability keeps
   duplicate columns in emission order), merges duplicates, drops zero
   sums and appends the row to growable CSR arrays. *)

type csr = {
  mutable cols : int array; (* the scratch row *)
  mutable rates : float array;
  mutable len : int;
  mutable row_ptr : Sparse.index_array; (* the matrix so far *)
  mutable col_idx : Sparse.index_array;
  mutable values : Sparse.value_array;
  mutable nnz : int;
  mutable rows : int;
}

let push csr j rate =
  if csr.len = Array.length csr.cols then begin
    csr.cols <- Array.append csr.cols csr.cols;
    csr.rates <- Array.append csr.rates csr.rates
  end;
  csr.cols.(csr.len) <- j;
  csr.rates.(csr.len) <- rate;
  csr.len <- csr.len + 1

let append_row csr =
  let cols = csr.cols and rates = csr.rates and len = csr.len in
  for k = 1 to len - 1 do
    let j = cols.(k) and x = rates.(k) in
    let p = ref (k - 1) in
    while !p >= 0 && cols.(!p) > j do
      cols.(!p + 1) <- cols.(!p);
      rates.(!p + 1) <- rates.(!p);
      decr p
    done;
    cols.(!p + 1) <- j;
    rates.(!p + 1) <- x
  done;
  if csr.nnz + len > A1.dim csr.col_idx then begin
    let cap = max (2 * A1.dim csr.col_idx) (csr.nnz + len) in
    csr.col_idx <- resized csr.col_idx cap;
    csr.values <- resized csr.values cap
  end;
  let k = ref 0 in
  while !k < len do
    let j = cols.(!k) and sum = ref rates.(!k) in
    incr k;
    while !k < len && cols.(!k) = j do
      sum := !sum +. rates.(!k);
      incr k
    done;
    if !sum <> 0. then begin
      A1.unsafe_set csr.col_idx csr.nnz (Int32.of_int j);
      A1.unsafe_set csr.values csr.nnz !sum;
      csr.nnz <- csr.nnz + 1
    end
  done;
  csr.len <- 0;
  csr.rows <- csr.rows + 1;
  if csr.rows = A1.dim csr.row_ptr then csr.row_ptr <- resized csr.row_ptr (2 * csr.rows);
  A1.unsafe_set csr.row_ptr csr.rows (Int32.of_int csr.nnz)

type t = { it : interner; rates : Sparse.t }

let run ~words ~max_states ~initial ~expand =
  if words < 0 then invalid_arg "Explore.run: negative width";
  if Array.length initial <> words then
    invalid_arg "Explore.run: initial code has the wrong width";
  let max_states = min max_states (Int32.to_int Int32.max_int) in
  let store = A1.create Bigarray.int Bigarray.c_layout (1024 * max 1 words) in
  let it = { w = words; n = 0; store; table = empty_table 2048 } in
  ignore (intern it ~max_states initial);
  let index len = A1.create Bigarray.int32 Bigarray.c_layout len in
  let csr =
    {
      cols = Array.make 16 0;
      rates = Array.make 16 0.;
      len = 0;
      row_ptr = index 1024;
      col_idx = index 4096;
      values = A1.create Bigarray.float64 Bigarray.c_layout 4096;
      nnz = 0;
      rows = 0;
    }
  in
  A1.set csr.row_ptr 0 0l;
  let current = ref 0 and code = Array.make words 0 in
  let emit code rate =
    if rate <> 0. then begin
      let j = intern it ~max_states code in
      if j <> !current then push csr j rate
    end
  in
  while !current < it.n do
    load it !current code;
    expand code emit;
    append_row csr;
    incr current
  done;
  let n = it.n in
  (* views of the used prefixes: no copy, the slack stays allocated *)
  let rates =
    Sparse.of_csr ~rows:n ~cols:n ~row_ptr:(A1.sub csr.row_ptr 0 (n + 1))
      ~col_idx:(A1.sub csr.col_idx 0 csr.nnz) ~values:(A1.sub csr.values 0 csr.nnz)
  in
  { it; rates }

let states t = t.it.n

let codes t = t.it.store

let code t s =
  if s < 0 || s >= t.it.n then invalid_arg "Explore.code";
  let code = Array.make t.it.w 0 in
  load t.it s code;
  code

let find t code =
  if Array.length code <> t.it.w then None
  else
    let e = entry t.it (slot_of t.it code) in
    if e >= 0 then Some e else None

let rates t = t.rates
