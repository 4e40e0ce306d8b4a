module A1 = Bigarray.Array1

type index_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t
type value_array = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Unboxed CSR: int32 row pointers / column indices, float64 values. The
   kernels below read these directly; everything else goes through the
   bounds-checked accessors. *)
type t = {
  rows : int;
  cols : int;
  row_ptr : index_array; (* length rows+1 *)
  col_idx : index_array; (* length nnz, sorted within each row *)
  values : value_array; (* length nnz *)
}

let idx (a : index_array) p = Int32.to_int (A1.unsafe_get a p)

module Builder = struct
  type matrix = t

  type t = {
    b_rows : int;
    b_cols : int;
    mutable entries : (int * int * float) list;
    mutable count : int;
  }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then invalid_arg "Sparse.Builder.create";
    { b_rows = rows; b_cols = cols; entries = []; count = 0 }

  let add b i j x =
    if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then
      invalid_arg
        (Printf.sprintf "Sparse.Builder.add: (%d,%d) out of %dx%d" i j
           b.b_rows b.b_cols);
    b.entries <- (i, j, x) :: b.entries;
    b.count <- b.count + 1

  (* Finalization: counting sort by row, then sort each row by column and
     merge duplicates. *)
  let to_csr b : matrix =
    let rows = b.b_rows and cols = b.b_cols in
    let n = b.count in
    let ri = Array.make n 0 and ci = Array.make n 0 and vs = Array.make n 0. in
    let k = ref (n - 1) in
    List.iter
      (fun (i, j, x) ->
        ri.(!k) <- i;
        ci.(!k) <- j;
        vs.(!k) <- x;
        decr k)
      b.entries;
    (* bucket by row *)
    let counts = Array.make (rows + 1) 0 in
    for p = 0 to n - 1 do
      counts.(ri.(p) + 1) <- counts.(ri.(p) + 1) + 1
    done;
    for r = 1 to rows do
      counts.(r) <- counts.(r) + counts.(r - 1)
    done;
    let order = Array.make n 0 in
    let next = Array.copy counts in
    for p = 0 to n - 1 do
      let r = ri.(p) in
      order.(next.(r)) <- p;
      next.(r) <- next.(r) + 1
    done;
    (* per row: sort indices by column, merge duplicates, drop exact zeros *)
    let row_ends = Array.make (rows + 1) 0 in
    let out_cols = ref [] and out_vals = ref [] in
    let total = ref 0 in
    for r = 0 to rows - 1 do
      row_ends.(r) <- !total;
      let lo = counts.(r) and hi = counts.(r + 1) in
      let row_entries =
        Array.init (hi - lo) (fun q ->
            let p = order.(lo + q) in
            (ci.(p), vs.(p)))
      in
      Array.sort (fun (c1, _) (c2, _) -> compare c1 c2) row_entries;
      let m = Array.length row_entries in
      let q = ref 0 in
      while !q < m do
        let c, _ = row_entries.(!q) in
        let acc = ref 0. in
        while !q < m && fst row_entries.(!q) = c do
          acc := !acc +. snd row_entries.(!q);
          incr q
        done;
        if !acc <> 0. then begin
          out_cols := c :: !out_cols;
          out_vals := !acc :: !out_vals;
          incr total
        end
      done
    done;
    row_ends.(rows) <- !total;
    let nnz = !total in
    let row_ptr = A1.create Bigarray.int32 Bigarray.c_layout (rows + 1) in
    for r = 0 to rows do
      A1.unsafe_set row_ptr r (Int32.of_int row_ends.(r))
    done;
    let col_idx = A1.create Bigarray.int32 Bigarray.c_layout nnz in
    let values = A1.create Bigarray.float64 Bigarray.c_layout nnz in
    let k = ref (nnz - 1) in
    List.iter2
      (fun c v ->
        A1.unsafe_set col_idx !k (Int32.of_int c);
        A1.unsafe_set values !k v;
        decr k)
      !out_cols !out_vals;
    { rows; cols; row_ptr; col_idx; values }
end

let of_csr ~rows ~cols ~row_ptr ~col_idx ~values =
  let fail fmt = Printf.ksprintf invalid_arg ("Sparse.of_csr: " ^^ fmt) in
  if rows < 0 || cols < 0 then fail "negative dimension %dx%d" rows cols;
  if A1.dim row_ptr <> rows + 1 then
    fail "row_ptr has length %d, expected %d" (A1.dim row_ptr) (rows + 1);
  if idx row_ptr 0 <> 0 then fail "row_ptr does not start at 0";
  let nnz = idx row_ptr rows in
  if A1.dim col_idx <> nnz || A1.dim values <> nnz then
    fail "row_ptr ends at %d but col_idx has %d and values %d entries" nnz
      (A1.dim col_idx) (A1.dim values);
  for i = 0 to rows - 1 do
    let lo = idx row_ptr i and hi = idx row_ptr (i + 1) in
    if hi < lo then fail "row_ptr decreases at row %d" i;
    for p = lo to hi - 1 do
      let j = idx col_idx p in
      if j < 0 || j >= cols then fail "column %d out of range in row %d" j i;
      if p > lo && j <= idx col_idx (p - 1) then
        fail "columns of row %d are not strictly increasing" i
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let of_triplets ~rows ~cols triplets =
  let b = Builder.create ~rows ~cols in
  List.iter (fun (i, j, x) -> Builder.add b i j x) triplets;
  Builder.to_csr b

let of_dense d =
  let rows = Array.length d in
  let cols = if rows = 0 then 0 else Array.length d.(0) in
  let b = Builder.create ~rows ~cols in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j x -> if x <> 0. then Builder.add b i j x) row)
    d;
  Builder.to_csr b

let rows m = m.rows

let cols m = m.cols

let nnz m = idx m.row_ptr m.rows

let row_ptr m = m.row_ptr

let col_idx m = m.col_idx

let to_dense m =
  let d = Array.make_matrix m.rows m.cols 0. in
  for i = 0 to m.rows - 1 do
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      d.(i).(idx m.col_idx p) <- A1.unsafe_get m.values p
    done
  done;
  d

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Sparse.get: out of bounds";
  let lo = ref (idx m.row_ptr i) and hi = ref (idx m.row_ptr (i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = idx m.col_idx mid in
    if c = j then begin
      result := A1.unsafe_get m.values mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let iter_row m i f =
  if i < 0 || i >= m.rows then
    invalid_arg (Printf.sprintf "Sparse.iter_row: row %d out of %d" i m.rows);
  for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
    f (idx m.col_idx p) (A1.unsafe_get m.values p)
  done

let iteri m f =
  for i = 0 to m.rows - 1 do
    iter_row m i (fun j x -> f i j x)
  done

let fold m ~init ~f =
  let acc = ref init in
  iteri m (fun i j x -> acc := f !acc i j x);
  !acc

let mul_vec_into m x y =
  if Vec.dim x <> m.cols || Vec.dim y <> m.rows then
    invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  for i = 0 to m.rows - 1 do
    let acc = ref 0. in
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      acc :=
        !acc +. (A1.unsafe_get m.values p *. Array.unsafe_get x (idx m.col_idx p))
    done;
    Array.unsafe_set y i !acc
  done

let mul_vec m x =
  let y = Vec.zeros m.rows in
  mul_vec_into m x y;
  y

let vec_mul_into x m y =
  if Vec.dim x <> m.rows || Vec.dim y <> m.cols then
    invalid_arg "Sparse.vec_mul_into: dimension mismatch";
  Vec.fill y 0.;
  for i = 0 to m.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0. then
      for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
        let j = idx m.col_idx p in
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. A1.unsafe_get m.values p))
      done
  done

let vec_mul x m =
  let y = Vec.zeros m.cols in
  vec_mul_into x m y;
  y

(* --- Multi-vector (blocked) kernels ------------------------------------ *)

let check_multi name _m x y =
  if Multivec.width x <> Multivec.width y then
    invalid_arg (Printf.sprintf "Sparse.%s: width mismatch" name);
  if Multivec.width x = 0 then
    invalid_arg (Printf.sprintf "Sparse.%s: empty block" name)

(* y <- m * x, one matrix pass serving all K columns: the K entries of
   state j are contiguous in the interleaved layout, so each decoded
   (value, column) pair feeds K fused multiply-adds from one cache line. *)
let mul_multi_into m x y =
  check_multi "mul_multi_into" m x y;
  if Multivec.dim x <> m.cols || Multivec.dim y <> m.rows then
    invalid_arg "Sparse.mul_multi_into: dimension mismatch";
  let k = Multivec.width x in
  let xd = Multivec.data x and yd = Multivec.data y in
  let acc = Array.make k 0. in
  for i = 0 to m.rows - 1 do
    Array.fill acc 0 k 0.;
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let v = A1.unsafe_get m.values p in
      let base = idx m.col_idx p * k in
      for c = 0 to k - 1 do
        Array.unsafe_set acc c
          (Array.unsafe_get acc c +. (v *. A1.unsafe_get xd (base + c)))
      done
    done;
    let yb = i * k in
    for c = 0 to k - 1 do
      A1.unsafe_set yd (yb + c) (Array.unsafe_get acc c)
    done
  done

(* y <- x^T * m column-wise (scatter form). Rows whose K entries are all
   zero are skipped — the blocked analogue of the [xi <> 0.] test in
   [vec_mul_into], which matters because distributions start as point
   masses. *)
let vec_mul_multi_into x m y =
  check_multi "vec_mul_multi_into" m x y;
  if Multivec.dim x <> m.rows || Multivec.dim y <> m.cols then
    invalid_arg "Sparse.vec_mul_multi_into: dimension mismatch";
  let k = Multivec.width x in
  let xd = Multivec.data x and yd = Multivec.data y in
  Multivec.fill y 0.;
  let row = Array.make k 0. in
  for i = 0 to m.rows - 1 do
    let xb = i * k in
    let nonzero = ref false in
    for c = 0 to k - 1 do
      let v = A1.unsafe_get xd (xb + c) in
      Array.unsafe_set row c v;
      if v <> 0. then nonzero := true
    done;
    if !nonzero then
      for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
        let v = A1.unsafe_get m.values p in
        let base = idx m.col_idx p * k in
        for c = 0 to k - 1 do
          A1.unsafe_set yd (base + c)
            (A1.unsafe_get yd (base + c) +. (Array.unsafe_get row c *. v))
        done
      done
  done

(* --- Solver sweep kernels ----------------------------------------------
   One relaxation sweep of [a x = b]; the iteration/convergence logic
   lives in {!Solver}, which validates [order] as a permutation before
   handing it down. *)

let gauss_seidel_sweep ?order m ~diag ~b ~x =
  let n = m.rows in
  let delta = ref 0. in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let acc = ref (Array.unsafe_get b i) in
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let j = idx m.col_idx p in
      if j <> i then
        acc := !acc -. (A1.unsafe_get m.values p *. Array.unsafe_get x j)
    done;
    let xi = !acc /. Array.unsafe_get diag i in
    let change = Float.abs (xi -. Array.unsafe_get x i) in
    if change > !delta then delta := change;
    Array.unsafe_set x i xi
  done;
  !delta

let gauss_seidel_sweep_multi ?order m ~diag ~b ~x ~deltas =
  let n = m.rows in
  let k = Multivec.width x in
  let bd = Multivec.data b and xd = Multivec.data x in
  Array.fill deltas 0 k 0.;
  let acc = Array.make k 0. in
  for s = 0 to n - 1 do
    let i = match order with None -> s | Some o -> o.(s) in
    let ib = i * k in
    for c = 0 to k - 1 do
      Array.unsafe_set acc c (A1.unsafe_get bd (ib + c))
    done;
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let j = idx m.col_idx p in
      if j <> i then begin
        let v = A1.unsafe_get m.values p in
        let jb = j * k in
        for c = 0 to k - 1 do
          Array.unsafe_set acc c
            (Array.unsafe_get acc c -. (v *. A1.unsafe_get xd (jb + c)))
        done
      end
    done;
    let di = Array.unsafe_get diag i in
    for c = 0 to k - 1 do
      let xi = Array.unsafe_get acc c /. di in
      let change = Float.abs (xi -. A1.unsafe_get xd (ib + c)) in
      if change > Array.unsafe_get deltas c then
        Array.unsafe_set deltas c change;
      A1.unsafe_set xd (ib + c) xi
    done
  done

(* ----------------------------------------------------------------------- *)

(* Two-pass counting sort: count the entries of each column, then scatter
   rows in ascending order, so every output row comes out sorted. Exact
   zeros are dropped, as {!Builder.to_csr} does. *)
let transpose m =
  let rows = m.cols and cols = m.rows in
  let counts = Array.make (rows + 1) 0 in
  for p = 0 to nnz m - 1 do
    if A1.unsafe_get m.values p <> 0. then begin
      let c = idx m.col_idx p + 1 in
      counts.(c) <- counts.(c) + 1
    end
  done;
  for r = 1 to rows do
    counts.(r) <- counts.(r) + counts.(r - 1)
  done;
  let total = counts.(rows) in
  let row_ptr = A1.create Bigarray.int32 Bigarray.c_layout (rows + 1) in
  Array.iteri (fun r c -> A1.unsafe_set row_ptr r (Int32.of_int c)) counts;
  let col_idx = A1.create Bigarray.int32 Bigarray.c_layout total in
  let values = A1.create Bigarray.float64 Bigarray.c_layout total in
  for i = 0 to m.rows - 1 do
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      let x = A1.unsafe_get m.values p in
      if x <> 0. then begin
        let j = idx m.col_idx p in
        let q = counts.(j) in
        A1.unsafe_set col_idx q (Int32.of_int i);
        A1.unsafe_set values q x;
        counts.(j) <- q + 1
      end
    done
  done;
  { rows; cols; row_ptr; col_idx; values }

let map f m =
  let n = nnz m in
  let values = A1.create Bigarray.float64 Bigarray.c_layout n in
  for p = 0 to n - 1 do
    A1.unsafe_set values p (f (A1.unsafe_get m.values p))
  done;
  { m with values }

let scale a m = map (fun x -> a *. x) m

let add_mat a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Sparse.add_mat: dimension mismatch";
  let bl = Builder.create ~rows:a.rows ~cols:a.cols in
  iteri a (fun i j x -> Builder.add bl i j x);
  iteri b (fun i j x -> Builder.add bl i j x);
  Builder.to_csr bl

let row_sums m =
  let v = Vec.zeros m.rows in
  for i = 0 to m.rows - 1 do
    for p = idx m.row_ptr i to idx m.row_ptr (i + 1) - 1 do
      v.(i) <- v.(i) +. A1.unsafe_get m.values p
    done
  done;
  v

let identity n =
  of_triplets ~rows:n ~cols:n (List.init n (fun i -> (i, i, 1.)))

let equal ?(eps = 0.) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       iteri a (fun i j x -> if Float.abs (x -. get b i j) > eps then ok := false);
       iteri b (fun i j x -> if Float.abs (x -. get a i j) > eps then ok := false);
       !ok
     end

let pp ppf m =
  Format.fprintf ppf "@[<v>sparse %dx%d (%d nnz)" m.rows m.cols (nnz m);
  iteri m (fun i j x -> Format.fprintf ppf "@,(%d,%d) = %g" i j x);
  Format.fprintf ppf "@]"
