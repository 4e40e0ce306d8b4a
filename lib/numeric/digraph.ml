module A1 = Bigarray.Array1

(* A read-only CSR view: the successors of [v] are [col_idx.{p}] for [p]
   in [row_ptr.{v}, row_ptr.{v + 1}). [of_sparse] shares a matrix's own
   arrays, so a session's graph costs no copy. *)
type t = {
  n : int;
  row_ptr : Sparse.index_array;
  col_idx : Sparse.index_array;
}

(* Monomorphic on purpose: at the concrete Bigarray type the read is a
   plain load; a polymorphic helper would go through the C accessor. *)
let get (a : Sparse.index_array) p = Int32.to_int (A1.unsafe_get a p)

let index_array len = A1.create Bigarray.int32 Bigarray.c_layout len

let of_sparse m =
  let n = Sparse.rows m in
  if Sparse.cols m <> n then invalid_arg "Digraph.of_sparse: matrix not square";
  { n; row_ptr = Sparse.row_ptr m; col_idx = Sparse.col_idx m }

(* Counting sort by source vertex; within a row the edges keep the order
   they were given in. [bucket.(v)] holds the running fill position of
   row [v] and ends as the start of row [v + 1]. *)
let counting_sort ~n ~edges ~count ~fill =
  let bucket = Array.make (n + 1) 0 in
  count (fun u -> bucket.(u + 1) <- bucket.(u + 1) + 1);
  for v = 1 to n do
    bucket.(v) <- bucket.(v) + bucket.(v - 1)
  done;
  let row_ptr = index_array (n + 1) in
  Array.iteri (fun v c -> A1.unsafe_set row_ptr v (Int32.of_int c)) bucket;
  let col_idx = index_array edges in
  fill (fun u v ->
      let q = bucket.(u) in
      A1.unsafe_set col_idx q (Int32.of_int v);
      bucket.(u) <- q + 1);
  { n; row_ptr; col_idx }

let of_edges ~n edges =
  if n < 0 then invalid_arg "Digraph.of_edges: negative vertex count";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.of_edges: vertex out of range")
    edges;
  counting_sort ~n ~edges:(List.length edges)
    ~count:(fun bump -> List.iter (fun (u, _) -> bump u) edges)
    ~fill:(fun put -> List.iter (fun (u, v) -> put u v) edges)

let edge_count g = get g.row_ptr g.n

let iter_successors g v f =
  if v < 0 || v >= g.n then invalid_arg "Digraph.iter_successors: vertex out of range";
  for p = get g.row_ptr v to get g.row_ptr (v + 1) - 1 do
    f (get g.col_idx p)
  done

let transpose g =
  let rp = g.row_ptr and ci = g.col_idx in
  counting_sort ~n:g.n ~edges:(edge_count g)
    ~count:(fun bump ->
      for p = 0 to edge_count g - 1 do
        bump (get ci p)
      done)
    ~fill:(fun put ->
      for u = 0 to g.n - 1 do
        for p = get rp u to get rp (u + 1) - 1 do
          put (get ci p) u
        done
      done)

(* Iterative Tarjan over flat arrays. [frame_v]/[frame_e] are the DFS
   frames: a vertex and the position of its next edge to take. Each row
   is walked from its end to its start (descending column order for a
   matrix): the component numbering, which SCC-ordered solves sweep by,
   depends on this order, and the tests pin it against a list-based
   oracle. A vertex is on the Tarjan stack exactly when it has an index
   but no component yet. *)
let sccs g =
  let n = g.n and rp = g.row_ptr and ci = g.col_idx in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_e = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 and count = ref 0 and members_rev = ref [] in
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    frame_v.(!fp) <- v;
    frame_e.(!fp) <- get rp (v + 1);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) and e = frame_e.(f) in
        if e > get rp v then begin
          frame_e.(f) <- e - 1;
          let w = get ci (e - 1) in
          if index.(w) < 0 then push w
          else if comp.(w) < 0 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          fp := f;
          if lowlink.(v) = index.(v) then begin
            (* v roots a component: pop it off the vertex stack *)
            let c = !count in
            let rec pop acc =
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- c;
              if w = v then w :: acc else pop (w :: acc)
            in
            members_rev := pop [] :: !members_rev;
            incr count
          end;
          if f > 0 then begin
            let u = frame_v.(f - 1) in
            if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
          end
        end
      done
    end
  done;
  (comp, Array.of_list (List.rev !members_rev))

let bottom_sccs g (comp, members) =
  let rp = g.row_ptr and ci = g.col_idx in
  let has_exit = Array.make (Array.length members) false in
  for u = 0 to g.n - 1 do
    let cu = comp.(u) in
    for p = get rp u to get rp (u + 1) - 1 do
      if comp.(get ci p) <> cu then has_exit.(cu) <- true
    done
  done;
  let out = ref [] in
  for c = Array.length members - 1 downto 0 do
    if not has_exit.(c) then out := members.(c) :: !out
  done;
  Array.of_list !out

(* Breadth-first search with an array queue; a vertex other than a seed
   is entered only when [within] (if given) holds for it. *)
let reachable ?within g seeds =
  let rp = g.row_ptr and ci = g.col_idx in
  let seen = Array.make g.n false in
  let queue = Array.make g.n 0 and tail = ref 0 in
  let enter v =
    seen.(v) <- true;
    queue.(!tail) <- v;
    incr tail
  in
  List.iter (fun s -> if not seen.(s) then enter s) seeds;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for p = get rp u to get rp (u + 1) - 1 do
      let v = get ci p in
      if not seen.(v) then
        match within with
        | Some w when not w.(v) -> ()
        | _ -> enter v
    done
  done;
  seen

let coreachable ?within g targets = reachable ?within (transpose g) targets
