(** Directed graphs over integer vertices [0 .. n-1], as read-only CSR
    views.

    A graph is a row-pointer and a column-index array: the successors of
    [v] are the entries of row [v]. {!of_sparse} shares a matrix's own
    arrays (no copy), so the transition graph of a chain costs nothing to
    form; {!of_edges} builds a view from an edge list by counting sort.

    Provides the graph algorithms stochastic model checking needs: strongly
    connected components (Tarjan, iterative over flat arrays — safe on
    state spaces with hundreds of thousands of vertices), bottom SCC
    identification, and forward / backward reachability. *)

type t

val of_sparse : Sparse.t -> t
(** Graph with an edge [(i, j)] for every stored entry [(i, j)] of a
    square matrix, sharing the matrix's index arrays. Row [i]'s
    successors are in ascending column order. Raises [Invalid_argument]
    when the matrix is not square. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] is the graph over [n] vertices with the given
    edges; each vertex's successors keep the order of [edges]. Parallel
    edges and self-loops are kept (they are harmless for the algorithms
    here). Raises [Invalid_argument] on a negative [n] or a vertex out of
    range. *)

val iter_successors : t -> int -> (int -> unit) -> unit
(** [iter_successors g v f] applies [f] to each successor of [v], in row
    order. *)

val transpose : t -> t
(** The reversed graph (counting sort; each row in ascending source
    order). *)

val sccs : t -> int array * int list array
(** [sccs g] is [(comp, members)]: [comp.(v)] is the SCC index of [v] and
    [members.(c)] lists the vertices of SCC [c]. SCC indices are a reverse
    topological order of the condensation: every edge between distinct SCCs
    [(c1, c2)] has [c1 > c2]. Roots are tried in ascending vertex order and
    each vertex's successors are taken from the end of its row to the start
    (for {!of_sparse}, descending column order), which fixes the numbering
    that SCC-ordered solves depend on. *)

val bottom_sccs : t -> int array * int list array -> int list array
(** [bottom_sccs g (sccs g)] is the SCCs with no edge leaving them (each as
    its member list), in ascending SCC index. For a CTMC these are the
    recurrent classes. Takes the {!sccs} result so a caller that already
    has it runs Tarjan once. *)

val reachable : ?within:bool array -> t -> int list -> bool array
(** [reachable g seeds] marks every vertex reachable from [seeds] (the seeds
    included). With [within], a path may only enter vertices [v] with
    [within.(v)] (seeds are always marked). *)

val coreachable : ?within:bool array -> t -> int list -> bool array
(** [coreachable g targets] marks every vertex from which some target is
    reachable (the targets included): {!reachable} over {!transpose}. With
    [within], only vertices [v] with [within.(v)] lead to a target; that
    is, paths may only leave [within] vertices. *)
