(** Exact cardinalities of every connected subexpression of a query.

    This replaces the paper's [SELECT COUNT( * )] runs (Section 2.4).
    Instead of materializing intermediate results, the computation
    aggregates multiplicities. Every relation is first grouped, in one
    pass over its table, by all of its join columns. Each connected
    subset is then counted on its own:

    - its join-attribute equivalence classes come from the equality
      predicates inside the subset, and each member's groups are
      projected onto the columns those predicates mention. Groups with
      a NULL key are dropped (NULL joins nothing), and so are groups
      whose columns differ where the predicates put two columns of one
      relation into the same class;
    - a maximum spanning tree of the members (weights = shared classes)
      serves as the join tree; when it has the running-intersection
      property, a Yannakakis bottom-up pass sends each subtree's counts,
      keyed by the classes it shares with its parent, up to the root,
      whose weighted group sum is the exact result;
    - otherwise (a cyclic subset) the members are joined pairwise in a
      connected order, projecting after each step onto the classes the
      remaining members still reference.

    Two caches live for one {!compute} call and are shared by all its
    subsets: member projections by (relation, projected columns), and
    tree messages by a signature of their inputs (the projection, each
    child's key positions and message, the output key positions).
    Different subsets mostly recur on the same projections and subtrees,
    so most messages are computed once. A hit returns the very table a
    recomputation would build, so results are bit-identical to solving
    each subset from scratch; the price is that the cached tables stay
    live until {!compute} returns.

    Cost: one pass over each base table, plus per subset a pass over the
    root's projected groups and over the groups of every tree node whose
    message is not cached yet — bounded by the join-key domains, not by
    intermediate result sizes. *)

type t

val compute : Query.Query_graph.t -> t
(** Counts every connected subset eagerly. *)

val card : t -> Util.Bitset.t -> float
(** Exact cardinality of a connected subset. Raises [Invalid_argument]
    for subsets that are not connected in the query graph. *)

val base : t -> int -> float
(** Exact [|σ(R_i)|]. *)

val estimator : t -> Estimator.t
(** The oracle "estimator" used for cardinality injection of true
    values. *)

val subset_count : t -> int
(** Number of connected subsets whose cardinality was computed. *)
