(** The fair-cycle analysis behind every verdict (Def. 2.4).

    A bounded state graph holds a fair nonconvergent execution iff some
    strongly connected set of its edges (a) reads every tracked channel,
    (b) drops only on channels it also reads cleanly, and (c) either
    passes through two states that [differs] tells apart or consists of
    states that are all [stuck_ok].  {!find} decides this by the
    Emerson–Lei refinement: split into SCCs, drop the edges whose drops no
    edge of their SCC cleans, re-split, until every remaining SCC is
    drop-stable; an SCC that fails (a) or (c) is discarded at once, since
    its sub-edge-sets only read less and visit fewer states.  Each SCC is
    worked on in indices local to it, so the whole analysis costs
    O((V + E) · refinement depth).

    The callers are {!Oscillation} ([differs] = the path assignment
    changes, [stuck_ok] never), {!Gexplore} ([differs] = some node's
    observable changes, [stuck_ok] = no converged state is reachable) and
    {!Refute} (a fair continuation with a constant assignment:
    [differs] never, [stuck_ok] always). *)

val find :
  tracked:Engine.Channel.id list ->
  differs:(int -> int -> bool) ->
  stuck_ok:(int -> bool) ->
  Explore.edge list array ->
  (int * Engine.Activation.t list) option
(** [find ~tracked ~differs ~stuck_ok candidates] searches the edges
    [candidates.(i)] out of each state [i] and returns the least state of
    the first fair SCC found with a closed walk from it: a non-empty
    sequence of the SCC's edge entries that meets (a)–(c) itself.
    [differs a b] must mean that some observation of [a] and [b] differ
    (so it is symmetric, and one state differing from another is as good
    as any differing pair); [stuck_ok] must be constant on every SCC of
    [candidates]. *)

val prefix : Explore.edge list array -> int -> Engine.Activation.t list option
(** [prefix adjacency s]: the entries of a shortest path from state 0 to
    [s], by breadth-first search; [None] if [s] is unreachable. *)
