(* The drop-stable SCC refinement behind every verdict (Def. 2.4): the
   Emerson-Lei fixpoint "drop the edges whose drops nothing cleans, split
   into SCCs, repeat" and the witness walk of the first component that
   meets the criterion.  See fair.mli for the contract. *)

open Engine
module CS = Channel.Set

type arc = int * Explore.edge

type ctx = {
  local : int array;
      (* global state -> its index within the arc set being numbered, -1
         outside it.  Allocated once per analysis; [number] sets and
         [release] resets only the touched entries, so each SCC costs its
         own size, not the graph's. *)
  tracked : Channel.id list;
  differs : int -> int -> bool;
  stuck_ok : int -> bool;
}

let dst_of ((_, e) : arc) = e.Explore.dst
let label_of ((_, e) : arc) = e.Explore.label

(* Number the states touched by [arcs] 0..k-1; returns them in that order. *)
let number ctx arcs =
  let nodes = ref [] and k = ref 0 in
  let visit v =
    if ctx.local.(v) < 0 then begin
      ctx.local.(v) <- !k;
      incr k;
      nodes := v :: !nodes
    end
  in
  Array.iter (fun ((src, _) as a) -> visit src; visit (dst_of a)) arcs;
  Array.of_list (List.rev !nodes)

let release ctx nodes = Array.iter (fun v -> ctx.local.(v) <- -1) nodes

let union f arcs =
  Array.fold_left
    (fun acc a -> List.fold_left (fun acc c -> CS.add c acc) acc (f (label_of a)))
    CS.empty arcs

(* The components of [arcs] that have an internal arc, as arrays of their
   internal arcs, in Tarjan (reverse topological) order. *)
let split ctx arcs =
  if Array.length arcs = 0 then []
  else begin
    let nodes = number ctx arcs in
    let idx v = ctx.local.(v) in
    let adj = Array.make (Array.length nodes) [] in
    Array.iter (fun ((src, _) as a) -> adj.(idx src) <- idx (dst_of a) :: adj.(idx src)) arcs;
    let comp, n_comps = Scc.tarjan (Array.length nodes) (Array.get adj) in
    let comp_of ((src, _) as a) =
      let c = comp.(idx src) in
      if c = comp.(idx (dst_of a)) then c else -1
    in
    let buckets = Array.make n_comps [] in
    for i = Array.length arcs - 1 downto 0 do
      let c = comp_of arcs.(i) in
      if c >= 0 then buckets.(c) <- arcs.(i) :: buckets.(c)
    done;
    release ctx nodes;
    List.filter_map
      (function [] -> None | b -> Some (Array.of_list b))
      (Array.to_list buckets)
  end

(* The states of one SCC's internal arcs (each has an internal out-arc),
   ascending. *)
let states ctx arcs =
  let nodes = number ctx arcs in
  release ctx nodes;
  Array.sort compare nodes;
  nodes

(* The criterion on an SCC: it reads every tracked channel, and either two
   of its states differ or all of them may be stuck.  Both halves only
   weaken on a sub-edge-set, so a component that fails holds no fair
   cycle and is not refined further. *)
let promising ctx arcs =
  let reads = union (fun l -> l.Enumerate.reads) arcs in
  List.for_all (fun c -> CS.mem c reads) ctx.tracked
  &&
  let st = states ctx arcs in
  Array.exists (ctx.differs st.(0)) st || Array.for_all ctx.stuck_ok st

(* The witness of a drop-stable SCC that meets the criterion: a closed walk
   from its least state, assembled from loops through that state — one
   that changes the observation (or, for a stuck cycle, any loop), one per
   tracked channel the walk does not read yet, and one per channel it drops
   on but does not clean yet.  Every loop is a shortest path out along the
   forward BFS tree of the start, the required arc, and a shortest path
   back along the backward tree. *)
let cycle ctx arcs =
  let st = states ctx arcs in
  let start = st.(0) in
  let nodes = number ctx arcs in
  let k = Array.length nodes in
  let idx v = ctx.local.(v) in
  let out = Array.make k [] and into = Array.make k [] in
  Array.iteri
    (fun i ((src, _) as a) ->
      out.(idx src) <- i :: out.(idx src);
      into.(idx (dst_of a)) <- i :: into.(idx (dst_of a)))
    arcs;
  (* [via.(v)]: the arc that first reached local state [v] from the start. *)
  let bfs adj next =
    let via = Array.make k (-1) and seen = Array.make k false in
    let q = Queue.create () in
    seen.(idx start) <- true;
    Queue.add (idx start) q;
    while not (Queue.is_empty q) do
      List.iter
        (fun i ->
          let w = next arcs.(i) in
          if not seen.(w) then begin
            seen.(w) <- true;
            via.(w) <- i;
            Queue.add w q
          end)
        adj.(Queue.pop q)
    done;
    via
  in
  let fwd = bfs out (fun a -> idx (dst_of a)) in
  let bwd = bfs into (fun (src, _) -> idx src) in
  let rec path_to v acc =
    if v = idx start then acc
    else
      let ((src, _) as a) = arcs.(fwd.(v)) in
      path_to (idx src) (a :: acc)
  in
  let rec path_from v acc =
    if v = idx start then List.rev acc
    else
      let a = arcs.(bwd.(v)) in
      path_from (idx (dst_of a)) (a :: acc)
  in
  let loops = ref [] in
  let reads = ref CS.empty and drops = ref CS.empty and cleans = ref CS.empty in
  let add_all s l = s := List.fold_left (fun s c -> CS.add c s) !s l in
  let add loop =
    loops := loop :: !loops;
    List.iter
      (fun a ->
        let l = label_of a in
        add_all reads l.Enumerate.reads;
        add_all drops l.Enumerate.drops;
        add_all cleans l.Enumerate.cleans)
      loop
  in
  let loop_via ((src, _) as a) = path_to (idx src) (a :: path_from (idx (dst_of a)) []) in
  (* The criterion guarantees every arc searched for below exists. *)
  let first p = Option.get (Array.find_opt p arcs) in
  (match Array.find_opt (ctx.differs start) st with
  | Some other -> add (path_to (idx other) (path_from (idx other) []))
  | None -> add (loop_via (first (fun (src, _) -> src = start))));
  List.iter
    (fun c ->
      if not (CS.mem c !reads) then
        add (loop_via (first (fun a -> List.mem c (label_of a).Enumerate.reads))))
    ctx.tracked;
  let rec clean () =
    match CS.min_elt_opt (CS.diff !drops !cleans) with
    | None -> ()
    | Some c ->
      add (loop_via (first (fun a -> List.mem c (label_of a).Enumerate.cleans)));
      clean ()
  in
  clean ();
  release ctx nodes;
  ( start,
    List.concat_map
      (List.map (fun a -> (label_of a).Enumerate.entry))
      (List.rev !loops) )

(* Refine one SCC: keep the arcs whose drops the SCC cleans; if all stay,
   it is drop-stable and yields the witness, else re-split and recurse. *)
let rec search ctx arcs =
  if not (promising ctx arcs) then None
  else begin
    let cleans = union (fun l -> l.Enumerate.cleans) arcs in
    let kept =
      Array.of_seq
        (Seq.filter
           (fun a -> List.for_all (fun c -> CS.mem c cleans) (label_of a).Enumerate.drops)
           (Array.to_seq arcs))
    in
    if Array.length kept = Array.length arcs then Some (cycle ctx arcs)
    else List.find_map (search ctx) (split ctx kept)
  end

let find ~tracked ~differs ~stuck_ok adjacency =
  let ctx =
    { local = Array.make (Array.length adjacency) (-1); tracked; differs; stuck_ok }
  in
  let arcs =
    Array.of_list
      (List.concat
         (List.mapi (fun i es -> List.map (fun e -> (i, e)) es) (Array.to_list adjacency)))
  in
  List.find_map (search ctx) (split ctx arcs)

let prefix adjacency target =
  let n = Array.length adjacency in
  let prev = Array.make n None and seen = Array.make n false in
  let q = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 q;
  while (not seen.(target)) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Explore.edge) ->
        if not seen.(e.Explore.dst) then begin
          seen.(e.Explore.dst) <- true;
          prev.(e.Explore.dst) <- Some (v, e.Explore.label.Enumerate.entry);
          Queue.add e.Explore.dst q
        end)
      adjacency.(v)
  done;
  let rec build acc v =
    match prev.(v) with None -> acc | Some (u, entry) -> build (entry :: acc) u
  in
  if seen.(target) then Some (build [] target) else None
