(* The verdict benchmark: four workloads driven through the public functions
   of Service, Modelcheck, Bgp and Hunt, each output checked.

     vbench.exe --workload W --seed N --seconds S --trace 0|1
                [--verdicts K] [--out DIR]
     vbench.exe --record-bgp-digests     (prints bgp_digests.txt)
     vbench.exe --daemon SOCKET DIR CPU  (serve-mixed's daemon process)

   Workloads (NOTES.md says why each exists):
   - fig6-deep    cold in-process FIG6/R1A checks: explore, analyze, render
   - serve-mixed  a daemon process; a closed loop of cold BAD-GADGET checks
                  on one connection, an open loop of ping / warm check /
                  realize on a second
   - bgp-100k     1-shard fixpoints on a 100k-node hierarchy, one distinct
                  destination per fixpoint, in batches in forked children
   - hunt-sweep   the smoke-budget hunter over a fixed draw of 6-seed
                  periods, in two timed passes: the benchmark's
                  composition, then Search.check_candidate

   A run measures for at least --seconds, in whole units (a verdict, a
   cycle of cold models, a batch of fixpoints, a period of hunt seeds:
   --seconds/2 of them in each of the hunt's two passes), or for exactly
   --verdicts units when given.  Human-readable lines come first; the last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  The traced run also writes its
   spans as Chrome trace-event JSON under DIR/verdictbench-traces.  Exit
   code 0 when every output checked out, 1 when one did not, 2 on a bad
   command line.

   Time metrics are normalized by the speed probe (probe.exe, module
   [Probe] below) to a reference speed of the machine; the human-readable
   lines also give them raw. *)

module Json = Engine.Metrics.Json
module Explore = Modelcheck.Explore
module Osc = Modelcheck.Oscillation

let now = Unix.gettimeofday

(* CPU affinity (affinity.c).  A run pins its work, and the speed probe
   that normalizes it, to the last CPU it may use; serve-mixed's load
   generator moves to the first, so that it neither delays the daemon nor
   changes the order in which the daemon sees the two connections' lines. *)
external cpus : unit -> int array = "vbench_cpus"
external pin : int -> unit = "vbench_pin"

let usable = cpus ()
let work_cpu = usable.(Array.length usable - 1)
let load_cpu = usable.(0)

(* ------------------------------------------------------------------ *)
(* Command line. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  verdicts : int option;
  out : string;
}

let usage () =
  prerr_endline
    "usage: vbench.exe --workload fig6-deep|serve-mixed|bgp-100k|hunt-sweep \
     --seed N --seconds S --trace 0|1 [--verdicts K] [--out DIR]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        trace = false;
        verdicts = None;
        out = ".bench_build";
      }
  in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: s :: rest -> a := { !a with seed = int_of s }; go rest
    | "--seconds" :: s :: rest ->
      a := { !a with seconds = float_of_int (int_of s) }; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--verdicts" :: k :: rest -> a := { !a with verdicts = Some (int_of k) }; go rest
    | "--out" :: d :: rest -> a := { !a with out = d }; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.seconds < 1. || !a.seed < 0 then usage ();
  !a

(* ------------------------------------------------------------------ *)
(* Statistics and process facts. *)

let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = if xs = [] then 0. else sum xs /. float_of_int (List.length xs)

(* A size field of /proc/<pid>/status ("VmRSS:", "VmHWM:"), in MB. *)
let status_mb key pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let n = String.length key in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > n && String.sub l 0 n = key ->
        Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* Peak resident set of a process, in MB. *)
let peak_rss_mb = status_mb "VmHWM:"

(* Allocation and major collections between two [Gc.quick_stat]s. *)
type gc_delta = { alloc_mb : float; majors : int }

let gc_mark () = Gc.quick_stat ()

let gc_since (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    alloc_mb = (words g1 -. words g0) *. float_of_int (Sys.word_size / 8) /. 1e6;
    majors = g1.major_collections - g0.major_collections;
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let model name =
  match Engine.Model.of_string name with
  | Some m -> m
  | None -> invalid_arg ("unknown model " ^ name)

let resolve spec =
  match Service.Resolve.find spec with
  | Ok i -> i
  | Error e -> failwith (Service.Error.to_string e)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Spans.  Recorded in memory from the benchmark's own code, around calls
   into each layer's public functions; written out when the run ends.  A
   span is (name, id, parent id, request id, start, end); a layer's self
   time is its duration minus the part its child spans cover.  Off, a
   span is one branch on a ref. *)

module Trace = struct
  type span = {
    name : string;
    id : int;
    parent : int;
    req : int;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let spans : span list ref = ref []
  let stack = ref []
  let next_id = ref 0
  let req = ref 0

  let current () = match !stack with p :: _ -> p | [] -> 0

  (* A span timed elsewhere (a child process); its id. *)
  let add ~parent name t0 t1 =
    incr next_id;
    spans := { name; id = !next_id; parent; req = !req; t0; t1 } :: !spans;
    !next_id

  let span name f =
    if not !on then f ()
    else begin
      incr next_id;
      let id = !next_id and parent = current () and t0 = now () in
      stack := id :: !stack;
      let finish () =
        stack := List.tl !stack;
        spans := { name; id; parent; req = !req; t0; t1 = now () } :: !spans
      in
      match f () with
      | v -> finish (); v
      | exception e -> finish (); raise e
    end

  (* Self seconds and call count per span name. *)
  let self_times () =
    let covered = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace covered s.parent
            (s.t1 -. s.t0
            +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
      !spans;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self =
          s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)
        in
        let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (t +. self, n + 1))
      !spans;
    by_name

  (* Summed duration of the top-level spans. *)
  let roots_total () =
    List.fold_left
      (fun acc s -> if s.parent = 0 then acc +. (s.t1 -. s.t0) else acc)
      0. !spans

  let write path =
    let spans = List.rev !spans in
    let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
    let us t = Float.round ((t -. origin) *. 1e6) in
    let ev s =
      Json.Obj
        [
          ("name", Json.Str s.name);
          ("ph", Json.Str "X");
          ("ts", Json.Num (us s.t0));
          ("dur", Json.Num (us s.t1 -. us s.t0));
          ("pid", Json.Num 1.);
          ("tid", Json.Num 1.);
          ( "args",
            Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("parent", Json.Num (float_of_int s.parent));
                ("req", Json.Num (float_of_int s.req));
              ] );
        ]
    in
    let oc = open_out path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("traceEvents", Json.List (List.map ev spans));
              ("displayTimeUnit", Json.Str "ms");
            ]));
    output_char oc '\n';
    close_out oc
end

let span = Trace.span

(* ------------------------------------------------------------------ *)
(* What a workload hands back. *)

type report = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** every end-to-end metric, by name *)
  layer : (string * float) list;  (** per-layer metrics measured (traced run) *)
  counts : (string * int) list;  (** deterministic work counts *)
  lines : string list;  (** extra human-readable lines *)
}

let e2e_units =
  [
    ("verdicts_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let layer_units =
  [
    ("explore.busy_ms", "ms");
    ("explore.states", "count");
    ("explore.edges", "count");
    ("explore.states_per_s", "1/s");
    ("analyze.busy_ms", "ms");
    ("analyze.share", "ratio");
    ("replay.busy_ms", "ms");
    ("render.busy_ms", "ms");
    ("codec.busy_us", "us");
    ("store.get_ms", "ms");
    ("store.put_ms", "ms");
    ("store.hit_ratio", "ratio");
    ("server.wait_ms", "ms");
    ("generator.late_ms", "ms");
    ("topology.generate_ms", "ms");
    ("shard.busy_ms", "ms");
    ("shard.activations", "count");
    ("shard.messages", "count");
    ("shard.activations_per_s", "1/s");
    ("shard.arena_paths_per_dest", "count");
    ("shard.rss_growth_mb_per_dest", "MB");
    ("precheck.busy_ms", "ms");
    ("precheck.skip_ratio", "ratio");
    ("minimize.busy_ms", "ms");
    ("minimize.share", "ratio");
    ("gc.alloc_mb_per_verdict", "MB");
    ("gc.major_collections", "count");
    ("trace.residual_share", "ratio");
    ("trace.overhead_pct", "%");
    ("trace.spans", "count");
  ]

(* Failures: counted, and the first few described on stderr. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      if !failures <= 10 then prerr_endline ("verdictbench: check failed: " ^ m))
    fmt

(* The machine-speed probe.  This machine's CPUs alternate slow and fast
   phases of 1-10 s, in which memory-heavy work runs up to 1.4x slower, and
   the share of slow time drifts over minutes; raw times of runs a few
   minutes apart spread by up to 0.37 of their median.  probe.exe, started
   at the beginning of a run on the CPU the work is pinned to, runs a
   fixed allocating kernel every 0.25 s and records its CPU time.  The kernel is a separate process that links nothing of the
   repository, so a change to the program cannot change it, and it shares
   the program's CPU, so it sees the phases the program runs in.  Every
   time metric is divided by the machine's slowness over the interval it
   measures: the probe's mean kernel time there, over [reference]. *)
module Probe = struct
  (* CPU seconds of one kernel run in this machine's fast phases (2-core
     x86 container); it only scales the figures. *)
  let reference = 0.020

  (* Units shorter than this are normalized by the samples of a window of
     this length centred on them. *)
  let min_span = 3.

  let file = ref ""
  let pid = ref None

  (* Sample midpoints and kernel seconds, in time order; the time they were
     read. *)
  let samples = ref [||]
  let read_at = ref neg_infinity

  let start () =
    let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
    file := Filename.concat (Sys.getcwd ()) "probe.txt";
    pid := Some (Unix.create_process exe [| exe; !file |] Unix.stdin Unix.stderr Unix.stderr)

  let stop () =
    match !pid with
    | Some p ->
      pid := None;
      (try Unix.kill p Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p)
    | None -> ()

  let load () =
    let acc = ref [] in
    (match open_in !file with
    | exception Sys_error _ -> ()
    | ic ->
      (try
         while true do
           let line = input_line ic in
           (* The last line may be partly written. *)
           match Scanf.sscanf line "%f %f %f%!" (fun w0 w1 c -> ((w0 +. w1) /. 2., c)) with
           | s -> acc := s :: !acc
           | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
         done
       with End_of_file -> ());
      close_in ic);
    samples := Array.of_list (List.rev !acc);
    read_at := now ()

  (* The machine's slowness over [t0, t1]: the mean kernel time of the
     samples in that interval (widened to [min_span] around its middle),
     or of the 4 samples nearest its middle when it holds fewer, over
     [reference]. *)
  let slowness t0 t1 =
    let mid = (t0 +. t1) /. 2. in
    let lo, hi =
      if t1 -. t0 >= min_span then (t0, t1) else (mid -. (min_span /. 2.), mid +. (min_span /. 2.))
    in
    if hi > !read_at then load ();
    let inside = Array.to_list !samples |> List.filter (fun (m, _) -> m >= lo && m <= hi) in
    let used =
      if List.length inside >= 4 then inside
      else
        Array.to_list !samples
        |> List.sort (fun (a, _) (b, _) -> compare (Float.abs (a -. mid)) (Float.abs (b -. mid)))
        |> List.filteri (fun i _ -> i < 4)
    in
    if used = [] then failwith "the speed probe recorded no samples";
    mean (List.map snd used) /. reference

  (* A duration normalized to the reference speed. *)
  let time t0 t1 = (t1 -. t0) /. slowness t0 t1

  (* Mean kernel time over the whole run so far, in ms, and sample count. *)
  let summary () =
    load ();
    (1000. *. mean (Array.to_list (Array.map snd !samples)), Array.length !samples)
end

(* Normalized and raw durations of (start, end) intervals. *)
let normalized = List.map (fun (s, e) -> Probe.time s e)
let raw = List.map (fun (s, e) -> e -. s)

(* A full major collection between units, outside the timing, so every
   unit starts from a collected heap: its peak resident set is its own,
   not a matter of how much of the previous unit's garbage was left.
   Returns the seconds it took, which the window does not count. *)
let collect_heap () =
  let c = now () in
  Gc.full_major ();
  now () -. c

(* Set-up is timed [repeats] times in a run and [setup_s] is the median.
   The first set-up runs before the first timed verdict and its result is
   the one the run uses.  The others repeat the same work later in the run,
   at least [spacing] seconds apart, and their results are disposed of: the
   machine alternates slow and fast phases of 1-10 s, so set-ups done back
   to back all land in one phase, while spread ones sample several.  Like
   the first, a repeat starts from a collected heap. *)
module Setup = struct
  type 'a t = {
    work : int -> 'a;
    prepare : unit -> unit;  (** before a repeat, untimed *)
    dispose : 'a -> unit;
    spacing : float;
    mutable times : (float * float) list;  (** start and end of each set-up *)
    mutable last : float;  (** when the latest set-up ended *)
    mutable spent : float;  (** seconds in repeats, with their preparation, collection and disposal *)
  }

  (* Within a run the repeats differ by 10-40%, so the median of 5 still
     moved by up to 0.28 of itself between runs. *)
  let repeats = 9

  let timed t =
    let s = now () in
    let r = t.work (List.length t.times) in
    t.last <- now ();
    t.times <- (s, t.last) :: t.times;
    r

  let first ?(prepare = ignore) ?(dispose = ignore) ~spacing work =
    let t = { work; prepare; dispose; spacing; times = []; last = 0.; spent = 0. } in
    let r = timed t in
    (r, t)

  (* Another set-up if one is still to do and due ([force]: due now). *)
  let again ?(force = false) t =
    if List.length t.times < repeats && (force || now () -. t.last >= t.spacing)
    then begin
      let s = now () in
      t.prepare ();
      ignore (collect_heap ());
      t.dispose (timed t);
      t.spent <- t.spent +. (now () -. s)
    end

  (* Every raw set-up time of the run, in order, for the human-readable
     lines. *)
  let times = ref []

  (* The remaining set-ups, then the median of their normalized times. *)
  let finish t =
    while List.length t.times < repeats do
      again ~force:true t
    done;
    times := List.rev_map (fun (s, e) -> e -. s) t.times;
    median (List.map (fun (s, e) -> Probe.time s e) t.times)
end

(* The unit loop: keep going until [seconds] of window have passed (or
   exactly [verdicts] units when given).  [paused] is time inside the
   window that is not the window's: set-up repeats, heap collections. *)
let more ?(paused = 0.) (a : args) ~t0 ~done_ =
  match a.verdicts with
  | Some k -> done_ < k
  | None -> now () -. t0 -. paused < a.seconds

(* Per-layer figures from the spans: [per] normalizes a total. *)
let self_ms tbl name =
  match Hashtbl.find_opt tbl name with Some (t, _) -> t *. 1000. | None -> 0.

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some (_, n) -> n | None -> 0

let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if b = 0. then 0. else a /. b

(* Common to every traced run: the share of the top-level spans that no
   layer span covers, and the overhead of tracing against untraced units
   of the same run (median latency, traced over untraced). *)
let trace_common tbl ~traced ~untraced =
  [
    ( "trace.residual_share",
      ratio
        (self_ms tbl "request" +. self_ms tbl "verdict")
        (1000. *. Trace.roots_total ()) );
    ( "trace.overhead_pct",
      if traced = [] || untraced = [] then 0.
      else (median traced /. median untraced -. 1.) *. 100. );
    ("trace.spans", float_of_int (List.length !Trace.spans));
  ]

(* ------------------------------------------------------------------ *)
(* The check path shared by fig6-deep and serve-mixed's traced replay:
   Service.Query.compute_check's composition, one span per layer. *)

let query_config = Service.Protocol.default_query_config

let explore_config =
  {
    Explore.channel_bound = query_config.Service.Protocol.bound;
    max_states = query_config.Service.Protocol.max_states;
  }

let num i = Json.Num (float_of_int i)

let render inst m (graph : Explore.graph) verdict =
  let edges = Array.fold_left (fun n es -> n + List.length es) 0 graph.adjacency in
  let verdict_fields =
    match verdict with
    | Osc.Converges -> [ ("verdict", Json.Str "converges") ]
    | Osc.Unknown reason ->
      [ ("verdict", Json.Str "unknown"); ("reason", Json.Str reason) ]
    | Osc.Oscillates w ->
      let replays = span "replay" (fun () -> Osc.verify_witness inst m w) in
      [
        ("verdict", Json.Str "oscillates");
        ( "witness",
          Json.Obj
            [
              ("prefix", num (List.length w.prefix));
              ("cycle", num (List.length w.cycle));
              ("replays", Json.Bool replays);
            ] );
      ]
  in
  Json.Obj
    (verdict_fields
    @ [
        ("states", num (Array.length graph.states));
        ("edges", num edges);
        ("pruned", Json.Bool graph.pruned);
        ("truncated", Json.Bool graph.truncated);
      ])

(* One check: the result JSON. *)
let check inst m =
  let graph =
    span "explore" (fun () -> Explore.explore ~config:explore_config ~domains:1 inst m)
  in
  let verdict = span "analyze" (fun () -> Osc.analyze_graph inst graph) in
  span "render" (fun () -> render inst m graph verdict)

(* ------------------------------------------------------------------ *)
(* fig6-deep *)

let fig6_states = 7385

(* Verdict, states and edges of a rendered check result. *)
let result_fields line =
  match Json.parse line with
  | Ok j ->
    let verdict = match Json.member "verdict" j with Some (Json.Str v) -> v | _ -> "?" in
    let int_of k = match Json.member k j with Some (Json.Num f) -> int_of_float f | _ -> 0 in
    (verdict, int_of "states", int_of "edges")
  | Error _ -> ("?", 0, 0)

let fig6 (a : args) =
  let m = model "R1A" in
  let inst, setup =
    Setup.first ~spacing:(a.seconds /. float_of_int Setup.repeats) (fun _ ->
        let inst = resolve "FIG6" in
        (* Warm-up: one exploration, so the major heap has grown to its
           working size before the first timed verdict. *)
        let g = Explore.explore ~config:explore_config ~domains:1 inst m in
        if Array.length g.states <> fig6_states then
          fail "fig6 warm-up explored %d states" (Array.length g.states);
        inst)
  in
  (* An untraced verdict is Service.Query.compute_check itself; a traced
     one is [check], its composition with one span per layer.  Every
     result is compared byte for byte with the run's first compute_check
     result, so the traced copy cannot drift from the program. *)
  let compute_check () = Json.to_string (Service.Query.compute_check inst m query_config) in
  let reference = ref None and results = ref [] in
  let lat = ref [] and traced = ref [] and untraced = ref [] in
  let states = ref 0 and edges = ref 0 and n = ref 0 in
  let traced_states = ref 0 and alloc = ref 0. and majors = ref 0 in
  let collect = ref 0. in
  let t0 = now () in
  while more ~paused:(setup.spent +. !collect) a ~t0 ~done_:!n do
    Trace.on := a.trace && !n mod 2 = 0;
    incr Trace.req;
    collect := !collect +. collect_heap ();
    let g0 = gc_mark () and s = now () in
    let out =
      if !Trace.on then
        span "verdict" (fun () ->
            let result = check inst m in
            span "render" (fun () -> Json.to_string result))
      else compute_check ()
    in
    let dt = now () -. s in
    let gc = gc_since g0 in
    let verdict, st, ed = result_fields out in
    if !Trace.on then begin
      traced := dt :: !traced;
      traced_states := !traced_states + st;
      alloc := !alloc +. gc.alloc_mb;
      majors := !majors + gc.majors
    end
    else begin
      untraced := dt :: !untraced;
      if !reference = None then reference := Some out
    end;
    results := out :: !results;
    lat := (s, s +. dt) :: !lat;
    incr n;
    states := !states + st;
    edges := !edges + ed;
    if verdict <> "converges" || st <> fig6_states then
      fail "FIG6/R1A: %s with %d states" verdict st;
    Trace.on := false;
    Setup.again setup
  done;
  Trace.on := false;
  let t1 = now () in
  let elapsed = t1 -. t0 -. setup.spent -. !collect in
  let setup_s = Setup.finish setup in
  let reference =
    match !reference with Some r -> r | None -> compute_check ()
  in
  List.iter
    (fun out -> if out <> reference then fail "FIG6/R1A result differs from compute_check: %s" out)
    !results;
  let layer =
    if not a.trace then []
    else
      let tbl = Trace.self_times () in
      let nv = List.length !traced in
      let busy name = per nv (self_ms tbl name) in
      let explore_ms = self_ms tbl "explore" in
      [
        ("explore.busy_ms", busy "explore");
        ("explore.states", per nv (float_of_int !traced_states));
        ("explore.edges", per !n (float_of_int !edges));
        ("explore.states_per_s", ratio (float_of_int !traced_states) (explore_ms /. 1000.));
        ("analyze.busy_ms", busy "analyze");
        ("analyze.share", ratio (self_ms tbl "analyze") (1000. *. sum !traced));
        ("replay.busy_ms", busy "replay");
        ("render.busy_ms", busy "render");
        ("gc.alloc_mb_per_verdict", per nv !alloc);
        ("gc.major_collections", per nv (float_of_int !majors));
      ]
      @ trace_common tbl ~traced:!traced ~untraced:!untraced
  in
  {
    attempted = !n;
    failed = !failures;
    e2e =
      [
        ("verdicts_per_s", float_of_int !n /. elapsed *. Probe.slowness t0 t1);
        ("latency_p50_ms", 1000. *. median (normalized !lat));
        ("latency_p99_ms", 1000. *. percentile 0.99 (normalized !lat));
        ("peak_rss_mb", peak_rss_mb "self");
        ("setup_s", setup_s);
      ];
    layer;
    counts = [ ("verdicts", !n); ("states", !states); ("edges", !edges) ];
    lines =
      [
        Printf.sprintf "latency samples: %d" !n;
        Printf.sprintf "raw: verdicts_per_s %.4f  latency_p50_ms %.1f  latency_p99_ms %.1f"
          (float_of_int !n /. elapsed) (1000. *. median (raw !lat))
          (1000. *. percentile 0.99 (raw !lat));
      ];
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed *)

(* BAD-GADGET models whose cold check takes at most about 2 s; the other
   four (UMO, UMS, UES, UMF: 3.4 to 9.4 s) would make a cycle too long. *)
let cold_models =
  List.map model
    [
      "R1O"; "RMO"; "REO"; "R1S"; "RMS"; "RES"; "R1F"; "RMF"; "REF"; "R1A";
      "RMA"; "REA"; "U1O"; "UEO"; "U1S"; "U1F"; "UEF"; "U1A"; "UMA"; "UEA";
    ]

let cold_instance = "BAD-GADGET"

(* The entries primed during set-up, which the warm checks hit: every
   model of the two instances whose cold check is cheap, one store entry
   per (instance, model) key. *)
let warm_entries =
  List.concat_map
    (fun i -> List.map (fun m -> (i, m)) Engine.Model.all)
    [ "DISAGREE"; "GOOD-GADGET" ]

(* The interactive stream is synthetic: no recorded traffic exists.  Its
   mix is half ping (the probe of the daemon's head-of-line latency goal)
   and half the cheap requests of bench/serve_bench.ml's client mix in
   that mix's ratio, 3 warm checks to 1 realize.  Its rate sets the
   sample count rather than the latency: each request waits for the cold
   checks ahead of it, and NOTES.md gives the measurements. *)
let interactive_rate = 50.

(* A blocking-write, select-read line connection to the daemon. *)
type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; inbuf = Buffer.create 4096 }

let send c line =
  let rec go off =
    if off < String.length line then
      go (off + Unix.write_substring c.fd line off (String.length line - off))
  in
  go 0

(* Complete lines buffered so far. *)
let take_lines c =
  let data = Buffer.contents c.inbuf in
  let rec split acc start =
    match String.index_from_opt data start '\n' with
    | Some i -> split (String.sub data start (i - start) :: acc) (i + 1)
    | None ->
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf data start (String.length data - start);
      List.rev acc
  in
  split [] 0

let chunk = Bytes.create 65536

let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | k -> Buffer.add_subbytes c.inbuf chunk 0 k

let wait_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* One request, blocking for its response line. *)
let call c line =
  send c line;
  let deadline = now () +. 120. in
  let rec go () =
    match take_lines c with
    | l :: _ -> l
    | [] ->
      if now () > deadline then failwith "daemon did not answer";
      if wait_readable [ c.fd ] 1. <> [] then fill c;
      go ()
  in
  go ()

let request_line id req =
  Json.to_string (Service.Protocol.to_json { Service.Protocol.id = Json.Str id; req })
  ^ "\n"

let int_field name j =
  match Json.member name j with Some (Json.Num f) -> int_of_float f | _ -> 0

let check_req instance m ~fresh =
  Service.Protocol.Check { instance; model = m; config = query_config; fresh }

type daemon = { pid : int; a : conn; b : conn; dir : string }

(* The daemon process: Server.run with one worker.  [on_ready] writes one
   byte to standard output, a pipe to the benchmark, so readiness needs
   no polling; standard output then goes to /dev/null. *)
let daemon_main socket dir cpu =
  pin cpu;
  let code =
    match
      Service.Server.run
        ~on_ready:(fun () ->
          print_char 'r';
          flush stdout;
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          Unix.dup2 null Unix.stdout;
          Unix.close null)
        {
          Service.Server.socket;
          store = { Service.Store.dir; max_entries = Service.Store.default_max_entries };
          workers = 1;
        }
    with
    | Ok () -> 0
    | Error e -> Service.Error.exit_code e
    | exception _ -> 3
  in
  exit code

(* Start the daemon as a new process of this executable (--daemon), not a
   fork: its heap starts empty however large the benchmark's has grown,
   so every set-up starts the same daemon. *)
let start_daemon k =
  let dir = Printf.sprintf "store-%d" k and socket = Printf.sprintf "d%d.sock" k in
  rm_rf dir;
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--daemon"; socket; dir; string_of_int work_cpu |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ready =
    wait_readable [ r ] 60. <> []
    && Unix.read r (Bytes.create 1) 0 1 = 1
  in
  Unix.close r;
  if not ready then failwith "daemon did not become ready";
  { pid; a = connect socket; b = connect socket; dir }

let stop_daemon d =
  (try ignore (call d.a (request_line "stop" Service.Protocol.Shutdown))
   with _ -> ( try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  Unix.close d.a.fd;
  Unix.close d.b.fd;
  ignore (Unix.waitpid [] d.pid)

(* The interactive stream: what a request is, and what it must answer. *)
type ikind = Ping | Warm of string * Engine.Model.t | Realize of Engine.Model.t * Engine.Model.t

let ireq = function
  | Ping -> Service.Protocol.Ping
  | Warm (i, m) -> check_req i m ~fresh:false
  | Realize (source, target) -> Service.Protocol.Realize { source; target }

type sent = { id : string; kind : ikind; due : float; at : float }

let store_stats d =
  match Json.parse (call d.a (request_line "stats" Service.Protocol.Stats)) with
  | Ok j -> (
    let field k =
      match Option.bind (Json.member "result" j) (Json.member "store") with
      | Some s -> (
        match Json.member k s with Some (Json.Num f) -> f | _ -> 0.)
      | None -> 0.
    in
    (field "hits", field "misses"))
  | Error _ -> (0., 0.)

let serve (a : args) =
  pin load_cpu;
  let rng = Random.State.make [| a.seed; 0x5e7e |] in
  let primed = Hashtbl.create 32 in
  let live = ref None in
  at_exit (fun () ->
      match !live with
      | Some d -> ( try Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid) with _ -> ())
      | None -> ());
  (* Set-up: start the daemon, connect, prime the warm entries.  Its
     repeats run after the window, between the reference computes, each
     with a daemon of its own. *)
  let d, setup =
    Setup.first
      ~dispose:(fun d -> stop_daemon d; live := None)
      ~spacing:(a.seconds /. float_of_int (2 * Setup.repeats))
      (fun k ->
        let d = start_daemon k in
        live := Some d;
        List.iter
          (fun (i, m) ->
            let id = Printf.sprintf "prime-%s-%s" i (Engine.Model.to_string m) in
            let line = call d.b (request_line id (check_req i m ~fresh:false)) in
            match Option.bind (Result.to_option (Json.parse line)) (Json.member "result") with
            | Some r -> Hashtbl.replace primed (i, m) r
            | None -> fail "priming %s: %s" id line)
          warm_entries;
        d)
  in
  let hits0, misses0 = store_stats d in
  (* The measured window. *)
  let cold = ref [] (* (model, id, response line, rtt), newest first *) in
  let inter = ref [] (* (sent, response line, received) *) in
  let pending = Queue.create () in
  let queue = ref [] and cycles = ref 0 and in_flight = ref None in
  let a_done = ref false and next_i = ref 0 in
  let t0 = now () in
  let due i = t0 +. (float_of_int i /. interactive_rate) in
  let next_cold () =
    (match !queue with
    | [] ->
      let finished = List.length !cold in
      let stop =
        match a.verdicts with
        | Some k -> finished >= k
        | None -> finished > 0 && now () -. t0 >= a.seconds
      in
      if stop then a_done := true
      else begin
        if finished > 0 then incr cycles;
        queue := cold_models;
        (match a.verdicts with
        | Some k -> queue := List.filteri (fun i _ -> i < k - finished) !queue
        | None -> ())
      end
    | _ -> ());
    match !queue with
    | m :: rest when not !a_done ->
      queue := rest;
      let id = Printf.sprintf "a%d" (List.length !cold) in
      in_flight := Some (m, id, now ());
      send d.a (request_line id (check_req cold_instance m ~fresh:true))
    | _ -> ()
  in
  let last_progress = ref (now ()) in
  while not (!a_done && Queue.is_empty pending) do
    let t = now () in
    if not !a_done then
      while due !next_i <= t do
        let kind =
          match Random.State.int rng 8 with
          | 0 | 1 | 2 | 3 -> Ping
          | 4 | 5 | 6 ->
            let i, m = List.nth warm_entries (Random.State.int rng (List.length warm_entries)) in
            Warm (i, m)
          | _ ->
            Realize
              ( List.nth Engine.Model.all (Random.State.int rng 24),
                List.nth Engine.Model.all (Random.State.int rng 24) )
        in
        let id = Printf.sprintf "b%d" !next_i in
        let s = { id; kind; due = due !next_i; at = now () } in
        send d.b (request_line id (ireq kind));
        Queue.push s pending;
        incr next_i
      done;
    if !in_flight = None && not !a_done then next_cold ();
    let timeout =
      if !a_done then 1. else Float.max 0. (due !next_i -. now ())
    in
    let readable = wait_readable [ d.a.fd; d.b.fd ] timeout in
    if readable <> [] then last_progress := now ();
    if now () -. !last_progress > 60. then failwith "daemon stalled";
    if List.mem d.a.fd readable then begin
      fill d.a;
      List.iter
        (fun line ->
          match !in_flight with
          | Some (m, id, s) ->
            cold := (m, id, line, now () -. s) :: !cold;
            in_flight := None
          | None -> fail "unexpected line on the cold connection: %s" line)
        (take_lines d.a)
    end;
    if List.mem d.b.fd readable then begin
      fill d.b;
      List.iter
        (fun line ->
          match Queue.take_opt pending with
          | Some s -> inter := (s, line, now ()) :: !inter
          | None -> fail "unexpected line on the interactive connection: %s" line)
        (take_lines d.b)
    end
  done;
  let elapsed = now () -. t0 in
  let hits1, misses1 = store_stats d in
  let rss = peak_rss_mb (string_of_int d.pid) in
  stop_daemon d;
  live := None;
  (* Checks: every cold response byte-identical to the in-process
     reference, every witness replaying; every warm check cached and equal
     to its primed result; pings and realizations as computed in-process. *)
  let ref_store =
    match Service.Store.open_ { Service.Store.dir = "ref-store"; max_entries = 512 } with
    | Ok s -> s
    | Error e -> failwith (Service.Error.to_string e)
  in
  let q =
    match Service.Query.create ~store:ref_store ~workers:1 with
    | Ok q -> q
    | Error e -> failwith (Service.Error.to_string e)
  in
  let bad = resolve cold_instance in
  let reference = Hashtbl.create 32 and ref_times = ref [] in
  let compute_ref m =
    match Hashtbl.find_opt reference m with
    | Some r -> r
    | None ->
      let s = now () in
      let r = Service.Query.compute_check bad m query_config in
      ref_times := (now () -. s) :: !ref_times;
      Hashtbl.replace reference m r;
      r
  in
  (* The traced run replays the window's requests in-process, one span per
     layer: decode, store, explore, analyze, render (replay inside), encode. *)
  let layer =
    if not a.trace then []
    else begin
      let store =
        match Service.Store.open_ { Service.Store.dir = d.dir; max_entries = 512 } with
        | Ok s -> s
        | Error e -> failwith (Service.Error.to_string e)
      in
      let fp = Service.Query.check_fp query_config in
      let digest = Engine.Snapshot.fingerprint in
      Trace.on := true;
      let alloc = ref 0. and majors = ref 0 and compute = ref [] in
      let service = Hashtbl.create 8 in
      let replay_line id line =
        incr Trace.req;
        let s = now () in
        let out =
          span "request" (fun () ->
              match span "decode" (fun () -> Service.Protocol.of_line line) with
              | Error _ -> ""
              | Ok env -> (
                let ok ?cached r = span "encode" (fun () -> Service.Protocol.ok_line ~id:env.id ?cached r) in
                match env.req with
                | Service.Protocol.Ping -> ok (Json.Obj [ ("pong", Json.Bool true) ])
                | Service.Protocol.Check { instance; model = m; fresh = false; _ } -> (
                  let inst = span "resolve" (fun () -> resolve instance) in
                  match
                    span "store.get" (fun () ->
                        Service.Store.get store ~instance:(digest inst)
                          ~model:(Engine.Model.to_string m) ~config_fp:fp)
                  with
                  | Some r -> ok ~cached:true r
                  | None -> "")
                | Service.Protocol.Check { instance; model = m; fresh = true; _ } ->
                  let inst = span "resolve" (fun () -> resolve instance) in
                  let g0 = gc_mark () and c0 = now () in
                  let r =
                    span "verdict" (fun () -> check inst m)
                  in
                  compute := (now () -. c0) :: !compute;
                  let gc = gc_since g0 in
                  alloc := !alloc +. gc.alloc_mb;
                  majors := !majors + gc.majors;
                  ignore
                    (span "store.put" (fun () ->
                         Service.Store.put store ~instance:(digest inst)
                           ~model:(Engine.Model.to_string m) ~config_fp:fp r));
                  ok ~cached:false r
                | Service.Protocol.Realize { source; target } ->
                  ok (span "realize" (fun () -> Service.Query.realize q ~source ~target))
                | _ -> ""))
        in
        Hashtbl.replace service id (now () -. s);
        out
      in
      List.iteri
        (fun i m ->
          let id = Printf.sprintf "r%d" i in
          let line = request_line id (check_req cold_instance m ~fresh:true) in
          (* The untraced reference right before its traced replay, so both
             run in the same phase of the machine. *)
          ignore (compute_ref m);
          if replay_line id line
             <> Service.Protocol.ok_line ~id:(Json.Str id) ~cached:false (compute_ref m)
          then fail "traced replay of %s differs" (Engine.Model.to_string m))
        cold_models;
      List.iter
        (fun (s, _, _) -> ignore (replay_line s.id (request_line s.id (ireq s.kind))))
        !inter;
      Trace.on := false;
      let tbl = Trace.self_times () in
      let nc = List.length cold_models in
      let busy name = per nc (self_ms tbl name) in
      let requests = calls tbl "request" in
      let waits =
        List.filter_map
          (fun (s, _, recv) ->
            Option.map (fun sv -> (recv -. s.at -. sv) *. 1000.) (Hashtbl.find_opt service s.id))
          !inter
      in
      let cold_total field =
        float_of_int
          (List.fold_left (fun n m -> n + int_field field (compute_ref m)) 0 cold_models)
      in
      [
        ("explore.busy_ms", busy "explore");
        ("explore.states", per nc (cold_total "states"));
        ("explore.edges", per nc (cold_total "edges"));
        ("explore.states_per_s", ratio (cold_total "states") (self_ms tbl "explore" /. 1000.));
        ("analyze.busy_ms", busy "analyze");
        ("analyze.share", ratio (self_ms tbl "analyze") (1000. *. sum !compute));
        ("replay.busy_ms", busy "replay");
        ("render.busy_ms", busy "render");
        ( "codec.busy_us",
          per requests (1000. *. (self_ms tbl "decode" +. self_ms tbl "encode")) );
        ("store.get_ms", per (calls tbl "store.get") (self_ms tbl "store.get"));
        ("store.put_ms", per (calls tbl "store.put") (self_ms tbl "store.put"));
        ("store.hit_ratio", ratio (hits1 -. hits0) (hits1 -. hits0 +. misses1 -. misses0));
        ("server.wait_ms", mean waits);
        ("generator.late_ms", mean (List.map (fun (s, _, _) -> 1000. *. (s.at -. s.due)) !inter));
        ("gc.alloc_mb_per_verdict", per nc !alloc);
        ("gc.major_collections", per nc (float_of_int !majors));
      ]
      (* The untraced twin of each traced compute is the reference
         compute_check of the same model. *)
      @ trace_common tbl ~traced:!compute ~untraced:!ref_times
    end
  in
  let states = ref 0 and edges = ref 0 in
  List.iter
    (fun (m, id, line, _) ->
      let r = compute_ref m in
      Setup.again setup;
      if line ^ "\n" <> Service.Protocol.ok_line ~id:(Json.Str id) ~cached:false r then
        fail "cold %s differs from compute_check: %s" (Engine.Model.to_string m) line;
      (match Option.bind (Json.member "witness" r) (Json.member "replays") with
      | Some (Json.Bool true) -> ()
      | _ -> fail "cold %s: witness does not replay" (Engine.Model.to_string m));
      states := !states + int_field "states" r;
      edges := !edges + int_field "edges" r)
    !cold;
  let setup_s = Setup.finish setup in
  Hashtbl.iter
    (fun (i, m) r ->
      if Json.to_string r <> Json.to_string (Service.Query.compute_check (resolve i) m query_config)
      then fail "primed %s/%s differs from compute_check" i (Engine.Model.to_string m))
    primed;
  let expected_line s =
    let id = Json.Str s.id in
    match s.kind with
    | Ping -> Service.Protocol.ok_line ~id (Json.Obj [ ("pong", Json.Bool true) ])
    | Warm (i, m) -> (
      match Hashtbl.find_opt primed (i, m) with
      | Some r -> Service.Protocol.ok_line ~id ~cached:true r
      | None -> "")
    | Realize (source, target) ->
      Service.Protocol.ok_line ~id (Service.Query.realize q ~source ~target)
  in
  (* Raw and normalized latency of each interactive request. *)
  let lats =
    List.map
      (fun (s, line, recv) ->
        if line ^ "\n" <> expected_line s then begin
          fail "interactive %s: %s" s.id line;
          (infinity, infinity)
        end
        else (recv -. s.due, Probe.time s.due recv))
      !inter
  in
  let lat = List.map snd lats and raw_lat = List.map fst lats in
  let n_cold = List.length !cold in
  {
    attempted = n_cold + List.length !inter;
    failed = !failures;
    e2e =
      [
        ("verdicts_per_s", float_of_int n_cold /. elapsed *. Probe.slowness t0 (t0 +. elapsed));
        ("latency_p50_ms", 1000. *. median lat);
        ("latency_p99_ms", 1000. *. percentile 0.99 lat);
        ("peak_rss_mb", rss);
        ("setup_s", setup_s);
      ];
    layer;
    counts = [ ("verdicts", n_cold); ("states", !states); ("edges", !edges) ];
    lines =
      [
        Printf.sprintf "cold verdicts: %d in %d whole cycles of %d models" n_cold
          (!cycles + 1) (List.length cold_models);
        Printf.sprintf "interactive samples: %d at %.0f/s (open loop)" (List.length lat)
          interactive_rate;
        Printf.sprintf "cold verdict latency p50: %.3f ms (raw)"
          (1000. *. median (List.map (fun (_, _, _, r) -> r) !cold));
        Printf.sprintf "raw: verdicts_per_s %.4f  latency_p50_ms %.1f  latency_p99_ms %.1f"
          (float_of_int n_cold /. elapsed) (1000. *. median raw_lat)
          (1000. *. percentile 0.99 raw_lat);
      ];
  }

(* ------------------------------------------------------------------ *)
(* bgp-100k *)

let bgp_config =
  (* Service.Query's scaled hierarchy at 100k nodes. *)
  let nodes = 100_000 in
  let tier1 = 10 and tier2 = nodes / 20 in
  {
    Bgp.Topology.s_tier1 = tier1;
    s_tier2 = tier2;
    s_stubs = nodes - tier1 - tier2;
    s_peer_links = tier2 / 2;
    s_seed = 1;
  }

let bgp_model = model "RMS"

(* The destination pool: transit and stub ASes drawn with a fixed seed, so
   the recorded digests hold for every run seed. *)
let bgp_pool () =
  let rng = Random.State.make [| 0xb69 |] in
  let t1 = bgp_config.s_tier1 and t2 = bgp_config.s_tier2 in
  let seen = Hashtbl.create 512 in
  let rec draw lo hi k acc =
    if k = 0 then acc
    else
      let d = lo + Random.State.int rng (hi - lo) in
      if Hashtbl.mem seen d then draw lo hi k acc
      else (Hashtbl.add seen d (); draw lo hi (k - 1) (d :: acc))
  in
  let transit = draw t1 (t1 + t2) 96 [] in
  let stubs = draw (t1 + t2) (t1 + t2 + bgp_config.s_stubs) 192 [] in
  List.rev transit @ List.rev stubs

(* Relative to the checkout root, the directory the benchmark starts in. *)
let digests_file = Filename.concat (Sys.getcwd ()) "verdictbench/bgp_digests.txt"

(* Fixpoints run [bgp_batch] distinct destinations at a time in a forked
   child, one after another in that one process, as Service.Query's bgp
   request runs them in the daemon.  The path arena is never reclaimed, so
   every destination grows the process; the growth shows in the batch's
   latencies and peak RSS, and a fresh child per batch gives every batch
   the same start and bounds the memory of a run.  The child reports one
   line per fixpoint on a pipe. *)
let bgp_batch = 8

type fixpoint = {
  converged : bool;
  activations : int;
  messages : int;
  shard_t0 : float;
  shard_t1 : float;
  digest_t1 : float;
  alloc_mb : float;
  majors : int;
  arena_paths : int;  (** paths the fixpoint added to the arena *)
  rss_mb : float;  (** resident set after the fixpoint *)
  hwm_mb : float;  (** peak resident set so far *)
  digest : string;
}

let fork_batch topo dests =
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    List.iter
      (fun dest ->
        let g0 = gc_mark () and a0 = Spp.Arena.size () in
        let t0 = now () in
        let res = Bgp.Shard.run (Bgp.Shard.config_for ~shards:1 ~workers:1 bgp_model) topo ~dest in
        let t1 = now () in
        let digest = Bgp.Shard.route_digest res in
        let t2 = now () in
        let gc = gc_since g0 in
        let line =
          Printf.sprintf "%b %d %d %.6f %.6f %.6f %.6f %d %d %.3f %.3f %s\n" res.converged
            res.activations res.messages t0 t1 t2 gc.alloc_mb gc.majors
            (Spp.Arena.size () - a0) (status_mb "VmRSS:" "self") (peak_rss_mb "self") digest
        in
        ignore (Unix.write_substring w line 0 (String.length line)))
      dests;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let buf = Buffer.create 1024 and b = Bytes.create 4096 in
    let rec go () =
      if wait_readable [ r ] 120. = [] then failwith "fixpoint child stalled";
      match Unix.read r b 0 4096 with
      | 0 -> ()
      | k -> Buffer.add_subbytes buf b 0 k; go ()
    in
    go ();
    Unix.close r;
    ignore (Unix.waitpid [] pid);
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents buf)) in
    if List.length lines <> List.length dests then failwith "fixpoint child died";
    List.map
      (fun l ->
        Scanf.sscanf l "%B %d %d %f %f %f %f %d %d %f %f %s"
          (fun converged activations messages shard_t0 shard_t1 digest_t1 alloc_mb majors
               arena_paths rss_mb hwm_mb digest ->
            { converged; activations; messages; shard_t0; shard_t1; digest_t1; alloc_mb;
              majors; arena_paths; rss_mb; hwm_mb; digest }))
      lines

let load_digests () =
  match open_in digests_file with
  | exception Sys_error m -> failwith ("recorded digests: " ^ m)
  | ic ->
    let tbl = Hashtbl.create 512 in
    (try
       while true do
         Scanf.sscanf (input_line ic) "%d %s" (fun d h -> Hashtbl.replace tbl d h)
       done
     with End_of_file -> ());
    close_in ic;
    tbl

let rec take k = function
  | x :: rest when k > 0 ->
    let l, r = take (k - 1) rest in
    (x :: l, r)
  | l -> ([], l)

let bgp (a : args) =
  let recorded = load_digests () in
  let pool = bgp_pool () in
  let generate = ref [] and topo = ref None in
  (* A set-up repeat runs between batches and replaces the topology (the
     same one: the generator is deterministic).  The old one is dropped
     and collected before the timing, so every repeat generates into the
     same heap and compacts the same live data; dropped inside the timing,
     the first repeats also grew the heap and took up to 1.8x as long as
     the later ones. *)
  let (), setup =
    Setup.first
      ~prepare:(fun () -> topo := None)
      ~spacing:(a.seconds /. float_of_int Setup.repeats)
      (fun _ ->
        let g0 = now () in
        let t = Bgp.Topology.generate_scaled bgp_config in
        generate := (now () -. g0) :: !generate;
        topo := Some t;
        (* The fixpoint children fork from this heap: drop the garbage. *)
        Gc.compact ())
  in
  let dests = ref (shuffle (Random.State.make [| a.seed; 0xb69 |]) pool) in
  let lat = ref [] and traced = ref [] and untraced = ref [] and fixes = ref [] in
  let growth = ref [] in
  let n = ref 0 and batches = ref 0 in
  let t0 = now () in
  while more ~paused:setup.spent a ~t0 ~done_:!n && !dests <> [] do
    let k = match a.verdicts with Some k -> min bgp_batch (k - !n) | None -> bgp_batch in
    let batch, rest = take k !dests in
    dests := rest;
    Trace.on := a.trace && !batches mod 2 = 0;
    let topo = Option.get !topo in
    let fs = fork_batch topo batch in
    List.iter2
      (fun dest f ->
        incr Trace.req;
        let dt = f.digest_t1 -. f.shard_t0 in
        if !Trace.on then begin
          let v = Trace.add ~parent:0 "verdict" f.shard_t0 f.digest_t1 in
          ignore (Trace.add ~parent:v "shard" f.shard_t0 f.shard_t1);
          ignore (Trace.add ~parent:v "digest" f.shard_t1 f.digest_t1);
          traced := dt :: !traced
        end
        else untraced := dt :: !untraced;
        lat := (f.shard_t0, f.digest_t1) :: !lat;
        fixes := f :: !fixes;
        incr n;
        if not f.converged then fail "destination %d did not converge" dest;
        match Hashtbl.find_opt recorded dest with
        | Some h when h = f.digest -> ()
        | Some h -> fail "destination %d: digest %s, recorded %s" dest f.digest h
        | None -> fail "destination %d has no recorded digest" dest)
      batch fs;
    (match fs with
    | first :: (_ :: _ as later) ->
      let last = List.nth later (List.length later - 1) in
      growth := ((last.rss_mb -. first.rss_mb) /. float_of_int (List.length later)) :: !growth
    | _ -> ());
    incr batches;
    Setup.again setup
  done;
  Trace.on := false;
  let t1 = now () in
  let elapsed = t1 -. t0 -. setup.spent in
  let setup_s = Setup.finish setup in
  let fixes = !fixes in
  let isum f = List.fold_left (fun acc x -> acc + f x) 0 fixes in
  let layer =
    if not a.trace then []
    else
      let tbl = Trace.self_times () in
      let nv = List.length !traced in
      let shard_ms = self_ms tbl "shard" in
      let nf = List.length fixes in
      [
        ("topology.generate_ms", 1000. *. median !generate);
        ("shard.busy_ms", per nv shard_ms);
        ("shard.activations", per nf (float_of_int (isum (fun f -> f.activations))));
        ("shard.messages", per nf (float_of_int (isum (fun f -> f.messages))));
        ( "shard.activations_per_s",
          ratio
            (float_of_int (isum (fun f -> f.activations)))
            (sum (List.map (fun f -> f.shard_t1 -. f.shard_t0) fixes)) );
        ("shard.arena_paths_per_dest", per nf (float_of_int (isum (fun f -> f.arena_paths))));
        ("shard.rss_growth_mb_per_dest", mean !growth);
        ("gc.alloc_mb_per_verdict", per nf (sum (List.map (fun f -> f.alloc_mb) fixes)));
        ("gc.major_collections", per nf (float_of_int (isum (fun f -> f.majors))));
      ]
      @ trace_common tbl ~traced:!traced ~untraced:!untraced
  in
  {
    attempted = !n;
    failed = !failures;
    e2e =
      [
        ("verdicts_per_s", float_of_int !n /. elapsed *. Probe.slowness t0 t1);
        ("latency_p50_ms", 1000. *. median (normalized !lat));
        ("latency_p99_ms", 1000. *. percentile 0.99 (normalized !lat));
        ( "peak_rss_mb",
          List.fold_left (fun m f -> Float.max m f.hwm_mb) (peak_rss_mb "self") fixes );
        ("setup_s", setup_s);
      ];
    layer;
    counts =
      [
        ("verdicts", !n);
        ("activations", isum (fun f -> f.activations));
        ("messages", isum (fun f -> f.messages));
        ("arena_paths", isum (fun f -> f.arena_paths));
      ];
    lines =
      [
        Printf.sprintf "latency samples: %d distinct destinations in %d batches of up to %d"
          !n !batches bgp_batch;
        Printf.sprintf "resident set growth per destination: %.1f MB" (mean !growth);
        Printf.sprintf "raw: verdicts_per_s %.4f  latency_p50_ms %.1f  latency_p99_ms %.1f"
          (float_of_int !n /. elapsed) (1000. *. median (raw !lat))
          (1000. *. percentile 0.99 (raw !lat));
      ];
  }

(* Print the digest of every pool destination (run once, committed as
   bgp_digests.txt). *)
let record_digests () =
  let topo = Bgp.Topology.generate_scaled bgp_config in
  let rec go = function
    | [] -> ()
    | dests ->
      let batch, rest = take bgp_batch dests in
      List.iter2
        (fun d f ->
          if not f.converged then failwith (Printf.sprintf "destination %d diverged" d);
          Printf.printf "%d %s\n%!" d f.digest)
        batch (fork_batch topo batch);
      go rest
  in
  go (bgp_pool ())

(* ------------------------------------------------------------------ *)
(* hunt-sweep *)

(* Candidate sizes repeat with the seed modulo 6 (ring size mod 3, generated
   base mod 2), so runs sweep whole periods of 6 seeds. *)
let hunt_period = 6
let hunt_budget = Hunt.Search.Smoke

let outcome_string name status finding =
  let status =
    match status with
    | Hunt.Search.Skipped_static r -> "skip:" ^ r
    | Hunt.Search.Explored vs ->
      String.concat ","
        (List.map (fun (m, v) -> Engine.Model.to_string m ^ "=" ^ v) vs)
  in
  let finding =
    match finding with
    | Some f -> Json.to_string (Hunt.Corpus.to_json f)
    | None -> "-"
  in
  String.concat "|" [ name; status; finding ]

(* One candidate: Search.check_candidate's composition, one span per layer. *)
let hunt_candidate ~config ~models (c : Hunt.Perturb.t) =
  match span "precheck" (fun () -> Hunt.Precheck.run c) with
  | Hunt.Precheck.Skip r ->
    (Hunt.Search.Skipped_static (Hunt.Precheck.reason_string r), None, 0, 0)
  | Hunt.Precheck.Explore { inst; wheel = _ } ->
    let states = ref 0 and edges = ref 0 in
    let verdicts =
      List.map
        (fun m ->
          let g = span "explore" (fun () -> Explore.explore ~config ~domains:1 inst m) in
          states := !states + Array.length g.states;
          edges := !edges + Array.fold_left (fun n es -> n + List.length es) 0 g.adjacency;
          (m, span "analyze" (fun () -> Osc.analyze_graph inst g)))
        models
    in
    let finding =
      Option.map
        (fun kind ->
          let keep = Hunt.Search.keep_of_kind ~config kind in
          let minimal = span "minimize" (fun () -> Hunt.Minimize.minimize ~keep inst) in
          {
            Hunt.Corpus.name = c.name;
            seed = c.seed;
            descr = c.descr;
            inst = minimal;
            kind;
            channel_bound = config.Explore.channel_bound;
            max_states = config.Explore.max_states;
          })
        (span "classify" (fun () -> Hunt.Search.classify verdicts))
    in
    ( Hunt.Search.Explored
        (List.map (fun (m, v) -> (m, Osc.verdict_name v)) verdicts),
      finding,
      !states,
      !edges )

let hunt (a : args) =
  let config = Hunt.Search.explore_config hunt_budget in
  let models = Hunt.Search.models hunt_budget in
  (* Periods start at multiples of 6 drawn from a wide range, so the rare
     expensive seeds, which cluster, do not decide a run.  The draw is the
     same in every run: periods differ in cost by up to 1.5x beyond their
     ring sizes, and a run sweeps 7 to 9 of them, so periods drawn per run
     seed made the content, not the program, move the figures.  As on
     fig6-deep, the run seed does not change the input. *)
  let rng = Random.State.make [| 0x4a47 |] in
  let starts = ref [] in
  let next_start () =
    let s = hunt_period * (1 + Random.State.int rng 20_000) in
    starts := s :: !starts;
    s
  in
  let sweep seeds =
    List.iter
      (fun c -> ignore (hunt_candidate ~config ~models c))
      (List.concat_map Hunt.Perturb.batch seeds)
  in
  (* Set-up: a sweep of three fixed seeds, one per ring size, which also
     warms the heap.  Its repeats run between periods. *)
  let (), setup =
    Setup.first ~spacing:(a.seconds /. float_of_int Setup.repeats) (fun _ ->
        sweep [ 3; 4; 5 ])
  in
  (* A run has two passes over the same periods, each timed, and the
     metrics cover both.  Pass A, the window of --seconds/2, takes each
     candidate through the benchmark's composition (spans when traced).
     Pass B takes the same candidates, in the same order, through
     Search.check_candidate, the program's own composition, and each
     outcome must equal pass A's. *)
  let done_ = ref [] (* periods of (candidate, outcome string), newest first *) in
  (* Per period of either pass: mean and p99 candidate latency,
     candidates per second. *)
  let recorded = ref [] in
  let record lats p0 p1 = recorded := (lats, p0, p1) :: !recorded in
  (* The per-period figures, raw and normalized, once the run is over. *)
  let period_stats () =
    let stat f = List.map f !recorded in
    let pn lats = float_of_int (List.length lats) in
    let slow = stat (fun (_, p0, p1) -> Probe.slowness p0 p1) in
    let raw_means = stat (fun (lats, p0, p1) -> (p1 -. p0) /. pn lats) in
    let raw_p99s = stat (fun (lats, _, _) -> percentile 0.99 lats) in
    ( List.map2 ( /. ) raw_means slow,
      List.map2 ( /. ) raw_p99s slow,
      raw_means,
      raw_p99s,
      stat (fun (lats, p0, p1) -> pn lats /. (p1 -. p0)) )
  in
  let traced = ref [] and untraced = ref [] in
  let states = ref 0 and edges = ref 0 and skips = ref 0 and findings = ref 0 in
  let alloc = ref 0. and majors = ref 0 and traced_n = ref 0 and traced_s = ref 0. in
  let traced_states = ref 0 in
  let periods = ref 0 and collect = ref 0. and n = ref 0 in
  let window = { a with seconds = a.seconds /. 2. } in
  let t0 = now () in
  while more ~paused:(!collect +. setup.spent) window ~t0 ~done_:!n do
    Trace.on := a.trace && !periods mod 2 = 0;
    collect := !collect +. collect_heap ();
    let start = next_start () in
    let seeds = List.init hunt_period (fun i -> start + i) in
    let cands = List.concat_map Hunt.Perturb.batch seeds in
    let p0 = now () and lats = ref [] and outcomes = ref [] in
    List.iter
      (fun (c : Hunt.Perturb.t) ->
        incr Trace.req;
        let g0 = gc_mark () and s = now () in
        let status, finding, st, ed =
          span "verdict" (fun () -> hunt_candidate ~config ~models c)
        in
        let dt = now () -. s in
        lats := dt :: !lats;
        if !Trace.on then begin
          let gc = gc_since g0 in
          alloc := !alloc +. gc.alloc_mb;
          majors := !majors + gc.majors;
          incr traced_n;
          traced_s := !traced_s +. dt;
          traced_states := !traced_states + st
        end;
        states := !states + st;
        edges := !edges + ed;
        (match status with Hunt.Search.Skipped_static _ -> incr skips | _ -> ());
        if finding <> None then incr findings;
        outcomes := (c, outcome_string c.name status finding) :: !outcomes)
      cands;
    let p1 = now () in
    record !lats p0 p1;
    let pm = (p1 -. p0) /. float_of_int (List.length cands) in
    if !Trace.on then traced := pm :: !traced else untraced := pm :: !untraced;
    done_ := List.rev !outcomes :: !done_;
    n := !n + List.length cands;
    incr periods;
    Trace.on := false;
    Setup.again setup
  done;
  Trace.on := false;
  let elapsed_a = now () -. t0 -. !collect -. setup.spent in
  let b0 = now () and spent_b = setup.spent and collect_b = ref 0. in
  List.iter
    (fun period ->
      collect_b := !collect_b +. collect_heap ();
      let p0 = now () and lats = ref [] in
      List.iter
        (fun ((c : Hunt.Perturb.t), got) ->
          let s = now () in
          let o = Hunt.Search.check_candidate ~config ~models c in
          lats := (now () -. s) :: !lats;
          if outcome_string o.name o.status o.finding <> got then
            fail "candidate %s differs from check_candidate" c.name)
        period;
      record !lats p0 (now ());
      Setup.again setup)
    (List.rev !done_);
  let b1 = now () in
  let elapsed_b = b1 -. b0 -. !collect_b -. (setup.spent -. spent_b) in
  let setup_s = Setup.finish setup in
  let period_means, period_p99s, raw_means, raw_p99s, period_rates = period_stats () in
  let n = !n in
  let layer =
    if not a.trace then []
    else
      let tbl = Trace.self_times () in
      let nv = !traced_n in
      let busy name = per nv (self_ms tbl name) in
      [
        ("explore.busy_ms", busy "explore");
        ("explore.states", per n (float_of_int !states));
        ("explore.edges", per n (float_of_int !edges));
        ("explore.states_per_s", ratio (float_of_int !traced_states) (self_ms tbl "explore" /. 1000.));
        ("analyze.busy_ms", busy "analyze");
        ("analyze.share", ratio (self_ms tbl "analyze") (1000. *. !traced_s));
        ("precheck.busy_ms", busy "precheck");
        ("precheck.skip_ratio", ratio (float_of_int !skips) (float_of_int n));
        ("minimize.busy_ms", busy "minimize");
        ("minimize.share", ratio (self_ms tbl "minimize") (1000. *. !traced_s));
        ("gc.alloc_mb_per_verdict", per nv !alloc);
        ("gc.major_collections", per nv (float_of_int !majors));
      ]
      @ trace_common tbl ~traced:!traced ~untraced:!untraced
  in
  {
    attempted = 2 * n;
    failed = !failures;
    e2e =
      [
        ( "verdicts_per_s",
          float_of_int (2 * n) /. (elapsed_a +. elapsed_b) *. Probe.slowness t0 b1 );
        ("latency_p50_ms", 1000. *. median period_means);
        ("latency_p99_ms", 1000. *. median period_p99s);
        ("peak_rss_mb", peak_rss_mb "self");
        ("setup_s", setup_s);
      ];
    layer;
    counts =
      [
        ("verdicts", n);
        ("skips", !skips);
        ("findings", !findings);
        ("states", !states);
        ("edges", !edges);
      ];
    lines =
      [
        Printf.sprintf "candidates: %d over %d periods of %d seeds starting at %s" n
          !periods hunt_period
          (String.concat "," (List.rev_map string_of_int !starts));
        Printf.sprintf
          "latency samples: %d periods of %d candidates, each in both passes (medians over \
           periods)"
          !periods (n / max 1 !periods);
        "period candidates/s (raw), pass A then pass B: "
        ^ String.concat " " (List.rev_map (Printf.sprintf "%.1f") period_rates);
        Printf.sprintf "raw: verdicts_per_s %.4f  latency_p50_ms %.1f  latency_p99_ms %.1f"
          (float_of_int (2 * n) /. (elapsed_a +. elapsed_b))
          (1000. *. median raw_means) (1000. *. median raw_p99s);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Output. *)

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "1e300"

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--record-bgp-digests" ] -> record_digests (); exit 0
  | [ _; "--daemon"; socket; dir; cpu ] -> daemon_main socket dir (int_of_string cpu)
  | _ -> ());
  let a = parse_args () in
  let run =
    match a.workload with
    | "fig6-deep" -> fig6
    | "serve-mixed" -> serve
    | "bgp-100k" -> bgp
    | "hunt-sweep" -> hunt
    | _ -> usage ()
  in
  (* Work files (store, sockets) live in a per-run directory of the build
     tree; socket paths are relative to it to stay short. *)
  let out = if Filename.is_relative a.out then Filename.concat (Sys.getcwd ()) a.out else a.out in
  let work = Filename.concat out (Printf.sprintf "verdictbench-run-%d" (Unix.getpid ())) in
  mkdir_p work;
  Sys.chdir work;
  pin work_cpu;
  Probe.start ();
  at_exit Probe.stop;
  let r =
    match run a with
    | r -> r
    | exception e ->
      Probe.stop ();
      Sys.chdir out;
      rm_rf work;
      prerr_endline ("verdictbench: " ^ Printexc.to_string e);
      exit 1
  in
  let kernel_ms, probe_n = Probe.summary () in
  Probe.stop ();
  Sys.chdir out;
  rm_rf work;
  Printf.printf "workload: %s  seed: %d  seconds: %.0f  trace: %b  nproc: %d  domains: 1\n"
    a.workload a.seed a.seconds a.trace (Array.length usable);
  Printf.printf "work and speed probe pinned to CPU %d%s\n" work_cpu
    (if a.workload = "serve-mixed" then Printf.sprintf ", load generator to CPU %d" load_cpu
     else "");
  List.iter print_endline r.lines;
  Printf.printf
    "speed probe: %d samples, mean kernel %.3f ms against a reference of %.3f ms; \
     time metrics below are normalized to the reference\n"
    probe_n kernel_ms (1000. *. Probe.reference);
  Printf.printf "set-ups (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") !Setup.times));
  Printf.printf "counts: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts));
  Printf.printf "operations: %d attempted, %d failed\n" r.attempted r.failed;
  List.iter
    (fun (k, u) ->
      Printf.printf "%-24s %14.4f %s\n" k (List.assoc k r.e2e) u)
    e2e_units;
  let metrics, units =
    if a.trace then begin
      let dir = Filename.concat out "verdictbench-traces" in
      mkdir_p dir;
      let path = Filename.concat dir (Printf.sprintf "%s-%d.trace.json" a.workload a.seed) in
      Trace.write path;
      Printf.printf "trace: %s\n" path;
      let layer = List.map (fun (k, _) -> (k, Option.value ~default:0. (List.assoc_opt k r.layer))) layer_units in
      List.iter
        (fun (k, u) -> Printf.printf "%-24s %14.4f %s\n" k (List.assoc k layer) u)
        layer_units;
      (layer, layer_units)
    end
    else (r.e2e, e2e_units)
  in
  let correct = r.failed = 0 && r.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (k, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k
              (json_num (List.assoc k metrics)) u)
          units));
  exit (if correct then 0 else 1)
