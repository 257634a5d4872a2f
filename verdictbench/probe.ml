(* The machine-speed probe of the verdict benchmark (see NOTES.md).

   usage: probe.exe FILE

   Runs a fixed allocating kernel (hash table, then sort) of about 20 ms
   every 0.25 s, and appends one line per run to FILE:

     <wall start> <wall end> <cpu seconds of the kernel>

   The benchmark starts it on the CPU it runs on, so the kernel samples the
   slow and fast phases of that CPU while the measured program runs there,
   and stops it with SIGTERM.  It links nothing of the repository, so no
   change to the program changes the kernel. *)

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (string_of_int i, [ i; i + 1 ])
  done;
  let l = Hashtbl.fold (fun k (s, _) acc -> (k, s) :: acc) h [] in
  List.length (List.sort compare l)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: probe.exe FILE";
    exit 2
  end;
  let fd =
    Unix.openfile Sys.argv.(1) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let parent = Unix.getppid () in
  (* Ends with SIGTERM, or on its own when the benchmark is gone. *)
  while Unix.getppid () = parent do
    let w0 = Unix.gettimeofday () and c0 = cpu () in
    ignore (Sys.opaque_identity (kernel ()));
    let c1 = cpu () and w1 = Unix.gettimeofday () in
    let line = Printf.sprintf "%.6f %.6f %.6f\n" w0 w1 (c1 -. c0) in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.sleepf 0.25
  done
