(* The benchmark driver: one workload, one seed, one result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the last line of standard output carries the
   end-to-end metrics; with [--trace 1] the per-layer ones, and the spans
   are written to perfbench/out/. A watchdog domain caps every run's wall
   time: a run that wedges is reported as failed, every request it still
   had outstanding counted in [failed], and the process exits without
   waiting for the stuck domains. *)

let workloads =
  [ ("cold_update_mix", Cold.run); ("warm_read", Warm.run); ("served_flash", Flash.run) ]

(* well inside the 180 s a run may take, with room for set-up *)
let cap_s = 150.0

let usage =
  "main.exe --workload cold_update_mix|warm_read|served_flash --seed N \
   --seconds S --trace 0|1"

let () =
  let started = Unix.gettimeofday () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "measured seconds (> 0)");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some r when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> r
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let trace = !trace = 1 in
  let ctx = Ctx.create ~seed:!seed ~seconds:!seconds ~trace ~started in
  (* 0 running, 1 finished, 2 watchdog fired: whoever moves it first prints *)
  let state = Atomic.make 0 in
  let report ~correct values =
    let acct = ctx.Ctx.acct in
    print_endline
      (Out.result_line ~correct ~attempted:(max 1 (Acct.attempted acct))
         ~failed:(Acct.failed acct) ~trace values);
    flush stdout
  in
  let failed_values () =
    if trace then [ ("fail_frac", Acct.fail_frac ctx.Ctx.acct) ]
    else [ ("ok_frac", 1.0 -. Acct.fail_frac ctx.Ctx.acct) ]
  in
  let watchdog =
    Domain.spawn (fun () ->
        while Atomic.get state = 0 && Unix.gettimeofday () -. started < cap_s do
          Unix.sleepf 0.05
        done;
        if Atomic.compare_and_set state 0 2 then begin
          let outstanding = (Atomic.get ctx.Ctx.outstanding) () in
          Acct.abandon ctx.Ctx.acct ~outstanding;
          Printf.eprintf "watchdog: %s still running after %.0f s, %d requests outstanding\n%!"
            !workload cap_s outstanding;
          report ~correct:false (failed_values ());
          Unix._exit 0
        end)
  in
  let outcome =
    match run ctx with
    | values -> Ok values
    | exception e ->
        Printf.eprintf "%s failed: %s\n%!" !workload (Printexc.to_string e);
        Error ()
  in
  if Atomic.compare_and_set state 0 1 then begin
    Domain.join watchdog;
    (match outcome with
    | Ok values ->
        if trace then begin
          let dir = Filename.concat "perfbench" "out" in
          (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let path = Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed) in
          Spans.write_tsv path (Spans.to_array ctx.Ctx.spans);
          Printf.eprintf "spans written to %s\n%!" path
        end;
        report ~correct:(Acct.correct ctx.Ctx.acct) values
    | Error () ->
        Acct.fail ctx.Ctx.acct;
        report ~correct:false (failed_values ()));
    exit 0
  end
  else
    (* the watchdog is printing and will end the process *)
    while true do Unix.sleepf 1.0 done
