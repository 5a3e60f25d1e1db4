(* Tests for the benchmark's own arithmetic: the percentile rule, the
   open-loop schedule, span self time and failure accounting. *)

let check_float = Alcotest.(check (float 1e-12))
let ints n = Array.init n (fun i -> float_of_int (i + 1))

(* -- percentile rule --------------------------------------------------- *)

let p99_when_enough () =
  let s = Stat.summarize (ints 1000) in
  check_float "tail level" 0.99 s.Stat.tail_q;
  check_float "p99 of 1..1000" 990.0 s.Stat.tail;
  check_float "p50 of 1..1000" 500.0 s.Stat.p50

let falls_back_below_1000 () =
  let s = Stat.summarize (ints 500) in
  check_float "highest level with 10 beyond" 0.98 s.Stat.tail_q;
  check_float "value" 490.0 s.Stat.tail

let ten_beyond_always () =
  for n = 11 to 1100 do
    let s = Stat.summarize (ints n) in
    let beyond = Array.fold_left (fun c x -> if x > s.Stat.tail then c + 1 else c) 0 (ints n) in
    if beyond < Stat.min_beyond then Alcotest.failf "n=%d: %d beyond" n beyond;
    if s.Stat.tail_q > 0.99 then Alcotest.failf "n=%d: above p99" n
  done

let too_few () =
  Alcotest.(check (option (float 0.0))) "no level" None (Stat.tail_level ~n:10 0.99);
  let s = Stat.summarize [| 3.0; 1.0; 2.0 |] in
  check_float "max stands in" 3.0 s.Stat.tail;
  check_float "flagged as the maximum" 1.0 s.Stat.tail_q;
  check_float "median" 2.0 s.Stat.p50;
  Alcotest.(check int) "empty" 0 (Stat.summarize [||]).Stat.n

let knee () =
  let k l = Stat.knee (Array.of_list l) in
  let t = true and f = false in
  Alcotest.(check (option int)) "clean" (Some 2) (k [ t; t; t; f; f ]);
  Alcotest.(check (option int)) "stray failure below" (Some 4) (k [ t; f; t; t; t; f; f ]);
  Alcotest.(check (option int)) "lucky pass above" (Some 2) (k [ t; t; t; f; f; f; t; f ]);
  Alcotest.(check (option int)) "all pass" (Some 3) (k [ t; t; t; t ]);
  Alcotest.(check (option int)) "none pass" None (k [ f; f; f ]);
  Alcotest.(check (option int)) "tie takes the higher split" (Some 2) (k [ t; f; t; f ])

let pass_time () =
  (* three blocks over five passes; a stall lands in one pass of block 1
     and in another pass of block 2 *)
  let blocks =
    [| [| 1.0; 1.0; 1.0; 1.0; 1.0 |];
       [| 2.0; 9.0; 2.0; 2.0; 2.0 |];
       [| 3.0; 3.0; 8.0; 3.0; 3.0 |] |]
  in
  check_float "sum of block medians" 6.0 (Stat.pass_time blocks);
  check_float "one pass" 6.0 (Stat.pass_time [| [| 1.0 |]; [| 5.0 |] |]);
  check_float "no blocks" 0.0 (Stat.pass_time [||])

(* -- open-loop schedule ------------------------------------------------ *)

let phases =
  [ { Sched.rate = 100.0; start = 0.0; duration = 5.0 };
    { Sched.rate = 400.0; start = 5.5; duration = 2.0 } ]

let same_seed_same_schedule () =
  let a = Sched.build ~seed:7 ~phases ~update_rate:50.0 in
  let b = Sched.build ~seed:7 ~phases ~update_rate:50.0 in
  Alcotest.(check bool) "identical" true (a = b);
  let c = Sched.build ~seed:8 ~phases ~update_rate:50.0 in
  Alcotest.(check bool) "another seed differs" false (a = c)

let schedule_shape () =
  let ev = Sched.build ~seed:3 ~phases ~update_rate:50.0 in
  let sorted = ref true in
  Array.iteri (fun i e -> if i > 0 && e.Sched.at < ev.(i - 1).Sched.at then sorted := false) ev;
  Alcotest.(check bool) "time-ordered" true !sorted;
  let qs = List.filter_map (fun e -> match e.Sched.kind with `Query i -> Some (i, e) | _ -> None) (Array.to_list ev) in
  List.iteri (fun k (i, _) -> Alcotest.(check int) "queries numbered in order" k i) qs;
  List.iter
    (fun (_, e) ->
      let p = List.nth phases e.Sched.phase in
      if e.Sched.at < p.Sched.start || e.Sched.at >= p.Sched.start +. p.Sched.duration then
        Alcotest.failf "query at %.3f outside its phase %d" e.Sched.at e.Sched.phase)
    qs;
  let in_phase p = List.length (List.filter (fun (_, e) -> e.Sched.phase = p) qs) in
  (* Poisson counts: 500 +- 5 sd and 800 +- 5 sd *)
  if abs (in_phase 0 - 500) > 112 then Alcotest.failf "phase 0 count %d" (in_phase 0);
  if abs (in_phase 1 - 800) > 142 then Alcotest.failf "phase 1 count %d" (in_phase 1)

(* -- span self time ---------------------------------------------------- *)

let span id parent start stop = { Spans.id; name = "s"; parent; req = 0; start; stop }

let self_time () =
  let spans =
    [| span 0 (-1) 0.0 10.0;
       span 1 0 1.0 3.0;
       span 2 0 2.0 5.0;  (* overlaps its sibling: counted once *)
       span 3 0 8.0 12.0;  (* runs past its parent: clipped *)
       span 4 1 1.5 2.5 |]
  in
  let s = Spans.self_times spans in
  check_float "root: 10 - [1,5] - [8,10]" 4.0 s.(0);
  check_float "child minus grandchild" 1.0 s.(1);
  check_float "leaf" 3.0 s.(2);
  check_float "leaf past parent" 4.0 s.(3);
  check_float "grandchild" 1.0 s.(4);
  check_float "disjoint children" 6.0
    (Spans.self_times [| span 0 (-1) 0.0 10.0; span 1 0 0.0 2.0; span 2 0 4.0 6.0 |]).(0)

let recorder () =
  let t = Spans.create () in
  let root = Spans.fresh t in
  let child = Spans.fresh t in
  Spans.add t ~id:child ~name:"c" ~parent:root ~req:1 ~start:1.0 ~stop:2.0;
  Spans.add t ~id:root ~name:"r" ~parent:(-1) ~req:1 ~start:0.0 ~stop:4.0;
  let a = Spans.to_array t in
  Alcotest.(check (list int)) "ordered by id" [ root; child ] (Array.to_list (Array.map (fun s -> s.Spans.id) a));
  let selfs = Spans.self_times a in
  Alcotest.(check (array (float 1e-12))) "self of r" [| 3.0 |] (Spans.self_of a selfs "r")

(* -- failure accounting ------------------------------------------------ *)

let watchdog_abandoned () =
  let a = Acct.create () in
  for _ = 1 to 10 do Acct.attempt a done;
  Acct.fail a;
  Alcotest.(check bool) "a shed alone keeps the run correct" true (Acct.correct a);
  Acct.abandon a ~outstanding:3;
  Alcotest.(check int) "attempted unchanged" 10 (Acct.attempted a);
  Alcotest.(check int) "abandoned count as failed" 4 (Acct.failed a);
  check_float "fail_frac" 0.4 (Acct.fail_frac a);
  Alcotest.(check bool) "a wedged run is not correct" false (Acct.correct a)

let mismatch_fails () =
  let a = Acct.create () in
  Acct.attempt a;
  Acct.mismatch a;
  Alcotest.(check int) "failed" 1 (Acct.failed a);
  Alcotest.(check bool) "not correct" false (Acct.correct a);
  check_float "nothing attempted" 0.0 (Acct.fail_frac (Acct.create ()))

(* -- result line ------------------------------------------------------- *)

let result_line () =
  let line =
    Out.result_line ~correct:true ~attempted:3 ~failed:0 ~trace:false [ ("setup_s", 1.5) ]
  in
  List.iter
    (fun (n, _) ->
      let key = Printf.sprintf "%S:" n in
      let found = ref false in
      for i = 0 to String.length line - String.length key do
        if String.sub line i (String.length key) = key then found := true
      done;
      if not !found then Alcotest.failf "missing %s" n)
    Out.end_to_end;
  Alcotest.check_raises "undeclared metric"
    (Invalid_argument "Out.result_line: undeclared metric nope") (fun () ->
      ignore (Out.result_line ~correct:true ~attempted:1 ~failed:0 ~trace:false [ ("nope", 1.0) ]))

let () =
  Alcotest.run "perfbench"
    [ ("percentile",
        [ Alcotest.test_case "p99 with 1000 samples" `Quick p99_when_enough;
          Alcotest.test_case "lower level below 1000" `Quick falls_back_below_1000;
          Alcotest.test_case "ten samples beyond" `Quick ten_beyond_always;
          Alcotest.test_case "too few samples" `Quick too_few;
          Alcotest.test_case "ladder knee" `Quick knee;
          Alcotest.test_case "pass time" `Quick pass_time ]);
      ("schedule",
        [ Alcotest.test_case "seed determinism" `Quick same_seed_same_schedule;
          Alcotest.test_case "phases and rates" `Quick schedule_shape ]);
      ("spans",
        [ Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "recorder" `Quick recorder ]);
      ("accounting",
        [ Alcotest.test_case "watchdog abandons" `Quick watchdog_abandoned;
          Alcotest.test_case "oracle mismatch" `Quick mismatch_fails ]);
      ("output", [ Alcotest.test_case "every metric printed" `Quick result_line ]) ]
