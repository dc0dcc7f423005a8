(* The benchmark's own rules: the tail-percentile choice, abort
   accounting at the rig boundary, and per-op normalisation. *)

open Perfbench
module Sched = Trio_sim.Sched

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

(* ------------------------------------------------------------------ *)
(* Tail percentile: the highest ladder step with >= 10 samples beyond *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_picks_highest_with_ten_beyond () =
  let t n = Option.get (Rules.tail (samples n)) in
  let r = t 1000 in
  check_float "1000 samples: p99" 99.0 r.t_pct;
  Alcotest.(check int) "10 beyond p99" 10 r.t_beyond;
  check_float "p99 of 1..1000" 990.0 r.t_value;
  (* one sample fewer leaves only 9 beyond p99: fall back to p90 *)
  check_float "999 samples: p90" 90.0 (t 999).t_pct;
  check_float "10000 samples: p99.9" 99.9 (t 10000).t_pct;
  check_float "20 samples: p50" 50.0 (t 20).t_pct;
  Alcotest.(check int) "20 samples: 10 beyond the median" 10 (t 20).t_beyond

let test_tail_absent_when_too_few () =
  Alcotest.(check bool) "19 samples have no tail" true (Rules.tail (samples 19) = None);
  Alcotest.(check bool) "no samples, no tail" true (Rules.tail [||] = None)

let test_failed_ops_fill_the_tail () =
  (* 100 ops of which 11 failed (+inf): the tail is a missed limit *)
  let lat = Array.init 100 (fun i -> if i < 11 then infinity else 5.0) in
  let t = Option.get (Rules.tail lat) in
  Alcotest.(check bool) "p90 of a run with 11% failures is +inf" true (t.t_value = infinity)

(* ------------------------------------------------------------------ *)
(* Per-op normalisation *)

let test_per_op () =
  check_float "delta over ops" 250.0 (Rules.per_op ~ops:4 1000.0);
  Alcotest.(check bool)
    "zero ops gives nan, not a rate" true
    (Float.is_nan (Rules.per_op ~ops:0 1000.0));
  Alcotest.(check bool)
    "ratio over a base that did not move" true
    (Float.is_nan (Rules.ratio 3.0 0.0))

let test_derive_normalises_deltas () =
  let snap l =
    let h = Hashtbl.create 8 in
    List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
    h
  in
  let b =
    snap
      [
        ("ctl:map", 1000.0);
        ("mmu:pte_ops", 10.0);
        ("call:create:calls", 2.0);
        ("call:create:vns", 50.0);
      ]
  in
  let a =
    snap
      [
        ("ctl:map", 6000.0);
        ("mmu:pte_ops", 110.0);
        ("call:create:calls", 7.0);
        ("call:create:vns", 550.0);
      ]
  in
  let ms = Layers.derive ~ops:10 ~b ~a ~lat:[||] ~host:[||] in
  let get name = List.find (fun (m : Layers.metric) -> m.name = name) ms in
  check_float "map time per op" 500.0 (get "ctl.map.vns_per_op").value;
  check_float "PTE ops per op" 10.0 (get "mmu.pte_ops_per_op").value;
  check_float "create: per call, not per op" 100.0 (get "libfs.create.vns_per_call").value;
  Alcotest.(check bool)
    "a call never made is absent with a reason" true
    ((get "libfs.pread.vns_per_call").absent <> None);
  let none = Layers.derive ~ops:0 ~b ~a ~lat:[||] ~host:[||] in
  Alcotest.(check bool)
    "no successful ops: per-op metrics are absent" true
    ((List.find (fun (m : Layers.metric) -> m.name = "ctl.map.vns_per_op") none).absent <> None)

(* ------------------------------------------------------------------ *)
(* Abort accounting: a raise in a background fiber *)

let tiny_rig =
  {
    Workloads.nodes = 1;
    cpus_per_node = 2;
    pages_per_node = 1 lsl 12;
    store_data = false;
    lease_ns = None;
  }

(* Two clients whose ops each take 1 us of virtual time; with [raise_at]
   a background fiber raises at that virtual time. *)
let toy ?raise_at () =
  let setup (rig : Trio_workloads.Rig.t) _probe _rng =
    Option.iter
      (fun at ->
        Sched.spawn rig.sched (fun () ->
            Sched.delay at;
            failwith "injected"))
      raise_at;
    {
      Workloads.warmup = 0;
      step =
        (fun ~client:_ _ ->
          Sched.delay 1000.0;
          true);
      check = (fun () -> [ { Workloads.c_name = "toy"; c_ok = true; c_detail = "" } ]);
    }
  in
  { Workloads.name = "toy"; shape = ""; why = ""; rig = tiny_rig; clients = 2; quota = 50; setup }

let test_abort_is_counted () =
  let clean = Harness.run (toy ()) ~seed:1 ~traced:false in
  let r = Harness.run (toy ~raise_at:20_500.0 ()) ~seed:1 ~traced:false in
  Alcotest.(check bool) "clean run not aborted" true (clean.aborted = None);
  Alcotest.(check int) "clean run: every op succeeded" 0 clean.acct.failed;
  (match r.aborted with
  | Some e ->
    Alcotest.(check bool) "the exception is recorded by name" true
      (contains e "injected")
  | None -> Alcotest.fail "the injected raise did not abort the round");
  Alcotest.(check int) "attempted is the whole budget" 100 r.acct.attempted;
  Alcotest.(check bool) "some ops ran before the abort" true (r.acct.succeeded > 0);
  Alcotest.(check int) "unfinished ops are failed" (100 - r.acct.succeeded) r.acct.failed;
  Alcotest.(check bool) "checks did not run" true (r.checks = []);
  let v = Harness.vsummary r and vc = Harness.vsummary clean in
  check_float "no goodput from the partial window" 0.0 v.vops_per_ms;
  check_float "no simulator speed either" 0.0 (Harness.host_ops_per_s [ r ]);
  Alcotest.(check bool) "clean goodput is positive" true (vc.vops_per_ms > 0.0);
  Alcotest.(check bool)
    "the median reads no better than clean" true
    (v.vlat_p50_us >= vc.vlat_p50_us);
  Alcotest.(check bool) "the tail is a missed limit" true
    (match v.tail with Some t -> t.t_value = infinity | None -> false)

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "tail: highest percentile with 10 beyond" `Quick
            test_tail_picks_highest_with_ten_beyond;
          Alcotest.test_case "tail: absent below 20 samples" `Quick test_tail_absent_when_too_few;
          Alcotest.test_case "tail: failed ops are +inf" `Quick test_failed_ops_fill_the_tail;
          Alcotest.test_case "per-op normalisation" `Quick test_per_op;
          Alcotest.test_case "per-layer deltas per op" `Quick test_derive_normalises_deltas;
        ] );
      ( "harness",
        [ Alcotest.test_case "abort in a background fiber" `Quick test_abort_is_counted ] );
    ]
