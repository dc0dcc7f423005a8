(* perfbench: the ArckFS benchmark.

     perfbench --workload NAME|all --seed N --seconds S --trace 0|1

   Runs rounds of one workload (each on a fresh simulated machine) until
   [--seconds] of host time are spent, at least three.  Every round of a
   seed replays the same virtual timeline, so the virtual metrics come
   from one round and are checked identical in all others; host metrics
   are medians over the untraced rounds, and set-up time is the median
   of set-ups made before them.  With [--trace 1] every second
   round is traced, and the tracing overhead is the drop in simulator
   speed between the two kinds.

   Human-readable results go to stdout; the last line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}, with the
   end-to-end metrics untraced and the per-layer ones when traced. *)

open Perfbench
module W = Workloads
module H = Harness

(* The metrics the last JSON line carries, with their units;
   BENCHMARK.json names the same. *)
let end_to_end =
  [
    ("vops_per_ms", "ops/vms");
    ("vlat_p50_us", "vus");
    ("vlat_tail_us", "vus");
    ("setup_s", "s");
    ("host_heap_mb", "MiB");
  ]

(* Simulator speed sits with the per-layer metrics: on a shared host it
   spreads too widely between runs to carry a regression bound. *)
let per_layer =
  [
    ("host_ops_per_s", "ops/s");
    ("sim.events_per_op", "1/op");
    ("gc.minor_words_per_op", "words/op");
    ("mmu.pte_ops_per_op", "1/op");
    ("nvm.bytes_read_per_op", "B/op");
    ("nvm.persists_per_op", "1/op");
    ("dindex.descents_per_op", "1/op");
    ("bench.vlat_drift", "ratio");
    ("bench.host_drift", "ratio");
  ]

let min_rounds = 3

(* Set-up is timed apart from the rounds, this many times over, and
   reported as the median: one set-up is too short to time steadily.
   The set-ups run first, so each run times them in the same state of
   the process, not after however many rounds the host allowed. *)
let setup_repeats = 15

let usage () =
  prerr_endline
    "usage: perfbench --workload (share-meta|share-data|private-mix|ring-churn|all) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n when n >= 0 -> r := Some n | _ -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      int_arg seed v;
      go rest
    | "--seconds" :: v :: rest ->
      int_arg seconds v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t ->
    let specs =
      if w = "all" then W.all else match W.find w with Some s -> [ s ] | None -> usage ()
    in
    (specs, s, float_of_int secs, t)
  | _ -> usage ()

(* Rounds until the time is spent: stop before a round that would
   overrun it, once [min_rounds] have run.  An aborted round ends the
   run, since every round of a seed aborts the same way. *)
let run_rounds spec ~seed ~seconds ~trace =
  let t0 = Probe.host_now () in
  let rec go i acc =
    let elapsed = Probe.host_now () -. t0 in
    let per_round = if i = 0 then 0.0 else elapsed /. float_of_int i in
    let stop =
      (match acc with r :: _ -> r.H.aborted <> None | [] -> false)
      || (i >= min_rounds && elapsed +. per_round > seconds)
    in
    if stop then List.rev acc
    else go (i + 1) (H.run spec ~seed ~traced:(trace && i land 1 = 1) :: acc)
  in
  go 0 []

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let fmt_value v = if Float.is_finite v then Printf.sprintf "%.6g" v else "n/a"

let write_spans ~spec ~seed (r : H.round) =
  let dir = Filename.concat "perfbench" "_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" spec.W.name seed) in
  let counters s =
    Json.Obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, Json.num v) :: acc) s []))
  in
  let span (s : Probe.span) =
    Json.Obj
      [
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("name", Str s.name);
        ("req", Int s.req);
        ("client", Int s.client);
        ("v0_ns", Json.num s.v0);
        ("v1_ns", Json.num s.v1);
        ("h0_s", Json.num s.h0);
        ("h1_s", Json.num s.h1);
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Str spec.W.name);
        ("seed", Int seed);
        ("spans", Arr (List.map span r.spans));
        ( "phases",
          Arr
            (List.map
               (fun (name, b, a) ->
                 Json.Obj [ ("phase", Str name); ("start", counters b); ("end", counters a) ])
               r.phases) );
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  file

let report spec ~seed ~seconds ~trace =
  let setups = List.init setup_repeats (fun _ -> H.time_setup spec ~seed) in
  let rounds = run_rounds spec ~seed ~seconds ~trace in
  let first = List.hd rounds in
  let untraced = List.filter (fun r -> not r.H.traced) rounds in
  let traced = List.filter (fun r -> r.H.traced) rounds in
  let vs = H.vsummary first in
  let repr = H.vsummary_repr first in
  let deterministic = List.for_all (fun r -> H.vsummary_repr r = repr) rounds in
  let acct = first.H.acct in
  let tail_value = match vs.tail with Some t -> t.t_value /. 1e3 | None -> nan in
  let e2e =
    [
      ("vops_per_ms", "ops/vms", vs.vops_per_ms);
      ("vlat_p50_us", "vus", vs.vlat_p50_us);
      ("vlat_tail_us", "vus", tail_value);
      ("host_ops_per_s", "ops/s", H.host_ops_per_s untraced);
      ("setup_s", "s", Rules.median setups);
      ("host_heap_mb", "MiB", heap_mb ());
      ("fail_frac", "ratio", acct.fail_frac);
    ]
  in
  Printf.printf "== %s  seed %d  (%s)\n" spec.W.name seed spec.W.shape;
  Printf.printf "   why: %s\n" spec.W.why;
  Printf.printf "   closed loop, %d client(s), %d measured ops per round, %d round(s) (%d traced)\n"
    spec.W.clients (spec.W.clients * spec.W.quota) (List.length rounds) (List.length traced);
  Printf.printf "   rounds (host_ops_per_s):%s\n"
    (String.concat ""
       (List.map
          (fun r ->
            Printf.sprintf " %s%s"
              (if r.H.traced then "T:" else "")
              (fmt_value (H.host_ops_per_s [ r ])))
          rounds));
  Printf.printf "   set-ups (s):%s\n" (String.concat "" (List.map (fun v -> " " ^ fmt_value v) setups));
  (match first.H.aborted with
  | Some e ->
    Printf.printf "   ABORTED: %s escaped the rig; %d of %d ops failed\n" e acct.failed
      acct.attempted
  | None -> ());
  Printf.printf "-- end-to-end\n";
  List.iter
    (fun (name, unit_, v) ->
      let note =
        match name with
        | "vlat_p50_us" -> Printf.sprintf "(n=%d, failed ops count as +inf)" acct.attempted
        | "vlat_tail_us" -> (
          match vs.tail with
          | Some t -> Printf.sprintf "(p%g, n=%d, %d beyond)" t.t_pct t.t_samples t.t_beyond
          | None -> Printf.sprintf "(n=%d: too few samples for a tail)" acct.attempted)
        | "host_ops_per_s" ->
          Printf.sprintf "(median over %d slices of %d untraced rounds)" H.chunks
            (List.length untraced)
        | "setup_s" -> Printf.sprintf "(median of %d set-ups before the rounds)" setup_repeats
        | "host_heap_mb" -> "(peak major heap)"
        | "fail_frac" -> Printf.sprintf "(%d of %d)" acct.failed acct.attempted
        | _ -> ""
      in
      Printf.printf "   %-16s %14s %-8s %s\n" name (fmt_value v) unit_ note)
    e2e;
  let checks = List.concat_map (fun r -> r.H.checks) rounds in
  let checks_ok = checks <> [] && List.for_all (fun c -> c.W.c_ok) checks in
  Printf.printf "-- checks (untimed, every round)\n";
  List.iter
    (fun (c : W.check) ->
      Printf.printf "   %-12s %s  %s\n" c.c_name (if c.c_ok then "ok" else "FAIL") c.c_detail)
    first.H.checks;
  if first.H.aborted <> None then Printf.printf "   skipped: the round aborted before its checks\n";
  let failing = List.filter (fun c -> not c.W.c_ok) checks in
  if failing <> [] then Printf.printf "   %d check(s) failed across rounds\n" (List.length failing);
  Printf.printf "   %-12s %s\n" "determinism"
    (if deterministic then "ok: every round printed the same virtual metrics"
     else "FAIL: virtual metrics differ between rounds");
  Printf.printf "-- per-layer (measured phase, first round)\n";
  List.iter
    (fun (m : Layers.metric) ->
      match m.absent with
      | None -> Printf.printf "   %-34s %14s %s\n" m.name (fmt_value m.value) m.unit_
      | Some why -> Printf.printf "   %-34s %14s (%s)\n" m.name "absent" why)
    first.H.layers;
  if first.H.layers = [] then
    Printf.printf "   absent: the round aborted before its measured phase ended\n";
  let overhead =
    if traced = [] then nan else 1.0 -. (H.host_ops_per_s traced /. H.host_ops_per_s untraced)
  in
  if trace then begin
    Printf.printf "-- traced run\n";
    Printf.printf "   virtual metrics byte-identical to untraced: %b\n" deterministic;
    Printf.printf "   tracing overhead: %s of host_ops_per_s (%s traced vs %s untraced)\n"
      (fmt_value overhead) (fmt_value (H.host_ops_per_s traced)) (fmt_value (H.host_ops_per_s untraced));
    match List.rev traced with
    | r :: _ ->
      let mean_lat =
        let ok = List.filter Float.is_finite (Array.to_list r.H.lat) in
        List.fold_left ( +. ) 0.0 ok /. float_of_int (max 1 (List.length ok))
      in
      Printf.printf "   %-20s %14s %s\n" "layer" "vns/op" "share of mean op latency";
      List.iter
        (fun (name, v) -> Printf.printf "   %-20s %14.1f %5.1f%%\n" name v (100.0 *. v /. mean_lat))
        r.H.table;
      Printf.printf "   spans: %s\n" (write_spans ~spec ~seed r)
    | [] -> ()
  end;
  let correct = checks_ok && deterministic && first.H.aborted = None in
  let metric_json name unit_ v = (name, Json.Obj [ ("value", Json.num v); ("unit", Str unit_) ]) in
  let metrics =
    let value name =
      match List.find_opt (fun (m : Layers.metric) -> m.name = name) first.H.layers with
      | Some m -> m.value
      | None -> (
        match List.find_opt (fun (n, _, _) -> n = name) e2e with Some (_, _, v) -> v | None -> nan)
    in
    List.map
      (fun (name, unit_) -> metric_json name unit_ (value name))
      (if trace then per_layer else end_to_end)
  in
  let full =
    Json.Obj
      [
        ("workload", Str spec.W.name);
        ("seed", Int seed);
        ("rounds", Int (List.length rounds));
        ("aborted", match first.H.aborted with Some e -> Str e | None -> Null);
        ( "vlat_tail",
          match vs.tail with
          | Some t ->
            Json.Obj
              [
                ("percentile", Num t.t_pct);
                ("samples", Int t.t_samples);
                ("beyond", Int t.t_beyond);
              ]
          | None -> Null );
        ("tracing_overhead", Json.num overhead);
        ("end_to_end", Obj (List.map (fun (n, u, v) -> metric_json n u v) e2e));
        ( "per_layer",
          Obj
            (List.map
               (fun (m : Layers.metric) ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.num m.value);
                       ("unit", Str m.unit_);
                       ("absent", match m.absent with Some w -> Str w | None -> Null);
                     ] ))
               first.H.layers) );
      ]
  in
  Printf.printf "report: %s\n" (Json.to_string full);
  Printf.printf "%s\n%!"
    (Json.to_string
       (Json.Obj
          [
            ("correct", Bool correct);
            ("attempted", Int acct.attempted);
            ("failed", Int acct.failed);
            ("metrics", Obj metrics);
          ]))

let () =
  let specs, seed, seconds, trace = parse_args () in
  List.iter (fun spec -> report spec ~seed ~seconds ~trace) specs
