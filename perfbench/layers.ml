(* Per-layer counters: a snapshot of every layer's public counters, and
   the per-layer metrics derived from two snapshots taken around a
   measured phase.  perfbench/README.md says which end-to-end metric
   each one should move, and on which workload. *)

module Sched = Trio_sim.Sched
module Stats = Trio_sim.Stats
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Controller = Trio_core.Controller
module Mmu = Trio_core.Mmu
module Libfs = Arckfs.Libfs
module Delegation = Arckfs.Delegation
module Rig = Trio_workloads.Rig

type snapshot = (string, float) Hashtbl.t

let get (s : snapshot) k = Option.value (Hashtbl.find_opt s k) ~default:0.0

let snapshot (rig : Rig.t) (probe : Probe.t) : snapshot =
  let s = Hashtbl.create 128 in
  let set k v = Hashtbl.replace s k v in
  let add k v = set k (get s k +. v) in
  List.iter (fun (k, v) -> set ("ctl:" ^ k) v) (Stats.to_list (Controller.stats rig.Rig.ctl));
  List.iter
    (fun m ->
      let st = Libfs.stats_of m in
      add "libfs:rebuild" (Stats.get st "rebuild");
      add "libfs:media_retries" (Stats.get st "libfs.media.retries"))
    rig.Rig.mounts;
  set "mmu:pte_ops" (float_of_int (Mmu.pte_ops rig.Rig.mmu));
  for node = 0 to Numa.nodes rig.Rig.topo - 1 do
    let _, rd, wr = Pmem.node_stats rig.Rig.pmem node in
    add "nvm:bytes_read" rd;
    add "nvm:bytes_written" wr
  done;
  set "nvm:persists" (float_of_int (Pmem.persist_count rig.Rig.pmem));
  set "nvm:pages" (float_of_int (Pmem.materialized_pages rig.Rig.pmem));
  List.iter
    (fun (sh : Controller.shard_stat) ->
      add "alloc:refills" (float_of_int sh.ss_pool_refills);
      add "alloc:drains" (float_of_int sh.ss_pool_drains))
    (Controller.shard_stats rig.Rig.ctl);
  let acq, cross = Controller.lock_stats rig.Rig.ctl in
  set "shard:acq" (float_of_int acq);
  set "shard:cross" (float_of_int cross);
  List.iter
    (fun (r : Controller.ring_stat) ->
      add "ring:rings" (float_of_int r.rg_rings);
      add "ring:ops" (float_of_int r.rg_ops);
      add "ring:batches" (float_of_int r.rg_batches);
      add "ring:fused" (float_of_int r.rg_fused);
      add "ring:sq_park_ns" r.rg_sq_park_ns;
      add "ring:cq_parks" (float_of_int r.rg_cq_parks))
    (Controller.ring_stats rig.Rig.ctl);
  List.iter
    (fun (q : Controller.qos_tenant_stats) -> add "qos:throttle_ns" q.ts_throttle_ns)
    (Controller.qos_stats rig.Rig.ctl);
  if Lazy.is_val rig.Rig.delegation then
    set "deleg:requests" (float_of_int (Delegation.request_count (Lazy.force rig.Rig.delegation)));
  set "sim:events" (float_of_int (Sched.events_processed rig.Rig.sched));
  let gc = Gc.quick_stat () in
  set "gc:minor_words" gc.Gc.minor_words;
  set "gc:major_collections" (float_of_int gc.Gc.major_collections);
  Hashtbl.iter
    (fun name (c : Probe.counter) ->
      set ("call:" ^ name ^ ":calls") (float_of_int c.calls);
      set ("call:" ^ name ^ ":vns") c.vns;
      set ("call:" ^ name ^ ":errors") (float_of_int c.errors))
    probe.Probe.counters;
  set "probe:user_bytes" probe.Probe.user_bytes;
  s

(* A derived metric; [value] is nan when it does not apply, and
   [absent] then says why. *)
type metric = { name : string; unit_ : string; value : float; absent : string option }

let metric ~why_absent name unit_ value =
  if Float.is_finite value then { name; unit_; value; absent = None }
  else { name; unit_; value = nan; absent = Some why_absent }

let present = metric ~why_absent:"no op succeeded"

(* Every per-layer metric of one measured phase of [ops] workload ops,
   from the snapshots [b] (before) and [a] (after).  [lat] and [host]
   are the phase's per-op virtual latencies and host durations in issue
   order. *)
let derive ~ops ~(b : snapshot) ~(a : snapshot) ~lat ~host =
  let d k = get a k -. get b k in
  let per k = Rules.per_op ~ops (d k) in
  let ratio = Rules.ratio in
  let calls =
    List.concat_map
      (fun c ->
        let k = "call:" ^ c in
        let n = d (k ^ ":calls") in
        [
          present ("libfs." ^ c ^ ".calls") "count" n;
          metric ~why_absent:"not called by this workload"
            ("libfs." ^ c ^ ".vns_per_call")
            "ns" (ratio (d (k ^ ":vns")) n);
          present ("libfs." ^ c ^ ".errors") "count" (d (k ^ ":errors"));
        ])
      Probe.call_names
  in
  let verify_runs = d "ctl:verify.full" +. d "ctl:verify.incremental" in
  let no_ring = "no ring mounted" in
  let ring name unit_ v =
    if get a "ring:rings" = 0.0 then metric ~why_absent:no_ring name unit_ nan
    else metric ~why_absent:"no ring ops drained" name unit_ v
  in
  calls
  @ [
      metric ~why_absent:"too few ops for deciles" "bench.vlat_drift" "ratio" (Rules.drift lat);
      metric ~why_absent:"too few ops for deciles" "bench.host_drift" "ratio" (Rules.drift host);
      present "libfs.rebuild.vns_per_op" "ns/op" (per "libfs:rebuild");
      present "libfs.media_retries" "count" (d "libfs:media_retries");
      present "ctl.map.vns_per_op" "ns/op" (per "ctl:map");
      present "ctl.unmap.vns_per_op" "ns/op" (per "ctl:unmap");
      present "ctl.verify.vns_per_op" "ns/op" (per "ctl:verify");
      present "ctl.verify.runs_per_op" "1/op" (Rules.per_op ~ops verify_runs);
      present "ctl.verify.queue_depth_max" "count" (get a "ctl:verify.queue.depth.max");
      metric ~why_absent:"no verification ran" "ctl.verify.full_frac" "ratio"
        (ratio (d "ctl:verify.full") verify_runs);
    ]
  @ List.map
      (fun i ->
        let k = Printf.sprintf "verify.i%d" i in
        present (k ^ ".vns_per_op") "ns/op" (per ("ctl:" ^ k)))
      [ 1; 2; 3; 4; 5 ]
  @ [
      present "verify.i5.violations" "count" (d "ctl:verify.i5.violations");
      metric ~why_absent:"no verifier page fetches" "verify.dirty_hit_frac" "ratio"
        (let hits = d "ctl:verify.dirty.hits" in
         ratio hits (hits +. d "ctl:verify.dirty.misses"));
      present "dindex.descents_per_op" "1/op" (per "ctl:verify.dindex.descents");
      present "dindex.splits_per_op" "1/op" (per "ctl:verify.dindex.splits");
      present "dindex.range_scans" "count" (d "ctl:verify.dindex.range_scans");
      present "mmu.pte_ops_per_op" "1/op" (per "mmu:pte_ops");
      metric ~why_absent:"no user bytes written" "nvm.bytes_written_per_user_byte" "ratio"
        (ratio (d "nvm:bytes_written") (d "probe:user_bytes"));
      present "nvm.bytes_read_per_op" "B/op" (per "nvm:bytes_read");
      present "nvm.persists_per_op" "1/op" (per "nvm:persists");
      present "nvm.pages_touched_per_op" "1/op" (per "nvm:pages");
      present "alloc.pool_refills" "count" (d "alloc:refills");
      present "alloc.pool_drains" "count" (d "alloc:drains");
      present "shard.lock_acq_per_op" "1/op" (per "shard:acq");
      metric ~why_absent:"no shard lock taken" "shard.cross_frac" "ratio"
        (ratio (d "shard:cross") (d "shard:acq"));
      ring "ring.ops_per_batch" "1/batch" (ratio (d "ring:ops") (d "ring:batches"));
      ring "ring.fused_frac" "ratio" (ratio (d "ring:fused") (d "ring:ops"));
      ring "ring.sq_park_vns_per_op" "ns/op" (per "ring:sq_park_ns");
      ring "ring.cq_parks_per_op" "1/op" (per "ring:cq_parks");
      present "qos.throttle_vns" "ns" (d "qos:throttle_ns");
      metric ~why_absent:"delegation not mounted" "deleg.requests_per_op" "1/op"
        (if Hashtbl.mem a "deleg:requests" then per "deleg:requests" else nan);
      present "sim.events_per_op" "1/op" (per "sim:events");
      present "gc.minor_words_per_op" "words/op" (per "gc:minor_words");
      present "gc.major_collections" "count" (d "gc:major_collections");
    ]

(* Virtual ns per op spent in each layer the benchmark can attribute,
   for the traced run's layer table.  Layers nest (a map runs inside an
   open) and verification runs in background fibers, so shares of op
   latency overlap and need not sum to 100%. *)
let layer_table ~ops ~(b : snapshot) ~(a : snapshot) =
  let d k = get a k -. get b k in
  let per k = Rules.per_op ~ops (d k) in
  List.filter_map
    (fun c ->
      let v = per ("call:" ^ c ^ ":vns") in
      if v > 0.0 then Some ("libfs." ^ c, v) else None)
    Probe.call_names
  @ List.filter
      (fun (_, v) -> v > 0.0)
      [
        ("libfs.rebuild", per "libfs:rebuild");
        ("ctl.map", per "ctl:map");
        ("ctl.unmap", per "ctl:unmap");
        ("ctl.verify", per "ctl:verify");
        ("verify.i1", per "ctl:verify.i1");
        ("verify.i2", per "ctl:verify.i2");
        ("verify.i3", per "ctl:verify.i3");
        ("verify.i4", per "ctl:verify.i4");
        ("verify.i5", per "ctl:verify.i5");
        ("ring.sq_park", per "ring:sq_park_ns");
        ("qos.throttle", per "qos:throttle_ns");
      ]
