(* One round of a workload: a fresh rig, set-up and warm-up, the
   measured phase, then the untimed checks.

   The rig boundary catches any exception that escapes a fiber (the
   simulator re-raises the first one): the round is then aborted, its
   exception is recorded by name, and every op of the budget that had
   not succeeded counts as failed. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Rng = Trio_util.Rng
module Rig = Trio_workloads.Rig
module W = Workloads

type round = {
  traced : bool;
  acct : Rules.accounting;
  aborted : string option;
  chunk_rates : float list; (* ops per host s over each [chunks]-th of the phase *)
  velapsed_ns : float; (* virtual ns of the measured phase *)
  lat : float array; (* virtual ns per budget op, issue order; inf = failed *)
  layers : Layers.metric list; (* [] when the round aborted *)
  table : (string * float) list;
  checks : W.check list; (* [] when the round aborted *)
  spans : Probe.span list;
  phases : (string * Layers.snapshot * Layers.snapshot) list;
}

(* Run [body client] in one fiber per client, pinned like the paper's
   harness pins threads, and wait for all of them. *)
let run_clients (rig : Rig.t) n body =
  let wg = Sync.Waitgroup.create n in
  for c = 0 to n - 1 do
    Sched.spawn ~cpu:(Trio_nvm.Numa.cpu_of_thread rig.Rig.topo c) rig.Rig.sched (fun () ->
        body c;
        Sync.Waitgroup.done_ wg)
  done;
  Sync.Waitgroup.wait wg

(* Independent clients do not start in lockstep: each begins its
   measured loop at a seeded offset of up to [max_stagger_ns] after the
   first, which starts at once (so a lone client never idles). *)
let max_stagger_ns = 5000.0

let stagger inputs n =
  let d = Array.init n (fun _ -> Rng.float inputs max_stagger_ns) in
  let first = Array.fold_left Float.min infinity d in
  Array.map (fun x -> x -. first) d

(* Simulator speed is sampled over this many equal slices of each
   measured phase; the median slice discounts bursts of host noise. *)
let chunks = 16

(* [xs] in the order its ops started (ops that never started last). *)
let by_start vstart xs =
  let order = Array.init (Array.length xs) Fun.id in
  Array.stable_sort (fun a b -> Float.compare vstart.(a) vstart.(b)) order;
  Array.map (fun k -> xs.(k)) order

(* The rig a workload asks for; [f] runs as its first fiber. *)
let with_rig (spec : W.spec) f =
  let cfg = spec.rig in
  Rig.run ~nodes:cfg.nodes ~cpus_per_node:cfg.cpus_per_node ~pages_per_node:cfg.pages_per_node
    ~store_data:cfg.store_data ?lease_ns:cfg.lease_ns f

(* Set-up and warm-up from the seed's inputs, each inside [phase]; the
   inputs stream is returned for the measured phase to go on drawing. *)
let prepare (spec : W.spec) rig p ~seed ~phase =
  let inputs = Rng.create seed in
  let inst = ref None in
  phase "setup" (fun _ -> inst := Some (spec.setup rig p inputs));
  let inst = Option.get !inst in
  phase "warmup" (fun id ->
      run_clients rig spec.clients (fun c ->
          p.Probe.op_span.(c) <- id;
          for i = 0 to inst.W.warmup - 1 do
            ignore (inst.W.step ~client:c i)
          done));
  (inst, inputs)

(* Host seconds to build a rig, set the workload up and warm it up, as
   at the start of a round; nan when that raises. *)
let time_setup (spec : W.spec) ~seed =
  Gc.compact ();
  let h0 = Probe.host_now () and h1 = ref nan in
  (try
     with_rig spec (fun rig ->
         let p = Probe.create ~sched:rig.Rig.sched ~clients:spec.clients ~tracing:false in
         ignore (prepare spec rig p ~seed ~phase:(fun _ f -> f 0));
         h1 := Probe.host_now ())
   with _ -> ());
  !h1 -. h0

let run (spec : W.spec) ~seed ~traced =
  let budget = spec.clients * spec.quota in
  (* every round starts from a compacted heap, so it does not pay for
     the garbage of the rounds before it *)
  Gc.compact ();
  let vstart = Array.make budget infinity in
  let lat = Array.make budget infinity in
  let host = Array.make budget infinity in
  let succeeded = ref 0 in
  let v0 = ref 0.0 and v1 = ref 0.0 in
  let chunk = max 1 (budget / chunks) and completed = ref 0 and last = ref nan and rates = ref [] in
  let layers = ref [] and table = ref [] and checks = ref [] in
  let probe = ref None and phases = ref [] in
  let aborted =
    match
      with_rig spec (fun rig ->
          let p = Probe.create ~sched:rig.Rig.sched ~clients:spec.clients ~tracing:traced in
          probe := Some p;
          let phase name f =
            let id = Probe.open_span p ~parent:0 ~name ~req:0 ~client:0 in
            let before = if traced then Some (Layers.snapshot rig p) else None in
            let r = f id in
            Probe.close_span p id;
            Option.iter (fun b -> phases := (name, b, Layers.snapshot rig p) :: !phases) before;
            r
          in
          let inst, inputs = prepare spec rig p ~seed ~phase in
          let before = Layers.snapshot rig p in
          let stagger = stagger inputs spec.clients in
          phase "measure" (fun id ->
              v0 := Sched.now rig.Rig.sched;
              last := Probe.host_now ();
              run_clients rig spec.clients (fun c ->
                  Sched.delay stagger.(c);
                  for i = 0 to spec.quota - 1 do
                    let k = (c * spec.quota) + i in
                    let sp = Probe.open_span p ~parent:id ~name:"op" ~req:(k + 1) ~client:c in
                    p.Probe.op_span.(c) <- sp;
                    p.Probe.op_req.(c) <- k + 1;
                    let vs = Sched.now rig.Rig.sched and hs = Probe.host_now () in
                    vstart.(k) <- vs;
                    if inst.W.step ~client:c (inst.W.warmup + i) then begin
                      incr succeeded;
                      lat.(k) <- Sched.now rig.Rig.sched -. vs;
                      host.(k) <- Probe.host_now () -. hs
                    end;
                    Probe.close_span p sp;
                    incr completed;
                    if !completed mod chunk = 0 then begin
                      let now = Probe.host_now () in
                      if now > !last then rates := (float_of_int chunk /. (now -. !last)) :: !rates;
                      last := now
                    end
                  done);
              v1 := Sched.now rig.Rig.sched);
          let after = Layers.snapshot rig p in
          let ops = !succeeded in
          layers :=
            Layers.derive ~ops ~b:before ~a:after ~lat:(by_start vstart lat)
              ~host:(by_start vstart host);
          table := Layers.layer_table ~ops ~b:before ~a:after;
          checks := phase "check" (fun _ -> inst.W.check ()))
    with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  {
    traced;
    acct = Rules.account ~budget ~succeeded:!succeeded;
    aborted;
    chunk_rates = !rates;
    velapsed_ns = !v1 -. !v0;
    lat = by_start vstart lat;
    layers = !layers;
    table = !table;
    checks = !checks;
    spans = (match !probe with Some p -> List.rev p.Probe.spans | None -> []);
    phases = List.rev !phases;
  }

(* The round's virtual-time results.  They depend only on the seed, so
   every round of a run (traced or not) must print them identically;
   [vsummary_repr] also covers every per-layer metric that does not
   read the host. *)
type vsummary = {
  vops_per_ms : float;
  vlat_p50_us : float;
  tail : Rules.tail option;
}

let vsummary r =
  let aborted = r.aborted <> None in
  let sorted = Rules.sorted r.lat in
  {
    vops_per_ms = Rules.vops_per_ms ~aborted ~succeeded:r.acct.succeeded ~elapsed_ns:r.velapsed_ns;
    vlat_p50_us = Rules.percentile_sorted sorted 50.0 /. 1e3;
    tail = Rules.tail r.lat;
  }

let host_dependent (m : Layers.metric) =
  String.starts_with ~prefix:"gc." m.name || m.name = "bench.host_drift"

let vsummary_repr r =
  let s = vsummary r in
  String.concat " "
    (Printf.sprintf "%.17g %.17g %s" s.vops_per_ms s.vlat_p50_us
       (match s.tail with
       | Some t -> Printf.sprintf "p%g=%.17g/%d" t.t_pct t.t_value t.t_beyond
       | None -> "none")
    :: List.filter_map
         (fun (m : Layers.metric) ->
           if host_dependent m then None else Some (Printf.sprintf "%s=%.17g" m.name m.value))
         r.layers)

(* Simulator speed over [rounds]: the median slice rate.  An aborted
   run has no goodput, so its simulator speed is 0 for the same reason. *)
let host_ops_per_s rounds =
  if List.exists (fun r -> r.aborted <> None) rounds then 0.0
  else Rules.median (List.concat_map (fun r -> r.chunk_rates) rounds)
