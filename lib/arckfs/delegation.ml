(* Opportunistic delegation (paper §4.5, following OdinFS).

   Optane collapses under excessive concurrent access and remote-socket
   traffic.  ArckFS therefore routes bulk data accesses through a fixed
   pool of delegation fibers — a few per NUMA node, pinned to that node,
   shared by all LibFSes.  Application fibers place requests in a
   bounded ring buffer (one channel per node) and wait for completion;
   delegation fibers always perform *local* NVM access, and striping a
   file's data across nodes lets one large operation use the aggregate
   bandwidth of the whole machine.

   Small accesses are not worth the round trip and are performed
   directly: reads under 32 KiB, writes under 256 B (the paper's
   thresholds). *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf

type op =
  | Op_write of Bytes.t * int (* source buffer, offset within it *)
  | Op_read of Bytes.t * int (* destination buffer, offset within it *)
  | Op_touch of bool (* cost-only transfer; [true] = write.  Used by the
                        OdinFS baseline model, which shares this engine *)

(* A request's outcome travels back through its ivar: a fault raised by
   the access (a lease revoked between submit and service faults with
   the requester's actor id) belongs to the submitting fiber, not to the
   delegation fiber that happened to perform it. *)
type request = {
  actor : int;
  addr : int;
  len : int;
  op : op;
  done_ : (unit, exn) result Sync.Ivar.t;
}

type t = {
  sched : Sched.t;
  pmem : Pmem.t;
  chans : request Sync.Chan.t array; (* one ring per node *)
  threads_per_node : int;
  read_threshold : int;
  write_threshold : int;
  stripe_pages : int; (* data striping granularity, in pages *)
  mutable requests : int;
}

let default_threads_per_node = 12
let default_read_threshold = 32 * 1024
let default_write_threshold = 256
let default_stripe_pages = 16 (* 64 KiB: a 2 MiB op spans every node *)

(* Per-request software overhead: ring-buffer enqueue/dequeue + wakeup. *)
let submit_cost = 150.0
let service_cost = 250.0

let worker t chan =
  try
    while true do
      let req = Sync.Chan.recv chan in
      Sched.cpu_work service_cost;
      let outcome =
        try
          Ok
            (match req.op with
            | Op_write (src, pos) ->
              Pmem.write_from t.pmem ~actor:req.actor ~addr:req.addr ~src ~pos ~len:req.len
            | Op_read (dst, pos) ->
              Pmem.read_into t.pmem ~actor:req.actor ~addr:req.addr ~dst ~pos ~len:req.len
            | Op_touch write -> Pmem.touch t.pmem ~actor:req.actor ~addr:req.addr ~len:req.len ~write)
        with
        | (Sched.Stopped | Sched.Killed) as e -> raise e
        | e -> Error e
      in
      Sync.Ivar.fill req.done_ outcome
    done
  with Sync.Chan.Closed | Sched.Stopped -> ()

let create ~sched ~pmem ?(threads_per_node = default_threads_per_node)
    ?(read_threshold = default_read_threshold) ?(write_threshold = default_write_threshold)
    ?(stripe_pages = default_stripe_pages) () =
  let topo = Pmem.topo pmem in
  let nodes = Numa.nodes topo in
  let t =
    {
      sched;
      pmem;
      chans = Array.init nodes (fun _ -> Sync.Chan.create 1024);
      threads_per_node;
      read_threshold;
      write_threshold;
      stripe_pages;
      requests = 0;
    }
  in
  for node = 0 to nodes - 1 do
    for i = 0 to threads_per_node - 1 do
      let cpu = Numa.cpu_of_node_local topo ~node ~local:(i mod Numa.cpus_per_node topo) in
      Sched.spawn ~cpu sched (fun () -> worker t t.chans.(node))
    done
  done;
  t

let shutdown t = Array.iter Sync.Chan.close t.chans

let should_delegate t ~write ~len =
  if write then len >= t.write_threshold else len >= t.read_threshold

let node_of_addr t addr = addr / (Pmem.pages_per_node t.pmem * Pmem.page_size)

(* Submit one contiguous run and return its completion ivar. *)
let submit t ~actor ~addr ~len ~op =
  t.requests <- t.requests + 1;
  Sched.cpu_work submit_cost;
  let done_ = Sync.Ivar.create () in
  let node = node_of_addr t addr in
  Sync.Chan.send t.chans.(node) { actor; addr; len; op; done_ };
  done_

(* Wait for every run of one call, then re-raise the first run's fault
   in the caller, as a direct access would have raised it. *)
let await ivars =
  let outcomes = List.map Sync.Ivar.read ivars in
  List.iter (function Ok () -> () | Error e -> raise e) outcomes

(* Perform a list of contiguous runs (addr, buffer offset, length) in
   parallel across delegation fibers, waiting for all completions. *)
let run_all t ~actor ~write ~buf runs =
  await
    (List.map
       (fun (addr, pos, len) ->
         let op = if write then Op_write (buf, pos) else Op_read (buf, pos) in
         submit t ~actor ~addr ~len ~op)
       runs)

(* Cost-only parallel transfer over explicit (addr, len) runs. *)
let touch_all t ~actor ~write runs =
  await (List.map (fun (addr, len) -> submit t ~actor ~addr ~len ~op:(Op_touch write)) runs)

let request_count t = t.requests
let stripe_pages t = t.stripe_pages
