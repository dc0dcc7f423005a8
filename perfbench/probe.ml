(* The benchmark's own op boundary: per-call counters around every
   Fs_intf call a workload makes, and (in a traced run) spans.

   Spans carry virtual and host start/end times.  Recording one only
   reads the clocks; it never advances virtual time, so a traced run
   replays the untraced run's virtual timeline exactly. *)

module Sched = Trio_sim.Sched
module Fs = Trio_core.Fs_intf

(* Calls the benchmark times, in report order.  [unmap_everything] is
   the LibFS teardown entry point the share-data handoff goes through. *)
let call_names =
  [
    "open"; "create"; "close"; "unlink"; "pwrite"; "pread"; "append"; "stat"; "fsync";
    "unmap_everything";
  ]

type counter = { mutable calls : int; mutable vns : float; mutable errors : int }

type span = {
  id : int;
  parent : int; (* 0: no parent *)
  name : string;
  req : int; (* request id of the workload op; 0 for phases *)
  client : int;
  v0 : float;
  mutable v1 : float;
  h0 : float;
  mutable h1 : float;
}

type t = {
  sched : Sched.t;
  counters : (string, counter) Hashtbl.t;
  tracing : bool;
  mutable spans : span list; (* newest first *)
  mutable next_id : int;
  op_span : int array; (* per client: span id of its op in flight *)
  op_req : int array; (* per client: request id of its op in flight *)
  mutable user_bytes : float; (* bytes acknowledged by pwrite/append *)
}

(* Host time is this process's CPU time: the simulator runs on one
   thread, so it tracks wall time without the time the OS gave others. *)
let host_now = Sys.time

let create ~sched ~clients ~tracing =
  let counters = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace counters n { calls = 0; vns = 0.0; errors = 0 }) call_names;
  {
    sched;
    counters;
    tracing;
    spans = [];
    next_id = 1;
    op_span = Array.make clients 0;
    op_req = Array.make clients 0;
    user_bytes = 0.0;
  }

let open_span t ~parent ~name ~req ~client =
  if not t.tracing then 0
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let now = Sched.now t.sched in
    let s = { id; parent; name; req; client; v0 = now; v1 = now; h0 = host_now (); h1 = 0.0 } in
    t.spans <- s :: t.spans;
    id
  end

(* Spans close in LIFO order per client, so the open span is found
   near the head of the list. *)
let close_span t id =
  if id > 0 then
    match List.find_opt (fun s -> s.id = id) t.spans with
    | Some s ->
      s.v1 <- Sched.now t.sched;
      s.h1 <- host_now ()
    | None -> ()

(* Time one call of [name] made on behalf of [client]. *)
let call t ~client name ~ok f =
  let c = Hashtbl.find t.counters name in
  let sp =
    open_span t ~parent:t.op_span.(client) ~name:("libfs." ^ name) ~req:t.op_req.(client) ~client
  in
  let v0 = Sched.now t.sched in
  (* an exception aborts the whole round, so only returns are counted *)
  let r = f () in
  c.calls <- c.calls + 1;
  c.vns <- c.vns +. (Sched.now t.sched -. v0);
  if not (ok r) then c.errors <- c.errors + 1;
  close_span t sp;
  r

(* [fs] as seen through the probe, for [client]. *)
let wrap t ~client (fs : Fs.t) =
  let call name f = call t ~client name ~ok:Result.is_ok f in
  let written r =
    (match r with Ok n -> t.user_bytes <- t.user_bytes +. float_of_int n | Error _ -> ());
    r
  in
  {
    fs with
    Fs.create = (fun p m -> call "create" (fun () -> fs.Fs.create p m));
    open_ = (fun p fl -> call "open" (fun () -> fs.Fs.open_ p fl));
    close = (fun fd -> call "close" (fun () -> fs.Fs.close fd));
    unlink = (fun p -> call "unlink" (fun () -> fs.Fs.unlink p));
    pread = (fun fd b off -> call "pread" (fun () -> fs.Fs.pread fd b off));
    pwrite = (fun fd b off -> written (call "pwrite" (fun () -> fs.Fs.pwrite fd b off)));
    append = (fun fd b -> written (call "append" (fun () -> fs.Fs.append fd b)));
    stat = (fun p -> call "stat" (fun () -> fs.Fs.stat p));
    fsync = (fun fd -> call "fsync" (fun () -> fs.Fs.fsync fd));
  }
