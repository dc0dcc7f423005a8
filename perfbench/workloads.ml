(* The four workloads.  Each builds its processes on a fresh rig,
   generates every name, offset and op choice from the run's seed, and
   keeps a model of what its acknowledged ops imply, which the untimed
   checks compare the file system against.

   All four are closed loops: each client issues its next op only when
   the previous one has returned. *)

module Fs = Trio_core.Fs_intf
module Rng = Trio_util.Rng
module Pmem = Trio_nvm.Pmem
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Rig = Trio_workloads.Rig
open Trio_core.Fs_types

type rig_cfg = {
  nodes : int;
  cpus_per_node : int;
  pages_per_node : int;
  store_data : bool;
  lease_ns : float option;
}

type check = { c_name : string; c_ok : bool; c_detail : string }

(* One workload on one rig.  A client's ops are numbered from 0; the
   first [warmup] are the unmeasured warm-up, the next [spec.quota]
   the measured phase.  [step] runs one and says whether it succeeded. *)
type instance = {
  warmup : int;
  step : client:int -> int -> bool;
  check : unit -> check list;
}

type spec = {
  name : string;
  shape : string;
  why : string;
  rig : rig_cfg;
  clients : int;
  quota : int; (* measured ops per client per round *)
  setup : Rig.t -> Probe.t -> Rng.t -> instance;
}

(* ------------------------------------------------------------------ *)
(* Generated inputs *)

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

(* A fresh name, unique within [seen], of 8 to 24 characters. *)
let rec gen_name rng seen prefix =
  let len = Rng.in_range rng ~lo:8 ~hi:24 in
  let name =
    prefix ^ String.init len (fun _ -> alphabet.[Rng.int rng (String.length alphabet)])
  in
  if Hashtbl.mem seen name then gen_name rng seen prefix
  else begin
    Hashtbl.add seen name ();
    name
  end

let gen_names rng seen prefix n = Array.init n (fun _ -> gen_name rng seen prefix)
let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ errno_to_string e)
let mk_check c_name c_ok c_detail = { c_name; c_ok; c_detail }

let sorted_names fs dir =
  match fs.Fs.readdir dir with
  | Ok l -> Ok (List.sort compare (List.map (fun d -> d.d_name) l))
  | Error e -> Error (errno_to_string e)

(* [dir] holds exactly [expected]. *)
let dir_matches fs dir expected =
  match sorted_names fs dir with
  | Error e -> Error (Printf.sprintf "readdir %s: %s" dir e)
  | Ok got ->
    let want = List.sort compare expected in
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "%s holds %d names, expected %d" dir (List.length got) (List.length want))

let all_ok = List.fold_left (fun acc r -> match acc with Error _ -> acc | Ok () -> r) (Ok ())

(* The checks every workload ends with, against a [model] check run on
   a fresh process's view of the file system:
   - namespace and sizes match the model after a clean teardown;
   - a Full-mode audit certifies every file;
   - the page/inode ledger balances with nothing leaked;
   - after a power cut (unflushed lines dropped) and a cold start of
     the controller from NVM alone, the model still holds. *)
let standard_checks (rig : Rig.t) model =
  let cred = { uid = 1000; gid = 1000 } in
  List.iter Libfs.unmap_everything rig.Rig.mounts;
  let viewer = Rig.mount_arckfs ~delegated:false rig in
  let ns = model (Libfs.ops viewer) in
  Libfs.unmap_everything viewer;
  let files, bad = Controller.audit_all rig.Rig.ctl in
  let gc = Controller.gc_once rig.Rig.ctl in
  rig.Rig.mounts <- [];
  Pmem.crash rig.Rig.pmem;
  let cut =
    match
      Controller.cold_start ~sched:rig.Rig.sched ~pmem:rig.Rig.pmem
        ~mmu:(Mmu.create rig.Rig.pmem) ()
    with
    | Error e -> Error ("cold start: " ^ e)
    | Ok ctl2 ->
      let after = Libfs.mount ~ctl:ctl2 ~proc:(Rig.fresh_proc rig) ~cred () in
      let r = model (Libfs.ops after) in
      Libfs.unmap_everything after;
      r
  in
  let of_result name = function
    | Ok () -> mk_check name true "ok"
    | Error e -> mk_check name false e
  in
  [
    of_result "namespace" ns;
    mk_check "audit_all" (bad = 0) (Printf.sprintf "%d files, %d failing" files bad);
    mk_check "gc_ledger"
      (gc.Controller.gc_invariant_ok && gc.Controller.gc_leaked = 0)
      (Format.asprintf "%a" Controller.pp_gc_report gc);
    of_result "power_cut" cut;
  ]

(* create -> close -> unlink of [path]; true when all three succeed.
   [live] records the names an acknowledged create left behind. *)
let churn fs live path =
  match fs.Fs.create path 0o644 with
  | Error _ -> false
  | Ok fd ->
    Hashtbl.replace live path ();
    let closed = Result.is_ok (fs.Fs.close fd) in
    let unlinked = Result.is_ok (fs.Fs.unlink path) in
    if unlinked then Hashtbl.remove live path;
    closed && unlinked

let live_in live dir =
  Hashtbl.fold
    (fun p () acc -> if Filename.dirname p = dir then Filename.basename p :: acc else acc)
    live []

(* Tab 3's machine: the lease is scaled with the file as in bench/main.ml *)
let sharing_rig =
  {
    nodes = 2;
    cpus_per_node = 4;
    pages_per_node = 1 lsl 16;
    store_data = false;
    lease_ns = Some 12.5e6;
  }

(* ------------------------------------------------------------------ *)
(* share-meta: Tab 3 / Fig 8 create-100 *)

let share_meta =
  let clients = 2 and warmup = 4 and quota = 150 and base = 100 in
  let setup rig probe rng =
    let seen = Hashtbl.create 1024 in
    let dir = "/" ^ gen_name rng seen "s" in
    let libs =
      Array.init clients (fun _ -> Rig.mount_arckfs ~delegated:false ~unmap_after_write:true rig)
    in
    let raw = Libfs.ops libs.(0) in
    ok_or_fail "mkdir" (raw.Fs.mkdir dir 0o777);
    let base_names = gen_names rng seen "b" base in
    Array.iter
      (fun n ->
        let fd = ok_or_fail "create" (raw.Fs.create (dir ^ "/" ^ n) 0o644) in
        ok_or_fail "close" (raw.Fs.close fd))
      base_names;
    Libfs.unmap_everything libs.(0);
    let fss = Array.mapi (fun client l -> Probe.wrap probe ~client (Libfs.ops l)) libs in
    let names =
      Array.init clients (fun c -> gen_names rng seen (Printf.sprintf "c%d" c) (warmup + quota))
    in
    let live = Hashtbl.create 16 in
    let step ~client i = churn fss.(client) live (dir ^ "/" ^ names.(client).(i)) in
    let model fs = dir_matches fs dir (Array.to_list base_names @ live_in live dir) in
    { warmup; step; check = (fun () -> standard_checks rig model) }
  in
  {
    name = "share-meta";
    shape =
      "2 untrusted processes (unmap_after_write), create->close->unlink in one shared directory \
       of 100 entries";
    why =
      "the paper's sharing cost: every op hands the directory through map/unmap, the verifier, \
       checkpoint, dir index and aux-state rebuild";
    rig = sharing_rig;
    clients;
    quota;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* share-data: the Fig 8 16 MiB row as explicit handoffs *)

let share_data =
  let file_size = 16 * 1024 * 1024 and writes = 8 and page = 4096 in
  let warmup = 2 and quota = 100 in
  let setup rig probe rng =
    let seen = Hashtbl.create 4 in
    let path = "/" ^ gen_name rng seen "f" in
    let libs = Array.init 2 (fun _ -> Rig.mount_arckfs ~delegated:false rig) in
    let raw = Libfs.ops libs.(0) in
    ok_or_fail "close" (raw.Fs.close (ok_or_fail "create" (raw.Fs.create path 0o666)));
    ok_or_fail "truncate" (raw.Fs.truncate path file_size);
    Libfs.unmap_everything libs.(0);
    let fss = Array.map (fun l -> Probe.wrap probe ~client:0 (Libfs.ops l)) libs in
    (* 4 KiB of seeded bytes at a random page-aligned offset *)
    let gen_write () = (Rng.int rng (file_size / page) * page, Rng.bytes rng page) in
    let ops = Array.init (warmup + quota) (fun _ -> Array.init writes (fun _ -> gen_write ())) in
    (* the file as its acknowledged writes leave it *)
    let shadow = Bytes.make file_size '\000' in
    let step ~client:_ i =
      let p = i land 1 in
      let fs = fss.(p) in
      match fs.Fs.open_ path [ O_RDWR ] with
      | Error _ -> false
      | Ok fd ->
        let wrote =
          Array.for_all
            (fun (off, data) ->
              match fs.Fs.pwrite fd data off with
              | Ok n when n = Bytes.length data ->
                Bytes.blit data 0 shadow off n;
                true
              | _ -> false)
            ops.(i)
        in
        let closed = Result.is_ok (fs.Fs.close fd) in
        Probe.call probe ~client:0 "unmap_everything" ~ok:(fun () -> true) (fun () ->
            Libfs.unmap_everything libs.(p));
        wrote && closed
    in
    let model fs =
      match fs.Fs.open_ path [ O_RDONLY ] with
      | Error e -> Error ("open: " ^ errno_to_string e)
      | Ok fd ->
        let chunk = 65536 in
        let buf = Bytes.create chunk in
        (* compare [chunk]-sized reads against the shadow up to EOF *)
        let rec go off =
          match fs.Fs.pread fd buf off with
          | Error e -> Error ("pread: " ^ errno_to_string e)
          | Ok 0 when off = file_size -> Ok ()
          | Ok n when off + n <= file_size && Bytes.sub buf 0 n = Bytes.sub shadow off n ->
            go (off + n)
          | Ok _ when off >= file_size -> Error (Printf.sprintf "longer than %d bytes" file_size)
          | Ok 0 -> Error (Printf.sprintf "size %d, expected %d" off file_size)
          | Ok _ -> Error (Printf.sprintf "acknowledged bytes differ near offset %d" off)
        in
        let r = go 0 in
        ignore (fs.Fs.close fd);
        r
    in
    { warmup; step; check = (fun () -> standard_checks rig model) }
  in
  {
    name = "share-data";
    shape =
      "1 client alternating 2 untrusted processes over a 16 MiB file: open, 8 pwrites of 4 KiB \
       at random page-aligned offsets, close, unmap_everything";
    why =
      "the controller layer over a large file's page set: MMU grant/revoke and incremental \
       verification against the delta checkpoint, no dir index";
    rig = { sharing_rig with store_data = true };
    clients = 1;
    quota;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* private-mix: Filebench fileserver, 8 threads of one process *)

type mix_op = Rewrite | Append | Read_whole | Delete_create | Stat

(* The fileserver personality's mix, in its order. *)
let fileserver_mix = [| Rewrite; Append; Read_whole; Delete_create; Stat; Append |]

let private_mix =
  let clients = 8 and warmup = 6 and quota = 500 in
  let nfiles = 64 and file_size = 128 * 1024 and io_write = 64 * 1024 and io_read = 1024 * 1024 in
  let setup rig probe rng =
    let lib = Rig.mount_arckfs ~delegated:true rig in
    let raw = Libfs.ops lib in
    let seen = Hashtbl.create 1024 in
    let dirs =
      Array.init clients (fun c ->
          let top = gen_name rng seen (Printf.sprintf "t%d" c) in
          let d = Printf.sprintf "/%s/%s" top (gen_name rng seen "d") in
          ok_or_fail "mkdir_p" (Fs.mkdir_p raw d);
          d)
    in
    let files =
      Array.map (fun d -> Array.map (fun n -> d ^ "/" ^ n) (gen_names rng seen "f" nfiles)) dirs
    in
    let sizes = Hashtbl.create (clients * nfiles) in
    Array.iter
      (Array.iter (fun path ->
           let fd = ok_or_fail "create" (raw.Fs.create path 0o644) in
           ok_or_fail "truncate" (raw.Fs.truncate path file_size);
           ok_or_fail "close" (raw.Fs.close fd);
           Hashtbl.replace sizes path file_size))
      files;
    let fss = Array.init clients (fun client -> Probe.wrap probe ~client raw) in
    let picks =
      Array.init clients (fun _ -> Array.init (warmup + quota) (fun _ -> Rng.int rng nfiles))
    in
    let wbuf = Bytes.make io_write 'v' in
    let rbufs = Array.init clients (fun _ -> Bytes.create io_read) in
    let step ~client i =
      let fs = fss.(client) in
      let path = files.(client).(picks.(client).(i)) in
      let size = Hashtbl.find sizes path in
      let set n = Hashtbl.replace sizes path n in
      let ( let* ) r f = match r with Ok v -> f v | Error _ -> false in
      let rec append_n fd k =
        k = 0
        ||
        match fs.Fs.append fd wbuf with
        | Ok m when m = io_write -> append_n fd (k - 1)
        | _ -> false
      in
      match fileserver_mix.(i mod Array.length fileserver_mix) with
      | Rewrite ->
        let* fd = fs.Fs.open_ path [ O_RDWR; O_TRUNC ] in
        set 0;
        let ok = append_n fd (file_size / io_write) in
        if ok then set file_size;
        let* () = fs.Fs.close fd in
        ok
      | Append ->
        let* fd = fs.Fs.open_ path [ O_RDWR ] in
        let ok = append_n fd 1 in
        if ok then set (size + io_write);
        let* () = fs.Fs.close fd in
        ok
      | Read_whole ->
        let* fd = fs.Fs.open_ path [ O_RDONLY ] in
        let rec go off =
          match fs.Fs.pread fd rbufs.(client) off with
          | Ok n when n = io_read -> go (off + n)
          | Ok n -> off + n = size
          | Error _ -> false
        in
        let ok = go 0 in
        let* () = fs.Fs.close fd in
        ok
      | Delete_create ->
        let* () = fs.Fs.unlink path in
        Hashtbl.remove sizes path;
        let* fd = fs.Fs.create path 0o644 in
        set 0;
        let ok = append_n fd 1 in
        if ok then set io_write;
        let* () = fs.Fs.close fd in
        ok
      | Stat ->
        let* st = fs.Fs.stat path in
        st.st_size = size
    in
    let model fs =
      all_ok
        (Array.to_list
           (Array.mapi
              (fun c dir ->
                let live = List.filter (Hashtbl.mem sizes) (Array.to_list files.(c)) in
                match dir_matches fs dir (List.map Filename.basename live) with
                | Error _ as e -> e
                | Ok () ->
                  all_ok
                    (List.map
                       (fun p ->
                         match fs.Fs.stat p with
                         | Ok st when st.st_size = Hashtbl.find sizes p -> Ok ()
                         | Ok st ->
                           Error
                             (Printf.sprintf "%s: size %d, expected %d" p st.st_size
                                (Hashtbl.find sizes p))
                         | Error e -> Error (p ^ ": " ^ errno_to_string e))
                       live))
              dirs))
    in
    { warmup; step; check = (fun () -> standard_checks rig model) }
  in
  {
    name = "private-mix";
    shape =
      "1 process (delegation on), 8 threads, each on a private fileset of 64 files: Filebench \
       fileserver mix of rewrite, append, read, delete+create, stat";
    why =
      "the LibFS data path, journal, allocation caches and pools, delegation and the NVM \
       bandwidth model with warm caches and no handoffs";
    rig =
      {
        nodes = 1;
        cpus_per_node = 28;
        pages_per_node = 1 lsl 20;
        store_data = false;
        lease_ns = None;
      };
    clients;
    quota;
    setup;
  }

(* ------------------------------------------------------------------ *)
(* ring-churn: 16 ring-mounted processes in private directories *)

let ring_churn =
  let clients = 16 and warmup = 4 and quota = 250 and depth = 32 in
  let setup rig probe rng =
    let seen = Hashtbl.create 4096 in
    let libs =
      Array.init clients (fun _ ->
          Rig.mount_arckfs ~delegated:true ~unmap_after_write:true ~ring:depth rig)
    in
    let dirs =
      Array.mapi
        (fun c l ->
          let d = "/" ^ gen_name rng seen (Printf.sprintf "r%d" c) in
          ok_or_fail "mkdir" ((Libfs.ops l).Fs.mkdir d 0o755);
          d)
        libs
    in
    let fss = Array.mapi (fun client l -> Probe.wrap probe ~client (Libfs.ops l)) libs in
    let names = Array.init clients (fun _ -> gen_names rng seen "n" (warmup + quota)) in
    let live = Hashtbl.create 16 in
    let step ~client i = churn fss.(client) live (dirs.(client) ^ "/" ^ names.(client).(i)) in
    let model fs =
      all_ok (Array.to_list (Array.map (fun dir -> dir_matches fs dir (live_in live dir)) dirs))
    in
    { warmup; step; check = (fun () -> standard_checks rig model) }
  in
  {
    name = "ring-churn";
    shape =
      "16 processes on rings of depth 32 (unmap_after_write), create->close->unlink, each in a \
       private directory";
    why =
      "the only load carried by ring batching and fusion, the shard lock plane and drain fibers";
    rig =
      {
        nodes = 2;
        cpus_per_node = 8;
        pages_per_node = 1 lsl 16;
        store_data = false;
        lease_ns = None;
      };
    clients;
    quota;
    setup;
  }

let all = [ share_meta; share_data; private_mix; ring_churn ]
let find name = List.find_opt (fun s -> s.name = name) all
