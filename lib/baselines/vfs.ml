(* The baseline-file-system engine: a kernel VFS with pluggable per-FS
   cost models.

   The paper compares ArckFS against ext4(-DAX), PMFS, NOVA, WineFS,
   OdinFS (in-kernel) and SplitFS, Strata (userspace with a trusted
   metadata entity).  Re-implementing each of those systems byte-for-byte
   is neither possible nor necessary: the comparisons in the evaluation
   are *architectural*.  What each baseline pays per operation is well
   documented — kernel traps, VFS locking, journaling discipline, log +
   digestion, delegation — and those are exactly the costs this engine
   charges while executing a real namespace (so every workload, including
   the mini-LevelDB, runs unmodified and reads back real bytes).

   Scalability behaviour comes from first principles, not magic
   constants:
   - every operation of a kernel FS pays the trap cost;
   - the final path component bounces a dentry-refcount cacheline
     (a [Hotspot]), which is why opening the same file from many
     threads collapses (FxMark MRPH) while private files scale (MRPL);
   - directory modifications serialize on the parent's inode lock
     (MWCM flat for every kernel FS);
   - rename takes the global rename lock (MWRL/MWRM flat);
   - inode creation touches the inode-cache insertion point;
   - journaling: ext4/PMFS serialize on a global journal; WineFS uses
     per-CPU journals; NOVA appends to per-inode logs; Strata appends to
     a userspace log whose digestion doubles the write volume;
   - data lands on NVM node 0 (kernel PM file systems are mounted on a
     single NUMA namespace), striped over all nodes for ext4 on RAID0,
     or through the shared delegation engine for OdinFS. *)

module Sched = Trio_sim.Sched
module Sync = Trio_sim.Sync
module Resource = Trio_sim.Resource
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Htbl = Trio_util.Htbl
module Delegation = Arckfs.Delegation
open Trio_core.Fs_types

type journal_kind =
  | J_none
  | J_global of float (* cost per metadata update, serialized *)
  | J_per_cpu of float
  | J_per_inode of float
  | J_log_digest of { log_bytes : int; digest_factor : float }

type data_placement =
  | P_node of int
  | P_striped
  | P_delegated of Delegation.t

type model = {
  m_name : string;
  m_kernel_data : bool; (* data ops enter the kernel *)
  m_kernel_meta : bool; (* metadata ops enter the kernel *)
  m_meta_ipc : float; (* userspace FS: RPC to the trusted entity per metadata op *)
  m_journal : journal_kind;
  m_placement : data_placement;
  m_create_cpu : float;
  m_unlink_cpu : float;
  m_open_cpu : float;
  m_stat_cpu : float;
  m_write_cpu : float; (* fixed software cost per write op *)
  m_read_cpu : float;
  m_index_cpu_per_page : float; (* per-page indexing cost *)
  m_fsync_cost : float;
  m_rename_cpu : float;
}

type vnode = {
  v_ino : int;
  v_ftype : ftype;
  mutable v_mode : int;
  mutable v_uid : int;
  mutable v_gid : int;
  mutable v_size : int;
  mutable v_data : Bytes.t; (* capacity >= v_size when the FS stores data *)
  v_children : (string, vnode) Htbl.t; (* empty for regular files *)
  v_rwlock : Sync.Rwlock.t;
  v_ref : Resource.Hotspot.t; (* dentry refcount cacheline *)
  mutable v_mtime : float;
  mutable v_ctime : float;
}

type fd_state = { fd_node : vnode; fd_access : access }

type t = {
  sched : Sched.t;
  pmem : Pmem.t;
  topo : Numa.t;
  model : model;
  root : vnode;
  mutable next_ino : int;
  fds : (int, fd_state) Hashtbl.t;
  fd_counters : int array;
  rename_lock : Sync.Mutex.t;
  journal_lock : Sync.Mutex.t;
  icache : Resource.Hotspot.t;
  (* dm-stripe's per-bio remapping work: the kernel-side bottleneck that
     keeps ext4(RAID0) from scaling small reads (paper §6.3) *)
  stripe_remap : Resource.Hotspot.t;
  mutable small_access_seq : int;
  store_data : bool;
}

let ( let* ) = Result.bind

let new_vnode t ~ftype ~mode =
  t.next_ino <- t.next_ino + 1;
  {
    v_ino = t.next_ino;
    v_ftype = ftype;
    v_mode = mode;
    v_uid = 0;
    v_gid = 0;
    v_size = 0;
    v_data = Bytes.empty;
    v_children = Htbl.create_string ~initial_size:8 ();
    v_rwlock = Sync.Rwlock.create ();
    v_ref = Resource.Hotspot.create ~base:15.0 ~alpha:40.0;
    v_mtime = 0.0;
    v_ctime = 0.0;
  }

let create ~sched ~pmem ~model ?(store_data = true) () =
  let topo = Pmem.topo pmem in
  let t =
    {
      sched;
      pmem;
      topo;
      model;
      root =
        {
          v_ino = 1;
          v_ftype = Dir;
          v_mode = 0o777;
          v_uid = 0;
          v_gid = 0;
          v_size = 0;
          v_data = Bytes.empty;
          v_children = Htbl.create_string ();
          v_rwlock = Sync.Rwlock.create ();
          v_ref = Resource.Hotspot.create ~base:15.0 ~alpha:40.0;
          v_mtime = 0.0;
          v_ctime = 0.0;
        };
      next_ino = 1;
      fds = Hashtbl.create 64;
      fd_counters = Array.make (Numa.total_cpus topo) 0;
      rename_lock = Sync.Mutex.create ();
      journal_lock = Sync.Mutex.create ();
      icache = Resource.Hotspot.create ~base:60.0 ~alpha:90.0;
      stripe_remap = Resource.Hotspot.create ~base:150.0 ~alpha:150.0;
      small_access_seq = 0;
      store_data;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Cost primitives *)

let trap t ~data =
  let m = t.model in
  if (data && m.m_kernel_data) || ((not data) && m.m_kernel_meta) then
    Sched.cpu_work Perf.Cpu.syscall;
  if (not data) && m.m_meta_ipc > 0.0 then Sched.cpu_work m.m_meta_ipc

(* NVM traffic for the data path, routed by the model's placement. *)
let node_addr t n = ((n * Pmem.pages_per_node t.pmem) + (Pmem.pages_per_node t.pmem / 2)) * Pmem.page_size

let data_io t ~write ~len =
  if len > 0 then begin
    let m = t.model in
    Sched.cpu_work (Perf.Cpu.memcpy_per_byte *. float_of_int len);
    match m.m_placement with
    | P_node n -> Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t n) ~len ~write
    | P_striped ->
      (* dm-stripe: per-bio remapping through the device-mapper layer
         (a shared kernel path), then per-node chunks *)
      Resource.Hotspot.touch t.stripe_remap;
      let nodes = Numa.nodes t.topo in
      let stripe = 2 * 1024 * 1024 in
      let remaining = ref len and node = ref (Sched.current_tid () mod nodes) in
      while !remaining > 0 do
        let chunk = min !remaining stripe in
        Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t !node) ~len:chunk ~write;
        node := (!node + 1) mod nodes;
        remaining := !remaining - chunk
      done
    | P_delegated dlg ->
      if Delegation.should_delegate dlg ~write ~len then begin
        (* data is striped at 64 KiB granularity: split the request into
           per-stripe chunks round-robined over the nodes *)
        let nodes = Numa.nodes t.topo in
        let stripe = 64 * 1024 in
        t.small_access_seq <- t.small_access_seq + 1;
        let first = t.small_access_seq in
        let rec chunks acc off i =
          if off >= len then List.rev acc
          else
            let l = min stripe (len - off) in
            chunks ((node_addr t ((first + i) mod nodes), l) :: acc) (off + l) (i + 1)
        in
        Delegation.touch_all dlg ~actor:Pmem.kernel_actor ~write (chunks [] 0 0)
      end
      else begin
        (* OdinFS data is striped across nodes, so a small non-delegated
           access lands on an effectively random (mostly remote) node *)
        let nodes = Numa.nodes t.topo in
        t.small_access_seq <- t.small_access_seq + 1;
        let n = (Sched.current_tid () + t.small_access_seq) mod nodes in
        Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t n) ~len ~write
      end
  end

(* Journaling cost for one metadata update. *)
let journal t =
  match t.model.m_journal with
  | J_none -> ()
  | J_global cost ->
    Sync.Mutex.lock t.journal_lock;
    Sched.cpu_work cost;
    Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t 0) ~len:64 ~write:true;
    Sync.Mutex.unlock t.journal_lock
  | J_per_cpu cost ->
    Sched.cpu_work cost;
    Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t 0) ~len:64 ~write:true
  | J_per_inode cost ->
    Sched.cpu_work cost;
    Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t 0) ~len:64 ~write:true
  | J_log_digest { log_bytes; digest_factor = _ } ->
    (* metadata goes to the private log; digestion is charged on fsync
       and amortized on writes *)
    let n = Numa.node_of_cpu t.topo (Sched.current_cpu ()) in
    Pmem.touch t.pmem ~actor:Pmem.kernel_actor ~addr:(node_addr t n) ~len:log_bytes ~write:true

(* Strata-style write amplification for data. *)
let digest_amplification t ~len =
  match t.model.m_journal with
  | J_log_digest { digest_factor; _ } when len > 0 ->
    data_io t ~write:true ~len:(int_of_float (float_of_int len *. digest_factor))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Path walk *)

let walk_components t components =
  let rec go node = function
    | [] -> Ok node
    | name :: rest -> (
      Sched.cpu_work (Perf.Cpu.hash_lookup +. Perf.Cpu.dcache_step);
      if node.v_ftype <> Dir then Error ENOTDIR
      else
        match Htbl.find node.v_children name with
        | None -> Error ENOENT
        | Some child ->
          (* RCU-style walk: only the final dentry bounces its refcount *)
          if rest = [] then Resource.Hotspot.touch child.v_ref;
          go child rest)
  in
  go t.root components

let walk t path =
  match split_path path with None -> Error EINVAL | Some c -> walk_components t c

let walk_parent t path =
  match dirname_basename path with
  | None -> Error EINVAL
  | Some (dir, name) ->
    if not (valid_name name) then Error EINVAL
    else
      let* parent = walk_components t dir in
      if parent.v_ftype <> Dir then Error ENOTDIR else Ok (parent, name)

(* ------------------------------------------------------------------ *)
(* fd table *)

let alloc_fd t =
  let cpu = Sched.current_cpu () in
  Sched.cpu_work Perf.Cpu.fd_alloc;
  let n = t.fd_counters.(cpu) in
  t.fd_counters.(cpu) <- n + 1;
  (cpu * (1 lsl 20)) + n + 1

let fd_lookup t fd = match Hashtbl.find_opt t.fds fd with Some s -> Ok s | None -> Error EBADF

(* A descriptor used for an access its open did not ask for is EBADF. *)
let fd_node t fd ~write =
  match fd_lookup t fd with
  | Ok { fd_node; fd_access } when access_allows fd_access ~write -> Ok fd_node
  | _ -> Error EBADF

(* ------------------------------------------------------------------ *)
(* Data plumbing (semantic content, stored when [store_data]) *)

let ensure_capacity v n =
  if Bytes.length v.v_data < n then begin
    let cap = max n (max 4096 (2 * Bytes.length v.v_data)) in
    let bigger = Bytes.make cap '\000' in
    Bytes.blit v.v_data 0 bigger 0 (Bytes.length v.v_data);
    v.v_data <- bigger
  end

let vnode_write t v ~buf ~off =
  let len = Bytes.length buf in
  let end_ = off + len in
  if t.store_data then begin
    ensure_capacity v end_;
    Bytes.blit buf 0 v.v_data off len
  end;
  if end_ > v.v_size then v.v_size <- end_

let vnode_read t v ~buf ~off =
  let len = max 0 (min (Bytes.length buf) (v.v_size - off)) in
  if len > 0 then
    if t.store_data then Bytes.blit v.v_data off buf 0 len
    else Bytes.fill buf 0 len '\000';
  len

(* ------------------------------------------------------------------ *)
(* Operations *)

let op_create ?(access = read_write) t path mode =
  trap t ~data:false;
  let* parent, name = walk_parent t path in
  Sync.Rwlock.write_lock parent.v_rwlock;
  Sched.cpu_work t.model.m_create_cpu;
  let result =
    if Htbl.mem parent.v_children name then Error EEXIST
    else begin
      Resource.Hotspot.touch t.icache;
      journal t;
      let v = new_vnode t ~ftype:Reg ~mode in
      v.v_mtime <- Sched.now t.sched;
      v.v_ctime <- Sched.now t.sched;
      Htbl.replace parent.v_children name v;
      parent.v_size <- parent.v_size + 1;
      Ok v
    end
  in
  Sync.Rwlock.write_unlock parent.v_rwlock;
  match result with
  | Error e -> Error e
  | Ok v ->
    let fd = alloc_fd t in
    Hashtbl.replace t.fds fd { fd_node = v; fd_access = access };
    Ok fd

let op_open t path flags =
  trap t ~data:false;
  Sched.cpu_work t.model.m_open_cpu;
  match walk t path with
  | Ok v ->
    if v.v_ftype = Dir then Error EISDIR
    else begin
      if List.mem O_TRUNC flags then begin
        journal t;
        v.v_size <- 0
      end;
      let fd = alloc_fd t in
      Hashtbl.replace t.fds fd { fd_node = v; fd_access = access_of_flags flags };
      Ok fd
    end
  | Error ENOENT when List.mem O_CREAT flags ->
    op_create ~access:(access_of_flags flags) t path 0o644
  | Error e -> Error e

let op_close t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error EBADF
  | Some _ ->
    Hashtbl.remove t.fds fd;
    Ok ()

let op_pwrite t fd buf off =
  trap t ~data:true;
  let* v = fd_node t fd ~write:true in
  let len = Bytes.length buf in
  Sched.cpu_work t.model.m_write_cpu;
  let pages = (len + 4095) / 4096 in
  Sched.cpu_work (t.model.m_index_cpu_per_page *. float_of_int pages);
  let extending = off + len > v.v_size in
  if extending then Sync.Rwlock.write_lock v.v_rwlock else Sync.Rwlock.read_lock v.v_rwlock;
  if extending then journal t;
  data_io t ~write:true ~len;
  digest_amplification t ~len;
  vnode_write t v ~buf ~off;
  v.v_mtime <- Sched.now t.sched;
  if extending then Sync.Rwlock.write_unlock v.v_rwlock else Sync.Rwlock.read_unlock v.v_rwlock;
  Ok len

let op_append t fd buf =
  let* v = fd_node t fd ~write:true in
  op_pwrite t fd buf v.v_size

let op_pread t fd buf off =
  trap t ~data:true;
  let* v = fd_node t fd ~write:false in
  Sched.cpu_work t.model.m_read_cpu;
  Sync.Rwlock.read_lock v.v_rwlock;
  let len = max 0 (min (Bytes.length buf) (v.v_size - off)) in
  let pages = (len + 4095) / 4096 in
  Sched.cpu_work (t.model.m_index_cpu_per_page *. float_of_int pages);
  data_io t ~write:false ~len;
  let n = vnode_read t v ~buf ~off in
  Sync.Rwlock.read_unlock v.v_rwlock;
  Ok n

let op_truncate t path size =
  trap t ~data:false;
  let* v = walk t path in
  if v.v_ftype = Dir then Error EISDIR
  else begin
    Sync.Rwlock.write_lock v.v_rwlock;
    journal t;
    Sched.cpu_work t.model.m_write_cpu;
    if t.store_data && size > v.v_size then begin
      ensure_capacity v size;
      Bytes.fill v.v_data v.v_size (size - v.v_size) '\000'
    end;
    v.v_size <- size;
    Sync.Rwlock.write_unlock v.v_rwlock;
    Ok ()
  end

let op_unlink t path =
  trap t ~data:false;
  let* parent, name = walk_parent t path in
  Sync.Rwlock.write_lock parent.v_rwlock;
  Sched.cpu_work t.model.m_unlink_cpu;
  let result =
    match Htbl.find parent.v_children name with
    | None -> Error ENOENT
    | Some v when v.v_ftype = Dir -> Error EISDIR
    | Some _ ->
      journal t;
      ignore (Htbl.remove parent.v_children name);
      parent.v_size <- parent.v_size - 1;
      Ok ()
  in
  Sync.Rwlock.write_unlock parent.v_rwlock;
  result

let op_mkdir t path mode =
  trap t ~data:false;
  let* parent, name = walk_parent t path in
  Sync.Rwlock.write_lock parent.v_rwlock;
  Sched.cpu_work t.model.m_create_cpu;
  let result =
    if Htbl.mem parent.v_children name then Error EEXIST
    else begin
      Resource.Hotspot.touch t.icache;
      journal t;
      Htbl.replace parent.v_children name (new_vnode t ~ftype:Dir ~mode);
      parent.v_size <- parent.v_size + 1;
      Ok ()
    end
  in
  Sync.Rwlock.write_unlock parent.v_rwlock;
  result

let op_rmdir t path =
  trap t ~data:false;
  let* parent, name = walk_parent t path in
  Sync.Rwlock.write_lock parent.v_rwlock;
  let result =
    match Htbl.find parent.v_children name with
    | None -> Error ENOENT
    | Some v when v.v_ftype = Reg -> Error ENOTDIR
    | Some v when Htbl.length v.v_children > 0 -> Error ENOTEMPTY
    | Some _ ->
      journal t;
      ignore (Htbl.remove parent.v_children name);
      parent.v_size <- parent.v_size - 1;
      Ok ()
  in
  Sync.Rwlock.write_unlock parent.v_rwlock;
  result

let op_readdir t path =
  trap t ~data:false;
  let* v = walk t path in
  if v.v_ftype <> Dir then Error ENOTDIR
  else begin
    Sync.Rwlock.read_lock v.v_rwlock;
    let entries =
      Htbl.fold v.v_children [] (fun acc name child ->
          Sched.cpu_work Perf.Cpu.hash_lookup;
          { d_ino = child.v_ino; d_name = name; d_ftype = child.v_ftype } :: acc)
    in
    Sync.Rwlock.read_unlock v.v_rwlock;
    Ok entries
  end

let op_stat t path =
  trap t ~data:false;
  Sched.cpu_work t.model.m_stat_cpu;
  let* v = walk t path in
  Ok
    {
      st_ino = v.v_ino;
      st_ftype = v.v_ftype;
      st_mode = v.v_mode;
      st_uid = v.v_uid;
      st_gid = v.v_gid;
      st_size = v.v_size;
      st_mtime = v.v_mtime;
      st_ctime = v.v_ctime;
    }

let op_rename t src dst =
  trap t ~data:false;
  (* the kernel-wide rename lock FxMark blames for MWRL/MWRM *)
  Sync.Mutex.lock t.rename_lock;
  Sched.cpu_work t.model.m_rename_cpu;
  let result =
    let* sp, sname = walk_parent t src in
    let* dp, dname = walk_parent t dst in
    match Htbl.find sp.v_children sname with
    | None -> Error ENOENT
    | Some v -> (
      match Htbl.find dp.v_children dname with
      | Some existing when existing.v_ftype = Dir -> Error EEXIST
      | Some _ when v.v_ftype = Dir -> Error EEXIST
      | _ ->
        journal t;
        ignore (Htbl.remove sp.v_children sname);
        sp.v_size <- sp.v_size - 1;
        if Htbl.mem dp.v_children dname then ignore (Htbl.remove dp.v_children dname)
        else dp.v_size <- dp.v_size + 1;
        Htbl.replace dp.v_children dname v;
        Ok ())
  in
  Sync.Mutex.unlock t.rename_lock;
  result

let op_chmod t path mode =
  trap t ~data:false;
  let* v = walk t path in
  journal t;
  v.v_mode <- mode land 0o7777;
  Ok ()

let op_fsync t fd =
  let* _ = fd_lookup t fd in
  trap t ~data:false;
  Sched.cpu_work t.model.m_fsync_cost;
  (match t.model.m_journal with
  | J_log_digest { digest_factor; _ } ->
    (* fsync forces a log flush; digestion already amortized *)
    ignore digest_factor;
    data_io t ~write:true ~len:64
  | J_global _ ->
    Sync.Mutex.lock t.journal_lock;
    data_io t ~write:true ~len:512;
    Sync.Mutex.unlock t.journal_lock;
    ()
  | _ -> ());
  Ok ()

let ops t =
  {
    Trio_core.Fs_intf.fs_name = t.model.m_name;
    create = op_create t;
    open_ = op_open t;
    close = op_close t;
    pread = op_pread t;
    pwrite = op_pwrite t;
    append = op_append t;
    truncate = op_truncate t;
    unlink = op_unlink t;
    mkdir = op_mkdir t;
    rmdir = op_rmdir t;
    readdir = op_readdir t;
    stat = op_stat t;
    rename = op_rename t;
    chmod = op_chmod t;
    fsync = op_fsync t;
  }
