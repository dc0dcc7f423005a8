(* End-to-end tests of the ArckFS LibFS: POSIX-like semantics, data
   paths, concurrency, delegation, crash consistency. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
open Trio_core.Fs_types

let ( let* ) = Result.bind
let ok = Helpers.check_ok
let err = Helpers.check_err

(* Everything flows through the instrumented VFS dispatch layer, like
   production consumers do. *)
let with_fs f =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      f env fs (Trio_core.Vfs.ops (Trio_core.Vfs.wrap ~sched:env.Helpers.sched (Libfs.ops fs))))

(* ------------------------------------------------------------------ *)
(* Basic namespace operations *)

let test_create_and_stat () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/a.txt" 0o644) in
      ok "close" (ops.Fs.close fd);
      let st = ok "stat" (ops.Fs.stat "/a.txt") in
      Alcotest.(check int) "size 0" 0 st.st_size;
      Alcotest.(check int) "mode" 0o644 st.st_mode;
      Alcotest.(check int) "uid" 1000 st.st_uid;
      Alcotest.(check bool) "is regular" true (st.st_ftype = Reg))

let test_create_duplicate_fails () =
  with_fs (fun _ _ ops ->
      ignore (ok "first" (ops.Fs.create "/dup" 0o644));
      err "duplicate" EEXIST (ops.Fs.create "/dup" 0o644))

let test_open_missing_fails () =
  with_fs (fun _ _ ops -> err "missing" ENOENT (ops.Fs.open_ "/nope" [ O_RDONLY ]))

let test_open_o_creat () =
  with_fs (fun _ _ ops ->
      let fd = ok "o_creat" (ops.Fs.open_ "/new" [ O_RDWR; O_CREAT ]) in
      ok "close" (ops.Fs.close fd);
      ignore (ok "stat" (ops.Fs.stat "/new")))

let test_invalid_paths () =
  with_fs (fun _ _ ops ->
      err "relative" EINVAL (ops.Fs.create "relative/path" 0o644);
      err "empty name" EINVAL (ops.Fs.create "/" 0o644);
      err "name too long" ENAMETOOLONG (ops.Fs.create ("/" ^ String.make 190 'x') 0o644))

let test_mkdir_nested () =
  with_fs (fun _ _ ops ->
      ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
      ok "mkdir a/b" (ops.Fs.mkdir "/a/b" 0o755);
      ok "mkdir a/b/c" (ops.Fs.mkdir "/a/b/c" 0o755);
      ignore (ok "create deep" (ops.Fs.create "/a/b/c/file" 0o644));
      let st = ok "stat dir" (ops.Fs.stat "/a/b") in
      Alcotest.(check bool) "is dir" true (st.st_ftype = Dir);
      err "file in file" ENOTDIR (ops.Fs.create "/a/b/c/file/x" 0o644))

let test_readdir () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      List.iter (fun n -> ignore (ok n (ops.Fs.create ("/d/" ^ n) 0o644))) [ "x"; "y"; "z" ];
      ok "subdir" (ops.Fs.mkdir "/d/sub" 0o755);
      let entries = ok "readdir" (ops.Fs.readdir "/d") in
      let names = List.sort compare (List.map (fun e -> e.d_name) entries) in
      Alcotest.(check (list string)) "names" [ "sub"; "x"; "y"; "z" ] names;
      let sub = List.find (fun e -> e.d_name = "sub") entries in
      Alcotest.(check bool) "sub is dir" true (sub.d_ftype = Dir))

let test_unlink () =
  with_fs (fun _ _ ops ->
      ignore (ok "create" (ops.Fs.create "/gone" 0o644));
      ok "unlink" (ops.Fs.unlink "/gone");
      err "stat after unlink" ENOENT (ops.Fs.stat "/gone");
      err "unlink again" ENOENT (ops.Fs.unlink "/gone");
      (* the name can be reused *)
      ignore (ok "recreate" (ops.Fs.create "/gone" 0o644)))

let test_unlink_dir_fails () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      err "unlink dir" EISDIR (ops.Fs.unlink "/d"))

let test_rmdir () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      ignore (ok "file" (ops.Fs.create "/d/f" 0o644));
      err "non-empty" ENOTEMPTY (ops.Fs.rmdir "/d");
      ok "unlink" (ops.Fs.unlink "/d/f");
      ok "rmdir" (ops.Fs.rmdir "/d");
      err "gone" ENOENT (ops.Fs.stat "/d");
      err "rmdir file" ENOTDIR (let* _ = ops.Fs.create "/f" 0o644 in ops.Fs.rmdir "/f"))

let test_many_files_in_dir () =
  (* exceeds one dentry page (16 slots) and one index page chain link *)
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/big" 0o755);
      let n = 200 in
      for i = 1 to n do
        ignore (ok "create" (ops.Fs.create (Printf.sprintf "/big/f%03d" i) 0o644))
      done;
      let entries = ok "readdir" (ops.Fs.readdir "/big") in
      Alcotest.(check int) "all entries" n (List.length entries);
      (* delete every other file, then recreate — slot reuse *)
      for i = 1 to n do
        if i mod 2 = 0 then ok "unlink" (ops.Fs.unlink (Printf.sprintf "/big/f%03d" i))
      done;
      Alcotest.(check int) "half left" (n / 2) (List.length (ok "readdir" (ops.Fs.readdir "/big")));
      for i = 1 to n do
        if i mod 2 = 0 then ignore (ok "recreate" (ops.Fs.create (Printf.sprintf "/big/f%03d" i) 0o644))
      done;
      Alcotest.(check int) "full again" n (List.length (ok "readdir" (ops.Fs.readdir "/big"))))

(* ------------------------------------------------------------------ *)
(* Data path *)

let test_write_read_roundtrip () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/data" "The quick brown fox");
      Alcotest.(check string) "read" "The quick brown fox" (ok "read" (Fs.read_file ops "/data")))

let test_pwrite_pread_offsets () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 100 'a')));
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.make 10 'b') 50));
      let buf = Bytes.create 100 in
      let n = ok "pread" (ops.Fs.pread fd buf 0) in
      Alcotest.(check int) "read all" 100 n;
      Alcotest.(check string) "patched"
        (String.make 50 'a' ^ String.make 10 'b' ^ String.make 40 'a')
        (Bytes.to_string buf))

let test_read_past_eof () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 10 'x')));
      let buf = Bytes.create 20 in
      Alcotest.(check int) "partial read" 10 (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check int) "read at eof" 0 (ok "pread" (ops.Fs.pread fd buf 10));
      Alcotest.(check int) "read past eof" 0 (ok "pread" (ops.Fs.pread fd buf 100)))

let test_multi_page_file () =
  with_fs (fun _ _ ops ->
      let size = 3 * 4096 in
      let data = Bytes.init size (fun i -> Char.chr (i * 7 mod 256)) in
      let fd = ok "create" (ops.Fs.create "/big" 0o644) in
      ignore (ok "append" (ops.Fs.append fd data));
      let st = ok "stat" (ops.Fs.stat "/big") in
      Alcotest.(check int) "size" size st.st_size;
      let buf = Bytes.create size in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check bool) "content" true (Bytes.equal data buf);
      (* unaligned read across page boundaries *)
      let buf2 = Bytes.create 5000 in
      ignore (ok "unaligned" (ops.Fs.pread fd buf2 3000));
      Alcotest.(check bool) "slice" true (Bytes.equal (Bytes.sub data 3000 5000) buf2))

let test_sparse_write_extends () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      (* write at offset 8192 with nothing before: pages 0-1 are zero *)
      ignore (ok "pwrite" (ops.Fs.pwrite fd (Bytes.of_string "tail") 8192));
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "size" 8196 st.st_size;
      let buf = Bytes.create 8196 in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      Alcotest.(check string) "zero prefix" (String.make 100 '\000')
        (Bytes.sub_string buf 0 100);
      Alcotest.(check string) "tail" "tail" (Bytes.sub_string buf 8192 4))

let test_truncate_shrink () =
  with_fs (fun _ _ ops ->
      let fd = ok "create" (ops.Fs.create "/f" 0o644) in
      ignore (ok "append" (ops.Fs.append fd (Bytes.make 10000 'z')));
      ok "truncate" (ops.Fs.truncate "/f" 100);
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "shrunk" 100 st.st_size;
      let buf = Bytes.create 200 in
      Alcotest.(check int) "read after shrink" 100 (ok "pread" (ops.Fs.pread fd buf 0));
      (* grow it back: the new range is zero *)
      ok "grow" (ops.Fs.truncate "/f" 5000);
      let buf2 = Bytes.create 5000 in
      ignore (ok "pread2" (ops.Fs.pread fd buf2 0));
      Alcotest.(check char) "old data kept" 'z' (Bytes.get buf2 0);
      Alcotest.(check char) "zero fill" '\000' (Bytes.get buf2 4000))

let test_o_trunc () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/f" "content");
      let fd = ok "open trunc" (ops.Fs.open_ "/f" [ O_RDWR; O_TRUNC ]) in
      ok "close" (ops.Fs.close fd);
      let st = ok "stat" (ops.Fs.stat "/f") in
      Alcotest.(check int) "truncated" 0 st.st_size)

let test_bad_fd () =
  with_fs (fun _ _ ops ->
      err "pread" EBADF (ops.Fs.pread 424242 (Bytes.create 1) 0);
      err "close" EBADF (ops.Fs.close 424242))

(* ------------------------------------------------------------------ *)
(* Rename *)

let test_rename_same_dir () =
  with_fs (fun _ _ ops ->
      ok "write" (Fs.write_file ops "/old" "payload");
      ok "rename" (ops.Fs.rename "/old" "/new");
      err "old gone" ENOENT (ops.Fs.stat "/old");
      Alcotest.(check string) "content follows" "payload" (ok "read" (Fs.read_file ops "/new")))

let test_rename_cross_dir () =
  with_fs (fun _ _ ops ->
      ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
      ok "mkdir b" (ops.Fs.mkdir "/b" 0o755);
      ok "write" (Fs.write_file ops "/a/f" "moved");
      ok "rename" (ops.Fs.rename "/a/f" "/b/g");
      err "src gone" ENOENT (ops.Fs.stat "/a/f");
      Alcotest.(check string) "dst content" "moved" (ok "read" (Fs.read_file ops "/b/g"));
      Alcotest.(check int) "a empty" 0 (List.length (ok "readdir" (ops.Fs.readdir "/a")));
      Alcotest.(check int) "b has one" 1 (List.length (ok "readdir" (ops.Fs.readdir "/b"))))

let test_rename_replaces_destination () =
  with_fs (fun _ _ ops ->
      ok "write src" (Fs.write_file ops "/src" "SRC");
      ok "write dst" (Fs.write_file ops "/dst" "DST");
      ok "rename" (ops.Fs.rename "/src" "/dst");
      Alcotest.(check string) "replaced" "SRC" (ok "read" (Fs.read_file ops "/dst"));
      err "src gone" ENOENT (ops.Fs.stat "/src"))

let test_rename_directory () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/olddir" 0o755);
      ok "write" (Fs.write_file ops "/olddir/f" "inside");
      ok "rename" (ops.Fs.rename "/olddir" "/newdir");
      Alcotest.(check string) "reachable through new path" "inside"
        (ok "read" (Fs.read_file ops "/newdir/f")))

let test_rename_missing_src () =
  with_fs (fun _ _ ops -> err "missing" ENOENT (ops.Fs.rename "/nope" "/x"))

(* ------------------------------------------------------------------ *)
(* Concurrency within one LibFS *)

let test_concurrent_creates_in_dir () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      Sched.delay 1.0;
      let created = ref 0 in
      let nthreads = 8 and per_thread = 25 in
      for th = 0 to nthreads - 1 do
        Sched.spawn ~cpu:th env.Helpers.sched (fun () ->
            for i = 0 to per_thread - 1 do
              match ops.Fs.create (Printf.sprintf "/t%d_f%d" th i) 0o644 with
              | Ok fd ->
                incr created;
                ignore (ops.Fs.close fd)
              | Error e -> Alcotest.failf "create: %s" (errno_to_string e)
            done)
      done;
      (* let the spawned fibers run *)
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check int) "all created" (nthreads * per_thread) !created;
      let entries = ok "readdir" (ops.Fs.readdir "/") in
      Alcotest.(check int) "directory consistent" (nthreads * per_thread) (List.length entries))

let test_concurrent_disjoint_writes () =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      let fd = ok "create" (ops.Fs.create "/shared" 0o644) in
      ignore (ok "prealloc" (ops.Fs.append fd (Bytes.make (8 * 4096) '\000')));
      let done_count = ref 0 in
      for th = 0 to 7 do
        Sched.spawn ~cpu:th env.Helpers.sched (fun () ->
            let data = Bytes.make 4096 (Char.chr (Char.code 'A' + th)) in
            (match ops.Fs.pwrite fd data (th * 4096) with
            | Ok _ -> incr done_count
            | Error e -> Alcotest.failf "pwrite: %s" (errno_to_string e)))
      done;
      Sched.park (fun waker -> Sched.schedule env.Helpers.sched 1.0e12 waker);
      Alcotest.(check int) "all wrote" 8 !done_count;
      let buf = Bytes.create (8 * 4096) in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      for th = 0 to 7 do
        Alcotest.(check char)
          (Printf.sprintf "region %d" th)
          (Char.chr (Char.code 'A' + th))
          (Bytes.get buf (th * 4096))
      done)

(* ------------------------------------------------------------------ *)
(* Delegation *)

let test_delegation_equivalent_results () =
  (* The same large write/read must produce identical bytes with and
     without the delegation engine. *)
  let run_with_delegation use_dlg =
    Helpers.run_sim ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 (fun env ->
        let delegation =
          if use_dlg then
            Some
              (Arckfs.Delegation.create ~sched:env.Helpers.sched ~pmem:env.Helpers.pmem
                 ~threads_per_node:2 ())
          else None
        in
        let fs = Helpers.mount ~proc:1 ?delegation env in
        let ops = Libfs.ops fs in
        let size = 256 * 1024 in
        let data = Bytes.init size (fun i -> Char.chr (i * 13 mod 256)) in
        let fd = ok "create" (ops.Fs.create "/blob" 0o644) in
        ignore (ok "append" (ops.Fs.append fd data));
        let buf = Bytes.create size in
        ignore (ok "pread" (ops.Fs.pread fd buf 0));
        (match delegation with Some d -> Arckfs.Delegation.shutdown d | None -> ());
        (Bytes.equal data buf, Option.map Arckfs.Delegation.request_count delegation))
  in
  let ok_direct, _ = run_with_delegation false in
  let ok_dlg, reqs = run_with_delegation true in
  Alcotest.(check bool) "direct path intact" true ok_direct;
  Alcotest.(check bool) "delegated path intact" true ok_dlg;
  match reqs with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.fail "delegation engine was not used"

(* A lease revoked while a delegated write waits in the ring faults in
   the delegation fiber with the writer's actor id.  The fault must reach
   the writer, whose retry re-maps the file and lands the write. *)
let test_delegation_fault_reaches_caller () =
  Helpers.run_sim ~nodes:2 ~cpus_per_node:4 ~pages_per_node:32768 (fun env ->
      let dlg =
        Arckfs.Delegation.create ~sched:env.Helpers.sched ~pmem:env.Helpers.pmem
          ~threads_per_node:1 ()
      in
      let fs = Helpers.mount ~proc:1 ~delegation:dlg env in
      let ops = Libfs.ops fs in
      ok "write" (Fs.write_file ops "/blob" (String.make 4096 'a'));
      (* share it, so the kernel holds the mapping it can revoke *)
      Libfs.unmap_everything fs;
      let fd = ok "open" (ops.Fs.open_ "/blob" [ O_RDWR ]) in
      let ino = (ok "stat" (ops.Fs.stat "/blob")).st_ino in
      (* occupy the one delegation fiber of each node for a long while *)
      let page_bytes = Pmem.pages_per_node env.Helpers.pmem * Pmem.page_size in
      Sched.spawn env.Helpers.sched (fun () ->
          Arckfs.Delegation.touch_all dlg ~actor:Pmem.kernel_actor ~write:false
            [ (0, 8 lsl 20); (page_bytes, 8 lsl 20) ]);
      (* revoke the mapping while the write below is queued *)
      Sched.spawn env.Helpers.sched (fun () ->
          Sched.delay 20_000.0;
          ignore (Trio_core.Controller.unmap_file env.Helpers.ctl ~proc:1 ~ino));
      Sched.delay 10_000.0;
      ignore (ok "queued pwrite" (ops.Fs.pwrite fd (Bytes.make 4096 'b') 0));
      let buf = Bytes.create 4096 in
      ignore (ok "pread" (ops.Fs.pread fd buf 0));
      Arckfs.Delegation.shutdown dlg;
      Alcotest.(check bool) "retried write landed" true (Bytes.equal buf (Bytes.make 4096 'b')))

(* ------------------------------------------------------------------ *)
(* Crash consistency *)

let test_crash_after_create_consistent () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ignore (ok "before" (ops.Fs.create "/durable" 0o644));
      (* crash with everything persisted *)
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      (* a fresh LibFS (fresh aux state) must see the created file *)
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      ignore (ok "after crash" (ops2.Fs.stat "/durable")))

let test_crash_mid_rename_rolls_back () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "write" (Fs.write_file ops "/orig" "payload");
      ok "rename" (ops.Fs.rename "/orig" "/renamed");
      (* now crash; rename was journaled and committed, so it survives *)
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      Alcotest.(check string) "renamed file intact" "payload"
        (ok "read" (Fs.read_file ops2 "/renamed"));
      err "old name gone" ENOENT (ops2.Fs.stat "/orig"))

let test_crash_size_field_repaired () =
  (* Force a stale directory size: the dentry persists but the size
     update is lost in the crash; LibFS recovery must recount. *)
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let fs = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops fs in
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      ignore (ok "create" (ops.Fs.create "/d/f" 0o644));
      (* manually stale-ify the size field without persisting *)
      let st = ok "stat" (ops.Fs.stat "/d") in
      ignore st;
      Pmem.crash pm;
      Trio_core.Controller.crash_recover env.Helpers.ctl;
      let fs2 = Helpers.mount ~proc:2 ~uid:1000 env in
      let ops2 = Libfs.ops fs2 in
      let entries = ok "readdir" (ops2.Fs.readdir "/d") in
      let st2 = ok "stat" (ops2.Fs.stat "/d") in
      Alcotest.(check int) "size matches entries" (List.length entries) st2.st_size)

(* ------------------------------------------------------------------ *)
(* Sharing cost: a handoff maps each inode once, with the access the
   call needs, so it costs one grant plus one revoke of its pages. *)

module Controller = Trio_core.Controller
module Mmu = Trio_core.Mmu

let share_pages = 16

(* Proc 1 (uid 1000) writes a [share_pages]-page file "/s" in the root,
   sets its mode and releases it; [f] gets the env and its inode. *)
let with_shared_file ?(mode = 0o666) f =
  Helpers.run_sim (fun env ->
      let owner = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops owner in
      ok "write" (Fs.write_file ops "/s" (String.make (share_pages * Pmem.page_size) 's'));
      ok "chmod" (ops.Fs.chmod "/s" mode);
      let ino = (ok "stat" (ops.Fs.stat "/s")).st_ino in
      Libfs.unmap_everything owner;
      f env ino)

(* The pages a mapping of [ino] covers, as the controller last walked it. *)
let mapped_pages env ino =
  List.length (Controller.file_pages (Option.get (Controller.file_info env.Helpers.ctl ino)))

let pte_ops_of env body =
  let before = Mmu.pte_ops env.Helpers.mmu in
  body ();
  Mmu.pte_ops env.Helpers.mmu - before

let test_handoff_pte_ops () =
  with_shared_file (fun env ino ->
      (* a fresh process opens "/s", does one I/O and releases everything:
         the root is read-mapped and revoked, and so is the file *)
      let handoff ~proc flags io =
        let fs = Helpers.mount ~proc env in
        let ops = Libfs.ops fs in
        pte_ops_of env (fun () ->
            let fd = ok "open" (ops.Fs.open_ "/s" flags) in
            ignore (ok "io" (io ops fd));
            ok "close" (ops.Fs.close fd);
            Libfs.unmap_everything fs)
      in
      let write =
        handoff ~proc:2 [ O_RDWR ] (fun ops fd -> ops.Fs.pwrite fd (Bytes.of_string "w") 0)
      in
      let read = handoff ~proc:3 [ O_RDONLY ] (fun ops fd -> ops.Fs.pread fd (Bytes.create 8) 0) in
      let file = mapped_pages env ino and root = mapped_pages env Controller.root_ino in
      Alcotest.(check bool) "file pages walked" true (file > share_pages);
      Alcotest.(check int) "O_RDWR + pwrite: one grant + one revoke" (2 * (file + root)) write;
      Alcotest.(check int) "O_RDONLY + pread: one grant + one revoke" (2 * (file + root)) read)

let test_remapping_write_one_grant () =
  with_shared_file (fun env ino ->
      let a = Helpers.mount ~proc:2 env and b = Helpers.mount ~proc:3 env in
      let aops = Libfs.ops a and bops = Libfs.ops b in
      let fda = ok "a open" (aops.Fs.open_ "/s" [ O_RDWR ]) in
      ignore (ok "a first pwrite" (aops.Fs.pwrite fda (Bytes.of_string "x") 0));
      (* b's write waits out a's lease and force-revokes a's mapping *)
      let fdb = ok "b open" (bops.Fs.open_ "/s" [ O_RDWR ]) in
      ignore (ok "b pwrite" (bops.Fs.pwrite fdb (Bytes.of_string "b") 1));
      ok "b close" (bops.Fs.close fdb);
      Libfs.unmap_everything b;
      (* a's next write faults, rebuilds and re-maps with write access *)
      let cost =
        pte_ops_of env (fun () ->
            ignore (ok "a pwrite" (aops.Fs.pwrite fda (Bytes.of_string "a") 0)))
      in
      Alcotest.(check int) "one grant, no read grant + upgrade" (mapped_pages env ino) cost;
      Libfs.unmap_everything a;
      let fs = Helpers.mount ~proc:4 env in
      Alcotest.(check string) "both writes landed" "ab"
        (String.sub (ok "read" (Fs.read_file (Libfs.ops fs) "/s")) 0 2))

(* Under unmap_after_write a name op that fails must still release the
   parent it write-mapped: a second process's create in that directory
   then gets the mapping at once instead of waiting out the lease. *)
let test_failed_name_op_releases_parent () =
  let lease_ns = 100.0e6 in
  Helpers.run_sim ~lease_ns (fun env ->
      let a = Libfs.ops (Helpers.mount ~proc:2 ~unmap_after_write:true env) in
      ok "mkdir" (a.Fs.mkdir "/d" 0o777);
      err "unlink missing" ENOENT (a.Fs.unlink "/d/missing");
      err "create existing" EEXIST (a.Fs.mkdir "/d" 0o777);
      Alcotest.(check int) "nothing left write-mapped" 0
        (List.length (Trio_core.Controller.write_mapped_inos env.Helpers.ctl ~proc:2));
      let b = Libfs.ops (Helpers.mount ~proc:3 ~unmap_after_write:true env) in
      let t0 = Sched.now env.Helpers.sched in
      ok "close" (b.Fs.close (ok "b create" (b.Fs.create "/d/x" 0o644)));
      let waited = Sched.now env.Helpers.sched -. t0 in
      if waited >= lease_ns then Alcotest.failf "b's create waited %.0f ns for a's lease" waited)

let test_write_open_checked_at_open () =
  with_shared_file ~mode:0o444 (fun env ino ->
      let stranger = Libfs.ops (Helpers.mount ~proc:2 ~uid:2222 env) in
      err "O_RDWR on 0o444 of another uid" EACCES (stranger.Fs.open_ "/s" [ O_RDWR ]);
      ignore (ok "O_RDONLY still allowed" (stranger.Fs.open_ "/s" [ O_RDONLY ]));
      Controller.degrade_file env.Helpers.ctl ~ino Controller.Degraded_ro ~detail:"test";
      (* the owner may write the file, so only the degradation refuses *)
      let owner = Libfs.ops (Helpers.mount ~proc:3 env) in
      ok "chmod" (owner.Fs.chmod "/s" 0o644);
      err "O_RDWR on degraded file" EROFS (owner.Fs.open_ "/s" [ O_RDWR ]);
      let fd = ok "O_RDONLY on degraded file" (owner.Fs.open_ "/s" [ O_RDONLY ]) in
      let buf = Bytes.create 4 in
      ignore (ok "pread" (owner.Fs.pread fd buf 0));
      Alcotest.(check string) "readable" "ssss" (Bytes.to_string buf))

(* ------------------------------------------------------------------ *)

(* The shared conformance suite (including errno parity and VFS counter
   checks) over a fresh ArckFS per check. *)
let arckfs_conformance =
  ( "conformance",
    Conformance.suite ~make_fs:(fun check ->
        Helpers.run_sim (fun env ->
            let fs = Helpers.mount ~proc:1 env in
            check (Trio_core.Vfs.wrap ~sched:env.Helpers.sched (Libfs.ops fs));
            Libfs.unmap_everything fs;
            Conformance.accounting env.Helpers.ctl)) )

let () =
  Alcotest.run "arckfs"
    [
      arckfs_conformance;
      ( "namespace",
        [
          Alcotest.test_case "create and stat" `Quick test_create_and_stat;
          Alcotest.test_case "duplicate create" `Quick test_create_duplicate_fails;
          Alcotest.test_case "open missing" `Quick test_open_missing_fails;
          Alcotest.test_case "O_CREAT" `Quick test_open_o_creat;
          Alcotest.test_case "invalid paths" `Quick test_invalid_paths;
          Alcotest.test_case "nested mkdir" `Quick test_mkdir_nested;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "unlink dir" `Quick test_unlink_dir_fails;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "many files (page growth)" `Quick test_many_files_in_dir;
        ] );
      ( "data",
        [
          Alcotest.test_case "roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "pwrite/pread offsets" `Quick test_pwrite_pread_offsets;
          Alcotest.test_case "read past eof" `Quick test_read_past_eof;
          Alcotest.test_case "multi-page file" `Quick test_multi_page_file;
          Alcotest.test_case "sparse extend" `Quick test_sparse_write_extends;
          Alcotest.test_case "truncate" `Quick test_truncate_shrink;
          Alcotest.test_case "O_TRUNC" `Quick test_o_trunc;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
        ] );
      ( "rename",
        [
          Alcotest.test_case "same dir" `Quick test_rename_same_dir;
          Alcotest.test_case "cross dir" `Quick test_rename_cross_dir;
          Alcotest.test_case "replaces destination" `Quick test_rename_replaces_destination;
          Alcotest.test_case "directory" `Quick test_rename_directory;
          Alcotest.test_case "missing src" `Quick test_rename_missing_src;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent creates" `Quick test_concurrent_creates_in_dir;
          Alcotest.test_case "disjoint writes" `Quick test_concurrent_disjoint_writes;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "results equivalent" `Quick test_delegation_equivalent_results;
          Alcotest.test_case "fault reaches the caller" `Quick
            test_delegation_fault_reaches_caller;
        ] );
      ( "sharing cost",
        [
          Alcotest.test_case "handoff PTE ops" `Quick test_handoff_pte_ops;
          Alcotest.test_case "re-mapping write grants once" `Quick test_remapping_write_one_grant;
          Alcotest.test_case "write open checked at open" `Quick test_write_open_checked_at_open;
          Alcotest.test_case "failed name op releases its parent" `Quick
            test_failed_name_op_releases_parent;
        ] );
      ( "crash",
        [
          Alcotest.test_case "create durable" `Quick test_crash_after_create_consistent;
          Alcotest.test_case "rename journaled" `Quick test_crash_mid_rename_rolls_back;
          Alcotest.test_case "dir size repaired" `Quick test_crash_size_field_repaired;
        ] );
    ]
