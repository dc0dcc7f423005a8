(* Tests for the B-link ordered directory index (DESIGN.md §4.18):
   the raw tree operations at scale, duplicate-hash collisions, split
   boundaries, the LibFS integration (rename across indexed
   directories, readdir ordering), and the kill-point / mutation
   exploration campaigns. *)

module Pmem = Trio_nvm.Pmem
module Dirindex = Trio_core.Dirindex
module Libfs = Arckfs.Libfs
module Fs = Trio_core.Fs_intf
module Controller = Trio_core.Controller
module Explore = Trio_check.Explore
open Trio_core.Fs_types

let ok = Helpers.check_ok
let err = Helpers.check_err
let deep = Sys.getenv_opt "DIRCHECK_DEEP" = Some "1"

(* Unwrap the tree's two error shapes. *)
let tok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let iok what = function
  | Ok v -> v
  | Error `Nospace -> Alcotest.failf "%s: out of space" what
  | Error (`Damaged e) -> Alcotest.failf "%s: damaged: %s" what e

(* ------------------------------------------------------------------ *)
(* Raw tree harness: a page pool over the top half of the device.  The
   controller's extent allocators never reach up there during these
   tests, so the raw tree can own those pages without a fight. *)

let with_tree f =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem in
      let total = Pmem.total_pages pm in
      let next = ref (total / 2) in
      let freed = ref [] in
      let alloc () =
        match !freed with
        | pg :: rest ->
          freed := rest;
          Some pg
        | [] ->
          if !next >= total then None
          else begin
            let pg = !next in
            incr next;
            Some pg
          end
      in
      let free pg = freed := pg :: !freed in
      f pm alloc free)

let audit_clean what pm root =
  let au = Dirindex.audit pm ~actor:Pmem.kernel_actor ~root in
  if au.Dirindex.au_violations <> [] then
    Alcotest.failf "%s: audit violations: %s" what
      (String.concat "; " au.Dirindex.au_violations);
  au

(* ------------------------------------------------------------------ *)
(* Scale: insert / lookup / delete through thousands of entries with a
   scrambled key order, production fanout. *)

let test_scale () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      let n = if deep then 100_000 else 2_000 in
      (* multiplicative scramble so inserts arrive in shuffled key
         order; masked so duplicate hashes appear too *)
      let hash i = i * 2654435761 land 0xFFFFF in
      let root = ref 0 in
      for i = 0 to n - 1 do
        let r, _fresh =
          iok "insert"
            (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:(hash i) ~addr:i)
        in
        root := r
      done;
      let au = audit_clean "after inserts" pm !root in
      Alcotest.(check int) "entry count" n (List.length au.Dirindex.au_entries);
      (* every key resolvable; sample when deep to keep the suite honest
         about wall clock *)
      let step = if deep then 97 else 1 in
      let i = ref 0 in
      while !i < n do
        let addrs =
          tok "lookup" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash !i))
        in
        if not (List.mem !i addrs) then Alcotest.failf "entry %d not found" !i;
        i := !i + step
      done;
      (* delete the even half, then verify the odd half survives *)
      let i = ref 0 in
      while !i < n do
        tok "delete" (Dirindex.delete pm ~actor ~root:!root ~hash:(hash !i) ~addr:!i);
        i := !i + 2
      done;
      let au = audit_clean "after deletes" pm !root in
      Alcotest.(check int) "half left" (n / 2) (List.length au.Dirindex.au_entries);
      let addrs = tok "lookup even" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash 0)) in
      Alcotest.(check bool) "deleted gone" false (List.mem 0 addrs);
      let addrs = tok "lookup odd" (Dirindex.lookup pm ~actor ~root:!root ~hash:(hash 1)) in
      Alcotest.(check bool) "survivor found" true (List.mem 1 addrs);
      (* drain the rest: an empty tree is legal and still audits *)
      let i = ref 1 in
      while !i < n do
        tok "delete rest" (Dirindex.delete pm ~actor ~root:!root ~hash:(hash !i) ~addr:!i);
        i := !i + 2
      done;
      let au = audit_clean "empty" pm !root in
      Alcotest.(check int) "empty" 0 (List.length au.Dirindex.au_entries))

(* Duplicate hashes: many names can share one hash bucket; the
   composite (hash, addr) key keeps them distinct, lookup returns the
   whole bucket, delete removes exactly one. *)
let test_duplicate_hashes () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      Dirindex.set_test_capacity (Some 4);
      Fun.protect
        ~finally:(fun () -> Dirindex.set_test_capacity None)
        (fun () ->
          let root = ref 0 in
          (* 50 entries, all hash 42: the bucket spans many leaves *)
          for a = 0 to 49 do
            let r, _ =
              iok "insert dup"
                (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:42 ~addr:a)
            in
            root := r
          done;
          ignore
            (iok "insert other"
               (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:7 ~addr:1000)
             : int * int list);
          let bucket = tok "lookup bucket" (Dirindex.lookup pm ~actor ~root:!root ~hash:42) in
          Alcotest.(check int) "whole bucket" 50 (List.length bucket);
          tok "delete one" (Dirindex.delete pm ~actor ~root:!root ~hash:42 ~addr:17);
          let bucket = tok "re-lookup" (Dirindex.lookup pm ~actor ~root:!root ~hash:42) in
          Alcotest.(check int) "one fewer" 49 (List.length bucket);
          Alcotest.(check bool) "victim gone" false (List.mem 17 bucket);
          Alcotest.(check bool) "neighbors live" true (List.mem 16 bucket && List.mem 18 bucket);
          ignore (audit_clean "collisions" pm !root : Dirindex.audit)))

(* Boundaries: the empty tree (root = 0) and the first split. *)
let test_boundaries () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      Dirindex.set_test_capacity (Some 4);
      Fun.protect
        ~finally:(fun () -> Dirindex.set_test_capacity None)
        (fun () ->
          (* root = 0 is the legal unindexed state: lookups miss,
             deletes and folds no-op *)
          Alcotest.(check (list int))
            "empty lookup" []
            (tok "lookup root=0" (Dirindex.lookup pm ~actor ~root:0 ~hash:5));
          tok "delete root=0" (Dirindex.delete pm ~actor ~root:0 ~hash:5 ~addr:5);
          let r0, pages = iok "build empty" (Dirindex.build pm ~actor ~alloc ~free ~entries:[]) in
          Alcotest.(check int) "empty build is unindexed" 0 r0;
          Alcotest.(check (list int)) "no pages" [] pages;
          (* fill exactly one node, then push it over: the first insert
             past capacity must split and grow a root *)
          let root = ref 0 in
          for a = 0 to 3 do
            let r, _ =
              iok "fill" (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:a ~addr:a)
            in
            root := r
          done;
          let one = Dirindex.pages pm ~actor ~root:!root in
          Alcotest.(check int) "single node before split" 1 (List.length one);
          let r, fresh =
            iok "overflow" (Dirindex.insert pm ~actor ~alloc ~free ~root:!root ~hash:4 ~addr:4)
          in
          Alcotest.(check bool) "root swung" true (r <> !root);
          Alcotest.(check bool) "split minted pages" true (List.length fresh >= 2);
          root := r;
          let after = Dirindex.pages pm ~actor ~root:!root in
          Alcotest.(check bool) "tree grew" true (List.length after >= 3);
          let au = audit_clean "post split" pm !root in
          Alcotest.(check int) "all five" 5 (List.length au.Dirindex.au_entries);
          for a = 0 to 4 do
            let addrs = tok "find" (Dirindex.lookup pm ~actor ~root:!root ~hash:a) in
            if not (List.mem a addrs) then Alcotest.failf "key %d lost across split" a
          done))

(* Building over an exhausted allocator fails cleanly with Nospace
   instead of retrying forever. *)
let test_build_nospace () =
  with_tree (fun pm _alloc free ->
      match
        Dirindex.build pm ~actor:Pmem.kernel_actor ~alloc:(fun () -> None) ~free
          ~entries:[ (1, 100); (2, 200) ]
      with
      | Error `Nospace -> ()
      | Ok _ -> Alcotest.fail "build succeeded without any pages")

let with_fs f =
  Helpers.run_sim (fun env ->
      let fs = Helpers.mount ~proc:1 env in
      f env fs (Libfs.ops fs))

(* ------------------------------------------------------------------ *)
(* Node I/O: a node costs its live prefix, not its page *)

module Layout = Trio_core.Layout
module Sched = Trio_sim.Sched
module Perf = Trio_nvm.Perf

let bytes_read pm = int_of_float (fst (Pmem.bytes_moved pm))

(* NVM bytes read and virtual ns spent by [f ()]. *)
let measure pm f =
  let b0 = bytes_read pm and t0 = Sched.now (Pmem.sched pm) in
  let v = f () in
  (v, bytes_read pm - b0, Sched.now (Pmem.sched pm) -. t0)

let fill pm alloc free n =
  let root = ref 0 in
  for a = 0 to n - 1 do
    let r, _ =
      iok "insert"
        (Dirindex.insert pm ~actor:Pmem.kernel_actor ~alloc ~free ~root:!root ~hash:a ~addr:a)
    in
    root := r
  done;
  !root

let test_small_node_read () =
  with_tree (fun pm alloc free ->
      let root = fill pm alloc free 1 in
      let addrs, nbytes, _ =
        measure pm (fun () ->
            tok "lookup" (Dirindex.lookup pm ~actor:Pmem.kernel_actor ~root ~hash:0))
      in
      Alcotest.(check (list int)) "found" [ 0 ] addrs;
      if nbytes > Pmem.line_size then Alcotest.failf "1-entry lookup read %d B" nbytes)

(* A full node's live prefix is the whole page.  The lookup must cost
   exactly one read of it plus the in-node probe: a second access (say,
   header line first) would pay the media latency twice. *)
let test_full_node_one_access () =
  with_tree (fun pm alloc free ->
      let actor = Pmem.kernel_actor in
      let cap = Layout.dnode_capacity in
      let root = fill pm alloc free cap in
      Alcotest.(check (list int)) "one node" [ root ] (Dirindex.pages pm ~actor ~root);
      let addrs, nbytes, ns =
        measure pm (fun () -> tok "lookup" (Dirindex.lookup pm ~actor ~root ~hash:7))
      in
      Alcotest.(check (list int)) "found" [ 7 ] addrs;
      Alcotest.(check int) "live prefix" (Layout.dnode_len cap) nbytes;
      let _, _, one_read =
        measure pm (fun () ->
            Pmem.read pm ~actor ~addr:(root * Pmem.page_size) ~len:(Layout.dnode_len cap))
      in
      let _, _, probe = measure pm (fun () -> Sched.cpu_work Perf.Cpu.hash_lookup) in
      Alcotest.(check (float 1e-6)) "one access" (one_read +. probe) ns)

(* Tear a rewrite of the root node of "/" at its first line boundary:
   the old node holds f0..f3 (136 B, three lines), the new one drops its
   second entry.  Either half alone fails the header CRC, and a cold
   process still resolves every name through the dentry scan. *)
let test_torn_prefix () =
  List.iter
    (fun new_header ->
      with_fs (fun env fs ops ->
          let pm = env.Helpers.pmem and actor = Pmem.kernel_actor in
          for i = 0 to 3 do
            ignore (ok "create" (ops.Fs.create (Printf.sprintf "/f%d" i) 0o644) : int)
          done;
          Libfs.unmap_everything fs;
          let root = Layout.read_dindex_root pm ~actor ~dentry_addr:Layout.root_dentry_addr in
          let node = tok "read root" (Dirindex.read_node pm ~actor root) in
          Alcotest.(check int) "four entries" 4 (Array.length node.Layout.dn_entries);
          let old_b = Layout.encode_dnode node in
          let kept = List.filteri (fun i _ -> i <> 1) (Array.to_list node.Layout.dn_entries) in
          let new_b = Layout.encode_dnode { node with Layout.dn_entries = Array.of_list kept } in
          let line = Pmem.line_size in
          let torn = Bytes.copy old_b in
          if new_header then Bytes.blit new_b 0 torn 0 line
          else Bytes.blit new_b line torn line (Bytes.length new_b - line);
          let addr = root * Pmem.page_size in
          Pmem.write pm ~actor ~addr ~src:torn;
          Pmem.persist pm ~addr ~len:(Bytes.length torn);
          (match Dirindex.read_node pm ~actor root with
          | Ok _ -> Alcotest.failf "torn node (new header %b) decoded" new_header
          | Error _ -> ());
          let cold = Libfs.ops (Helpers.mount ~proc:2 env) in
          for i = 0 to 3 do
            ignore (ok "found by scan" (cold.Fs.stat (Printf.sprintf "/f%d" i)) : stat)
          done))
    [ true; false ]

(* User reads go through ECC over the live prefix only. *)
let test_poison_prefix () =
  with_tree (fun pm alloc free ->
      let root = fill pm alloc free 3 in
      let user = 7 in
      Pmem.set_perm_check pm (fun ~actor:_ ~page:_ ~write:_ -> true);
      let page_addr = root * Pmem.page_size in
      Pmem.inject_poison pm ~addr:(page_addr + Pmem.page_size - Pmem.line_size) ~len:Pmem.line_size;
      Alcotest.(check (list int))
        "poison past the prefix" [ 2 ]
        (tok "lookup" (Dirindex.lookup pm ~actor:user ~root ~hash:2));
      Pmem.inject_poison pm ~addr:(page_addr + Pmem.line_size) ~len:Pmem.line_size;
      match Dirindex.lookup pm ~actor:user ~root ~hash:2 with
      | Ok _ -> Alcotest.fail "poison inside the prefix was not reported"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* LibFS integration *)

(* Rename between two indexed directories: the entry must leave the
   source tree and land in the destination tree, and the handoff must
   certify (no I5 divergence). *)
let test_rename_across_indexed_dirs () =
  Dirindex.set_test_capacity (Some 4);
  Fun.protect
    ~finally:(fun () -> Dirindex.set_test_capacity None)
    (fun () ->
      with_fs (fun env fs ops ->
          ok "mkdir a" (ops.Fs.mkdir "/a" 0o755);
          ok "mkdir b" (ops.Fs.mkdir "/b" 0o755);
          (* enough entries that both directories hold split trees *)
          for i = 0 to 9 do
            ignore (ok "create a" (ops.Fs.create (Printf.sprintf "/a/f%d" i) 0o644) : int)
          done;
          for i = 0 to 5 do
            ignore (ok "create b" (ops.Fs.create (Printf.sprintf "/b/g%d" i) 0o644) : int)
          done;
          ok "rename" (ops.Fs.rename "/a/f3" "/b/moved");
          err "gone from a" ENOENT (ops.Fs.stat "/a/f3");
          ignore (ok "landed in b" (ops.Fs.stat "/b/moved") : stat);
          Alcotest.(check int) "a count" 9 (List.length (ok "readdir a" (ops.Fs.readdir "/a")));
          Alcotest.(check int) "b count" 7 (List.length (ok "readdir b" (ops.Fs.readdir "/b")));
          (* rename onto an existing indexed entry replaces it *)
          ok "rename replace" (ops.Fs.rename "/a/f4" "/b/g0");
          Alcotest.(check int) "a count" 8 (List.length (ok "readdir a" (ops.Fs.readdir "/a")));
          Alcotest.(check int) "b count" 7 (List.length (ok "readdir b" (ops.Fs.readdir "/b")));
          Libfs.unmap_everything fs;
          (match Controller.corruption_events env.Helpers.ctl with
          | [] -> ()
          | evs -> Alcotest.failf "verifier flagged %d event(s)" (List.length evs));
          let _checked, bad = Controller.audit_all env.Helpers.ctl in
          Alcotest.(check int) "full sweep clean" 0 bad))

(* The readdir contract: entries stream in ascending (name-hash, name)
   order — the index's native order — and repeated scans agree. *)
let test_readdir_order () =
  with_fs (fun _ _ ops ->
      ok "mkdir" (ops.Fs.mkdir "/d" 0o755);
      for i = 0 to 40 do
        ignore (ok "create" (ops.Fs.create (Printf.sprintf "/d/n%02d" i) 0o644) : int)
      done;
      let names entries = List.map (fun e -> e.d_name) entries in
      let first = names (ok "readdir" (ops.Fs.readdir "/d")) in
      let second = names (ok "readdir again" (ops.Fs.readdir "/d")) in
      Alcotest.(check (list string)) "stable across scans" first second;
      let keyed = List.map (fun n -> (Dirindex.hash_name n, n)) first in
      let sorted = List.sort compare keyed in
      Alcotest.(check bool) "ascending (hash, name)" true (keyed = sorted);
      Alcotest.(check int) "complete" 41 (List.length first))

(* ------------------------------------------------------------------ *)
(* Directory growth across handoffs *)

(* The data pages of directory [path], from the kernel's own walk. *)
let dir_data_pages env ops path =
  let st = ok "stat" (ops.Fs.stat path) in
  match Controller.dentry_addr_of env.Helpers.ctl st.st_ino with
  | None -> Alcotest.failf "%s unknown to the kernel" path
  | Some dentry_addr -> (
    match Controller.walk_file env.Helpers.ctl ~ino:st.st_ino ~dentry_addr with
    | Some (_, _, data, _) -> data
    | None -> Alcotest.failf "%s: walk failed" path)

(* Every create and unlink hands the directory back, so every create
   rebuilds its aux state from core state.  The rebuilt directory must
   reuse the slot the last unlink freed: one data page throughout, and
   the same PTE ops for every handoff. *)
let test_handoffs_reuse_slots ?ring () =
  Helpers.run_sim (fun env ->
      let setup = Helpers.mount ~proc:1 env in
      ok "mkdir" ((Libfs.ops setup).Fs.mkdir "/d" 0o755);
      Libfs.unmap_everything setup;
      let fs = Helpers.mount ~proc:2 ~unmap_after_write:true ?ring env in
      let ops = Libfs.ops fs in
      let pte_per_op =
        List.init 200 (fun i ->
            let p0 = Trio_core.Mmu.pte_ops env.Helpers.mmu in
            let path = Printf.sprintf "/d/f%d" i in
            ignore (ok "close" (ops.Fs.close (ok "create" (ops.Fs.create path 0o644))) : unit);
            ok "unlink" (ops.Fs.unlink path);
            Trio_core.Mmu.pte_ops env.Helpers.mmu - p0)
      in
      Libfs.unmap_everything fs;
      Alcotest.(check int) "one data page" 1 (List.length (dir_data_pages env ops "/d"));
      (* the first handoff maps a directory this process never held *)
      match List.tl pte_per_op with
      | [] -> ()
      | first :: rest ->
        List.iteri
          (fun i n ->
            if n <> first then Alcotest.failf "handoff %d: %d PTE ops, not %d" (i + 2) n first)
          rest)

(* A cold process creating in a directory whose pages are all full
   (64 entries, 4 pages) must not read any of them: the live count says
   there is no free slot, so it grows by exactly one page. *)
let test_full_dir_grows_blind () =
  Helpers.run_sim (fun env ->
      let pm = env.Helpers.pmem and mmu = env.Helpers.mmu in
      let w = Helpers.mount ~proc:1 env in
      let ops = Libfs.ops w in
      ok "mkdir" (ops.Fs.mkdir "/e" 0o755);
      for i = 0 to 63 do
        ignore (ok "create" (ops.Fs.create (Printf.sprintf "/e/f%02d" i) 0o644) : int)
      done;
      Libfs.unmap_everything w;
      let full = dir_data_pages env ops "/e" in
      Alcotest.(check int) "four full pages" 4 (List.length full);
      let reads = ref 0 in
      Pmem.set_perm_check pm (fun ~actor ~page ~write ->
          if actor = 2 && (not write) && List.mem page full then incr reads;
          Trio_core.Mmu.has_perm mmu ~actor ~page ~write);
      let cold = Helpers.mount ~proc:2 env in
      ignore (ok "cold create" ((Libfs.ops cold).Fs.create "/e/new" 0o644) : int);
      Pmem.set_perm_check pm (Trio_core.Mmu.has_perm mmu);
      Libfs.unmap_everything cold;
      Alcotest.(check int) "no dentry page read" 0 !reads;
      Alcotest.(check int) "one page added" 5 (List.length (dir_data_pages env ops "/e")))

(* An unlink's slot is free on media before its index key is gone.  A
   create racing it in a rebuilt directory must not pick that slot up
   from the media scan, or the unlink's late release hands the slot out
   a second time and a later create overwrites a live entry.  The
   create's start offset is swept so that some offsets land inside the
   unlink's window. *)
let test_racing_unlink_create () =
  for step = 0 to 59 do
    Helpers.run_sim (fun env ->
        let w = Helpers.mount ~proc:1 env in
        let ops = Libfs.ops w in
        ok "mkdir" (ops.Fs.mkdir "/r" 0o755);
        for i = 0 to 15 do
          ignore (ok "create" (ops.Fs.create (Printf.sprintf "/r/f%02d" i) 0o644) : int)
        done;
        Libfs.unmap_everything w;
        let fs = Helpers.mount ~proc:2 env in
        let ops = Libfs.ops fs in
        (* write-map the directory before the race, so neither racer
           remaps it; the slot stays on media, the free list empty and
           the page unscanned, so the racing create scans it *)
        ok "unlink f04" (ops.Fs.unlink "/r/f04");
        let finished = ref 0 in
        Sched.spawn env.Helpers.sched (fun () ->
            ok "racing unlink" (ops.Fs.unlink "/r/f01");
            incr finished);
        Sched.spawn env.Helpers.sched (fun () ->
            Sched.delay (float_of_int step *. 50.0);
            ignore (ok "racing create" (ops.Fs.create "/r/new" 0o644) : int);
            incr finished);
        while !finished < 2 do
          Sched.delay 1000.0
        done;
        ignore (ok "create after" (ops.Fs.create "/r/after" 0o644) : int);
        List.iter
          (fun n -> ignore (ok n (ops.Fs.stat ("/r/" ^ n)) : stat))
          [ "new"; "after"; "f00"; "f02" ];
        Alcotest.(check int) "entries" 16 (List.length (ok "readdir" (ops.Fs.readdir "/r")));
        Libfs.unmap_everything fs;
        Alcotest.(check int)
          "no corruption" 0
          (List.length (Controller.corruption_events env.Helpers.ctl)))
  done

(* A slot an unlink frees in a rebuilt directory must not be reachable
   twice: once from the free list and once from the media scan of its
   not-yet-scanned page.  [race] claims a second slot while a create
   holds the first one claimed but unwritten (the dentry body is
   persisted before its ino word); the offset between the two starts is
   swept both ways so that some offsets land inside that window, in
   either order.  A rename holds its claim across journal I/O, so that
   race fails when the rule is broken; a create holds its claim for
   less time than a one-page scan takes to sample the media, so with
   today's cost constants the two-create case cannot interleave and
   guards the rule only against a change of costs. *)
let test_racing_claims ~entries race () =
  for step = -40 to 19 do
    let offset = float_of_int step *. 50.0 in
    Helpers.run_sim (fun env ->
        let w = Helpers.mount ~proc:1 env in
        let ops = Libfs.ops w in
        ok "mkdir" (ops.Fs.mkdir "/r" 0o755);
        for i = 0 to 15 do
          ignore (ok "create" (ops.Fs.create (Printf.sprintf "/r/f%02d" i) 0o644) : int)
        done;
        Libfs.unmap_everything w;
        let fs = Helpers.mount ~proc:2 env in
        let ops = Libfs.ops fs in
        (* the only free slot, on the one page no scan has read *)
        ok "unlink f03" (ops.Fs.unlink "/r/f03");
        let finished = ref 0 in
        Sched.spawn env.Helpers.sched (fun () ->
            Sched.delay (Float.max 0.0 (-.offset));
            ignore (ok "racing create" (ops.Fs.create "/r/new" 0o644) : int);
            incr finished);
        Sched.spawn env.Helpers.sched (fun () ->
            Sched.delay (Float.max 0.0 offset);
            race ops;
            incr finished);
        while !finished < 2 do
          Sched.delay 1000.0
        done;
        let names = List.map (fun e -> e.d_name) (ok "readdir" (ops.Fs.readdir "/r")) in
        List.iter (fun n -> ignore (ok n (ops.Fs.stat ("/r/" ^ n)) : stat)) ("new" :: names);
        Alcotest.(check int) "entries" entries (List.length names);
        Libfs.unmap_everything fs;
        Alcotest.(check int)
          "no corruption" 0
          (List.length (Controller.corruption_events env.Helpers.ctl)))
  done

let second_create ops = ignore (ok "second create" (ops.Fs.create "/r/other" 0o644) : int)
let rename_in ops = ok "rename" (ops.Fs.rename "/r/f05" "/r/moved")

(* ------------------------------------------------------------------ *)
(* Exploration campaigns *)

(* SIGKILL at sampled points inside index mutations: every recovered
   state must certify under a Full sweep (I5 included), and at least
   one sampled state must have split a node (else the campaign never
   entered the interesting windows). *)
let test_explore_kills () =
  let config =
    if deep then Explore.default_dir_config
    else { Explore.dx_kill_points = 8; dx_entries = 12 }
  in
  let r = Explore.explore_dir_index ~config () in
  (match r.Explore.failure with
  | None -> ()
  | Some cx -> Alcotest.failf "%a" Explore.pp_counterexample cx);
  Alcotest.(check bool) "sampled states" true (r.Explore.states > 0);
  Alcotest.(check int)
    "every state certified" r.Explore.states
    (Explore.count r "indexed" + Explore.count r "unindexed");
  Alcotest.(check bool) "splits reached" true (Explore.count r "splits" > 0)

(* The detection self-test: a LibFS that silently skips index
   maintenance must be rejected by I5 at a sharing point, and the same
   victim run honestly must not be rejected at all. *)
let test_mutation_caught () =
  (match (Explore.audit_dir_index ()).Explore.failure with
  | None -> ()
  | Some cx -> Alcotest.failf "honest run failed:@.%a" Explore.pp_counterexample cx);
  let r, caught =
    Explore.self_test ~arm:Skip_index ~expect:Explore.Rejection Explore.audit_dir_index
  in
  if not caught then Alcotest.failf "skip-index-update not rejected:@.%a" Explore.pp r;
  let names_i5 d =
    let rec go i = i + 2 <= String.length d && (String.sub d i 2 = "I5" || go (i + 1)) in
    go 0
  in
  match r.Explore.failure with
  | Some cx when names_i5 cx.Explore.cx_detail -> ()
  | _ -> Alcotest.failf "the rejection does not name I5:@.%a" Explore.pp r

let () =
  Alcotest.run "dirindex"
    [
      ( "tree",
        [
          Alcotest.test_case "insert/lookup/delete at scale" `Quick test_scale;
          Alcotest.test_case "duplicate hashes" `Quick test_duplicate_hashes;
          Alcotest.test_case "empty tree and first split" `Quick test_boundaries;
          Alcotest.test_case "build without pages" `Quick test_build_nospace;
        ] );
      ( "node io",
        [
          Alcotest.test_case "1-entry lookup reads one line" `Quick test_small_node_read;
          Alcotest.test_case "full node is one prefix access" `Quick test_full_node_one_access;
          Alcotest.test_case "torn prefix falls back to scan" `Quick test_torn_prefix;
          Alcotest.test_case "poison only inside the prefix" `Quick test_poison_prefix;
        ] );
      ( "libfs",
        [
          Alcotest.test_case "rename across indexed dirs" `Quick test_rename_across_indexed_dirs;
          Alcotest.test_case "readdir order" `Quick test_readdir_order;
        ] );
      ( "growth",
        [
          Alcotest.test_case "sync handoffs reuse slots" `Quick
            (test_handoffs_reuse_slots ?ring:None);
          Alcotest.test_case "ring handoffs reuse slots" `Quick (test_handoffs_reuse_slots ~ring:8);
          Alcotest.test_case "full directory grows blind" `Quick test_full_dir_grows_blind;
          Alcotest.test_case "racing unlink keeps its slot" `Quick test_racing_unlink_create;
          Alcotest.test_case "racing creates claim distinct slots" `Quick
            (test_racing_claims ~entries:17 second_create);
          Alcotest.test_case "create racing rename claim distinct slots" `Quick
            (test_racing_claims ~entries:16 rename_in);
        ] );
      ( "explore",
        [
          Alcotest.test_case "kill points certify" `Quick test_explore_kills;
          Alcotest.test_case "mutation caught" `Quick test_mutation_caught;
        ] );
    ]
