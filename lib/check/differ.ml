(* Differential cross-FS fuzzing.

   The same op script runs through every evaluated file system via the
   instrumented VFS layer, and the observable outcome — per-op success /
   errno, then the final namespace, sizes and data — is diffed against
   the in-memory model (which all nine implementations are supposed to
   agree with, per the conformance suite).  Any disagreement is a
   semantics divergence: either this reproduction's baseline model or
   ArckFS itself mishandles the sequence.

   The result is one {!Explore.report} with one state per file system:
   a divergence is a [Model] failure whose detail names the file system,
   shrunk by {!Explore.shrink} while that file system still diverges,
   and every diverging file system is counted by name. *)

module Rig = Trio_workloads.Rig
module Vfs = Trio_core.Vfs

(* The nine evaluated file systems: ArckFS plus the eight baselines. *)
let default_fses =
  [ "arckfs"; "ext4"; "ext4-raid0"; "pmfs"; "nova"; "winefs"; "odinfs"; "splitfs"; "strata" ]

(* Run one script through one file system in a fresh world; [Ok ()] when
   every op and the final durable state agree with the model. *)
let run_one fs_name ops =
  Rig.run ~nodes:2 ~cpus_per_node:4 ~pages_per_node:16384 ~store_data:true (fun rig ->
      let vfs = Rig.mount_fs rig fs_name in
      let fs = Vfs.ops vfs in
      let model = Script.model_create () in
      match Script.apply_all fs model ops with
      | Error _ as e -> e
      | Ok () -> Script.check_model fs model)

(* One file system's run as a one-state report; a failure names the
   file system in its detail and in a count, and ends with the command
   that replays it. *)
let diff_one fs_name ops =
  let r =
    Explore.campaign ~ops ~counts:[] ~points:1
      [
        ( None,
          fun () ->
            match run_one fs_name ops with
            | Ok () -> Explore.empty
            | Error d -> Explore.fail Model "%s" d );
      ]
  in
  match r.failure with
  | None -> r
  | Some cx ->
    Explore.add
      (Explore.tally [ (fs_name ^ " diverged", 1) ])
      {
        r with
        failure =
          Some
            {
              cx with
              cx_detail =
                Printf.sprintf "%s: %s\nreplay:   trioctl crashcheck --diff --script %S" fs_name
                  cx.cx_detail (Script.to_string ops);
            };
      }

(* Diff one script across [fses]; every file system runs, the first
   divergence (shrunk when [shrink]) is the report's failure. *)
let diff ?(fses = default_fses) ?(shrink = true) ops =
  List.fold_left
    (fun acc fs_name ->
      let r = diff_one fs_name ops in
      Explore.add acc (if shrink then Explore.shrink (diff_one fs_name) r else r))
    Explore.empty fses
