(* The seeded-bug matrix: every {!Trio_util.Mutation.t} paired with the
   pinned campaign that must catch it and the kind of failure it must
   report.  A campaign that stays silent with its bug armed proves
   nothing, so [trioctl mutate] runs this table and fails unless every
   row is caught. *)

module Mutation = Trio_util.Mutation

let generated ~seed ~len = Script.generate (Trio_util.Rng.create seed) ~len

(* journal-reorder: the rename the reordered journal commit loses. *)
let table : (Mutation.t * (unit -> Explore.report) * Explore.kind) list =
  [
    ( Journal_reorder,
      (fun () -> Explore.explore (Result.get_ok (Script.parse "create /n00; rename /n00 /n01"))),
      Model );
    (Drop_writes, (fun () -> Vdiff.differential ()), Divergence);
    ( Skip_gc,
      (fun () ->
        Explore.explore_proc_death
          ~config:{ Explore.pd_kill_points = 3; pd_hang_points = 1; pd_ring = None }
          (generated ~seed:5 ~len:5)),
      Accounting );
    ( Qos_bypass,
      (fun () -> Explore.explore_qos ~config:{ Explore.qd_kill_points = 6; qd_ops = 6 } ()),
      Vacuous );
    ( Torn_commit,
      (fun () ->
        Explore.explore_snapshot_commit ~config:{ Explore.sc_kill_points = 12 }
          (generated ~seed:1 ~len:4)),
      Root_loss );
    (Skip_index, Explore.audit_dir_index, Rejection);
  ]

(* Run [m]'s campaign with [m] armed: the report, and whether it failed
   with exactly the expected kind. *)
let gate m =
  let _, run, expect = List.find (fun (m', _, _) -> m' = m) table in
  Explore.self_test ~arm:m ~expect run

(* One line for a matrix row: the failure's kind and the first line of
   its detail. *)
let summary (r : Explore.report) =
  match r.failure with
  | None -> "the campaign passed"
  | Some cx ->
    let first = List.hd (String.split_on_char '\n' cx.cx_detail) in
    Printf.sprintf "%s: %s" (Explore.kind_name cx.cx_kind) first
