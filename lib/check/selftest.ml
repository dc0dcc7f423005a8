(* The seeded-bug matrix: every {!Trio_util.Mutation.t} paired with the
   pinned gate that must catch it, and the way it must be caught.  A
   gate that stays silent with its bug armed proves nothing, so
   [trioctl mutate] runs this table and fails unless every row is
   caught. *)

module Mutation = Trio_util.Mutation

type verdict = { caught : bool; detail : string }

(* Caught when the run failed with exactly the [expect]ed kind. *)
let failed_with ~expect = function
  | Some cx when cx.Explore.cx_kind = expect ->
    { caught = true; detail = Printf.sprintf "%s: %s" (Explore.kind_name expect) cx.cx_detail }
  | Some cx ->
    {
      caught = false;
      detail =
        Printf.sprintf "%s failure, expected %s: %s" (Explore.kind_name cx.cx_kind)
          (Explore.kind_name expect) cx.cx_detail;
    }
  | None -> { caught = false; detail = "the gate passed" }

(* The op script whose rename the reordered journal commit loses. *)
let journal_script = "create /n00; rename /n00 /n01"

let generated ~seed ~len = Script.generate (Trio_util.Rng.create seed) ~len

let gate m =
  let armed f = Mutation.armed m f in
  match m with
  | Mutation.Journal_reorder ->
    let ops = Result.get_ok (Script.parse journal_script) in
    failed_with ~expect:Model (armed (fun () -> Explore.explore ops)).counterexample
  | Drop_writes ->
    let v = armed (fun () -> Vdiff.differential ~seeds:2 ~script_seed:1 ~script_len:6 ()) in
    {
      caught = v.vd_diffs <> [];
      detail =
        Printf.sprintf "%d of %d scenarios diverge across verification modes"
          (List.length v.vd_diffs) v.vd_scenarios;
    }
  | Skip_gc ->
    let config = { Explore.pd_kill_points = 3; pd_hang_points = 1; pd_ring = None } in
    let ops = generated ~seed:5 ~len:5 in
    failed_with ~expect:Accounting
      (armed (fun () -> Explore.explore_proc_death ~config ops)).failure
  | Qos_bypass ->
    let config = { Explore.qd_kill_points = 6; qd_ops = 6 } in
    failed_with ~expect:Vacuous (armed (fun () -> Explore.explore_qos ~config ())).failure
  | Torn_commit ->
    let config = { Explore.sc_kill_points = 12 } in
    let ops = generated ~seed:1 ~len:4 in
    failed_with ~expect:Root_loss
      (armed (fun () -> Explore.explore_snapshot_commit ~config ops)).failure
  | Skip_index ->
    (* arms [m] itself, after an honest prefix that builds the index *)
    if Explore.dir_index_mutation_caught () then
      { caught = true; detail = "I5 flagged the index/dentry divergence at the sharing point" }
    else { caught = false; detail = "I5 missed an unmaintained directory index" }
