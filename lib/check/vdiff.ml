(* Incremental-vs-full verification differential gate (DESIGN.md §4.13).

   The incremental verifier serves snapshot bytes for provably-clean
   pages instead of re-reading them, so its *verdicts* must be
   byte-identical to a full I1–I4 walk — only the simulated cost may
   differ.  [differential] makes that property executable: it runs the
   §6.5 attack suite (handcrafted + scripted campaign) and a
   pinned-seed crash-state exploration twice, once under [Full] and
   once under [Incremental] verification, compares every rendered
   verdict byte for byte, and restores the global verification mode on
   every exit path.  Its teeth are proven by the [Drop_writes] mutation
   (see {!Selftest}): a write-set that silently drops pages must make
   the two modes diverge. *)

module Controller = Trio_core.Controller
module Attacks = Trio_attacks.Attacks
module Rng = Trio_util.Rng

let render_outcome (o : Attacks.outcome) =
  Fmt.str "%a :: %s" Attacks.pp_outcome o (String.concat " / " o.Attacks.a_events)

let render_campaign (c : Attacks.campaign_result) =
  Printf.sprintf "total=%d detected=%d consistent=%d" c.Attacks.c_total c.Attacks.c_detected
    c.Attacks.c_consistent

(* The exploration slice is deliberately small: the gate's job is to
   compare verdicts across modes, not to re-run the deep campaign. *)
let explore_config =
  {
    Explore.default_config with
    Explore.max_states = 256;
    check_replay = false;
    shrink = false;
  }

(* Every scenario one verification mode runs, as (name, verdict), the
   verdict rendered to a stable string so comparison is byte-exact. *)
let run_suite ~seeds ~script_seed ~script_len mode =
  let prev = Controller.current_verify_mode () in
  Controller.set_verify_mode mode;
  Fun.protect
    ~finally:(fun () -> Controller.set_verify_mode prev)
    (fun () ->
      let handcrafted =
        List.mapi
          (fun i o -> (Printf.sprintf "attack %d" i, render_outcome o))
          (Attacks.run_handcrafted ())
      in
      let campaign = render_campaign (Attacks.run_campaign ~seeds ()) in
      let script = Script.generate (Rng.create script_seed) ~len:script_len in
      let explore = Fmt.str "%a" Explore.pp (Explore.explore ~config:explore_config script) in
      handcrafted @ [ ("campaign", campaign); ("exploration", explore) ])

(* One state per scenario; a scenario whose verdicts differ across the
   two modes is counted [diverged], and any divergence fails the report
   with every differing pair in its detail. *)
let differential ?(seeds = 2) ?(script_seed = 1) ?(script_len = 6) () =
  Explore.guarded @@ fun () ->
  let full = run_suite ~seeds ~script_seed ~script_len Controller.Full in
  let incremental = run_suite ~seeds ~script_seed ~script_len Controller.Incremental in
  let diffs =
    List.filter_map
      (fun (name, f) ->
        let g = Option.value ~default:"(missing)" (List.assoc_opt name incremental) in
        if f = g then None
        else Some (Printf.sprintf "%s:\n  full:        %s\n  incremental: %s" name f g))
      full
  in
  let n = List.length full and d = List.length diffs in
  let r =
    { (Explore.tally [ ("identical", n - d); ("diverged", d) ]) with points = n; states = n }
  in
  if d = 0 then r
  else
    Explore.add r
      (Explore.fail Divergence "%d of %d scenarios diverge across verification modes\n%s" d n
         (String.concat "\n" diffs))
