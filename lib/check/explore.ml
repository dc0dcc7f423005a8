(* The checkers behind the paper's §4.4/§5 claims, on one skeleton.

   Every checker in this library answers with one {!report}: the
   injection points its victim crosses, the states it checked, named
   per-campaign counts and the first failing state as a minimal
   {!counterexample}.  States run through {!campaign}, which stops at
   the first failure and turns an escaping exception into an [Uncaught]
   failure at that state's point ({!guarded} does the same for a check
   with no states of its own); one {!shrink} minimizes a failing script
   for any of them.

   The first checker is systematic crash-state exploration.  Instead of
   sampling one random crash per run, it enumerates the crash-state
   space of an op script deterministically:

   1. RECORD — run the script once on a recording device
      ({!Trio_nvm.Pmem.set_recording}), yielding the ordered
      store/persist event log and the number of post-mount LibFS stores
      N.  Crash index i (0 <= i <= N) names the state "the process died
      at its (i+1)-th store" (i = N: the script completed, then power
      failed).

   2. ENUMERATE — one incremental {!Pmem.Replay} pass over the log
      computes the unflushed-line set at every crash index.  At each
      index, the subsets of lines that may survive the power failure
      are enumerated exhaustively when the set is small
      (2^k <= 2^exhaustive_lines) and sampled from a seeded RNG
      otherwise.

   3. CHECK — every (crash index, surviving set) state gets a fresh
      world: re-run the script (deterministic, so the pre-crash device
      is reconstructed exactly), kill it with the store injector, apply
      {!Pmem.crash_select} with the chosen survivors, run controller
      crash recovery + LibFS remount, and compare against the model:
      completed operations must be fully durable, the interrupted
      operation atomic (namespace is exactly the pre- or post-state).

   A failing state is reported as a minimal counterexample: the script
   is greedily shrunk (drop ops, shrink sizes) while the exploration
   still finds a violation, and printed in a form [trioctl crashcheck]
   replays. *)

module Sched = Trio_sim.Sched
module Pmem = Trio_nvm.Pmem
module Numa = Trio_nvm.Numa
module Perf = Trio_nvm.Perf
module Mmu = Trio_core.Mmu
module Controller = Trio_core.Controller
module Libfs = Arckfs.Libfs
module Rng = Trio_util.Rng
module Fs = Trio_core.Fs_intf
module Scrub = Trio_core.Scrub
module Dirindex = Trio_core.Dirindex
module Layout = Trio_core.Layout
module Stats = Trio_sim.Stats

type config = {
  exhaustive_lines : int;
      (* enumerate all 2^k surviving subsets when the dirty set has <= k lines *)
  samples_per_point : int; (* sampled subsets above the threshold *)
  max_states : int; (* overall crash-state budget *)
  seed : int; (* drives subset sampling only; exploration is otherwise deterministic *)
  check_replay : bool; (* cross-check replayed images against the live device *)
  shrink : bool; (* minimize failing scripts before reporting *)
  shrink_budget : int; (* candidate explorations spent shrinking *)
}

let default_config =
  {
    exhaustive_lines = 6;
    samples_per_point = 6;
    max_states = 4096;
    seed = 1;
    check_replay = true;
    shrink = true;
    shrink_budget = 64;
  }

(* Where a state was injected: a power failure after [i] LibFS stores,
   or a SIGKILL / wedge at Sched kill point [i]. *)
type point = Store of int | Kill of int | Hang of int

(* What a failing state violated. *)
type kind =
  | Model (* the file system's answers disagree with the model or probe *)
  | Escalation (* the watchdog did not tear the victim down *)
  | Accounting (* page accounting unbalanced, or pages leaked, after a GC *)
  | Certification (* a recovered file fails Full verification *)
  | Root_loss (* no valid snapshot root, or recovery did not mount the right one *)
  | Divergence (* full and incremental verification disagree *)
  | Rejection (* the verifier rejected a file at a sharing point *)
  | Vacuous (* the campaign never reached the interaction it claims to test *)
  | Uncaught (* an exception escaped the state *)

type counterexample = {
  cx_kind : kind;
  cx_ops : Script.op list;
  cx_point : point option; (* None: failed with no injection at all *)
  cx_survivors : (int * int) list; (* (page, line) lines that survived the power failure *)
  cx_detail : string;
}

let pp_survivors ppf survivors =
  match survivors with
  | [] -> Fmt.pf ppf "none"
  | l ->
    Fmt.pf ppf "%s" (String.concat "," (List.map (fun (p, ln) -> Printf.sprintf "%d:%d" p ln) l))

let kind_name = function
  | Model -> "model"
  | Escalation -> "escalation"
  | Accounting -> "accounting"
  | Certification -> "certification"
  | Root_loss -> "root loss"
  | Divergence -> "divergence"
  | Rejection -> "rejection"
  | Vacuous -> "vacuous"
  | Uncaught -> "uncaught exception"

(* Only a store crash of the model check is a state [crashcheck --at]
   replays; kill points count Sched delays, not stores. *)
let pp_counterexample ppf cx =
  let replayable = cx.cx_kind = Model in
  if cx.cx_ops <> [] then Fmt.pf ppf "script:   %s@." (Script.to_string cx.cx_ops);
  (match cx.cx_point with
  | Some (Store i) ->
    Fmt.pf ppf "crash:    store crash after %d LibFS stores@." i;
    if replayable then Fmt.pf ppf "survived: %a@." pp_survivors cx.cx_survivors
  | Some (Kill i) -> Fmt.pf ppf "crash:    kill at kill point %d@." i
  | Some (Hang i) -> Fmt.pf ppf "crash:    hang at kill point %d@." i
  | None -> Fmt.pf ppf "crash:    none (failed without an injection)@.");
  Fmt.pf ppf "violation (%s): %s@." (kind_name cx.cx_kind) cx.cx_detail;
  match cx.cx_point with
  | Some (Store i) when replayable ->
    Fmt.pf ppf "replay:   trioctl crashcheck --script %S --at %d --survive %a@."
      (Script.to_string cx.cx_ops) i pp_survivors cx.cx_survivors
  | _ -> ()

let parse_survivors s =
  if String.trim s = "" || String.trim s = "none" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | chunk :: rest -> (
        match String.split_on_char ':' (String.trim chunk) with
        | [ p; l ] -> (
          match (int_of_string_opt p, int_of_string_opt l) with
          | Some p, Some l -> go ((p, l) :: acc) rest
          | _ -> Error (Printf.sprintf "bad surviving line %S" chunk))
        | _ -> Error (Printf.sprintf "bad surviving line %S (expected page:line)" chunk))
    in
    go [] (String.split_on_char ',' s)

(* [count] of [points] injection points, spread evenly from the first
   to the last (all of them when there are no more than [count]). *)
let spread ~points ~count =
  if points <= 0 || count <= 0 then []
  else if points <= count then List.init points Fun.id
  else if count = 1 then [ points / 2 ]
  else List.sort_uniq compare (List.init count (fun i -> i * (points - 1) / (count - 1)))

(* ------------------------------------------------------------------ *)
(* Reports and the campaign skeleton

   A campaign counts the injection points its victim crosses, checks
   each sampled state in a fresh world, sums the per-state tallies into
   one {!report}, and stops at the first failure.  A checker supplies
   only its states: where each is injected and how it is judged. *)

type report = {
  points : int; (* injection points the victim crosses end to end *)
  states : int; (* sampled states checked *)
  counts : (string * int) list; (* named tallies, in declaration order *)
  failure : counterexample option; (* the first failing state *)
}

let empty = { points = 0; states = 0; counts = []; failure = None }
let count r key = Option.value ~default:0 (List.assoc_opt key r.counts)

let pp ppf r =
  let pp_counts ppf = function
    | [] -> ()
    | counts -> Fmt.(pf ppf "  %a" (list ~sep:(any ", ") (pair ~sep:(any " ") string int)) counts)
  in
  Fmt.pf ppf "points %d  states %d%a@.%s" r.points r.states pp_counts r.counts
    (match r.failure with
    | None -> "the post-condition held in every sampled state"
    | Some cx -> Fmt.str "FAILED:@.%a" pp_counterexample cx)

(* Sum two tallies; the earlier failure wins. *)
let add a b =
  let keys = a.counts @ List.filter (fun (k, _) -> not (List.mem_assoc k a.counts)) b.counts in
  {
    points = a.points + b.points;
    states = a.states + b.states;
    counts = List.map (fun (k, _) -> (k, count a k + count b k)) keys;
    failure = (if Option.is_some a.failure then a.failure else b.failure);
  }

let tally counts = { empty with counts }

(* A failing state; the skeleton fills in the script and the point. *)
let fail kind fmt =
  Printf.ksprintf
    (fun d ->
      {
        empty with
        failure =
          Some { cx_kind = kind; cx_ops = []; cx_point = None; cx_survivors = []; cx_detail = d };
      })
    fmt

(* Sequence post-condition steps: stop at the first failing one. *)
let ( let& ) r k = if Option.is_some r.failure then r else add r (k ())

let located ops point r =
  { r with failure = Option.map (fun cx -> { cx with cx_ops = ops; cx_point = point }) r.failure }

(* Run one check; an exception escaping it is its [Uncaught] failure. *)
let guarded check =
  try check () with exn -> fail Uncaught "uncaught exception: %s" (Printexc.to_string exn)

(* The skeleton.  [states] pairs each sampled point with its check;
   [vacuous] names a count that must end up nonzero, or the campaign
   never exercised what it claims to. *)
let campaign ?(ops = []) ?vacuous ~counts ~points states =
  let r =
    List.fold_left
      (fun r (point, check) ->
        if Option.is_some r.failure then r
        else add r { (located ops point (guarded check)) with states = 1 })
      { empty with points; counts = List.map (fun k -> (k, 0)) counts }
      states
  in
  match vacuous with
  | Some key when Option.is_none r.failure && r.states > 0 && count r key = 0 ->
    add r
      (located ops None
         (fail Vacuous "no sampled state counted any %s: the campaign is not exercising the \
                        interaction it claims to" key))
  | _ -> r

let caught ~expect r =
  match r.failure with Some cx -> cx.cx_kind = expect | None -> false

(* A campaign's self-test: with the [arm] mutation in place the
   campaign must fail, and with exactly the [expect]ed kind. *)
let self_test ~arm ~expect run =
  let r = Trio_util.Mutation.armed arm run in
  (r, caught ~expect r)

(* The one shrinker: keep replacing the failing script with the first
   {!Script.shrink_candidates} candidate that [run] still fails the same
   way, until none does or [budget] runs are spent.  The report keeps
   its own tallies; only its counterexample shrinks. *)
let shrink ?(budget = 64) run r =
  let budget = ref budget in
  let rec go cx =
    let still_fails candidate =
      if !budget <= 0 || candidate = [] then None
      else begin
        decr budget;
        match (run candidate).failure with
        | Some cx' when cx'.cx_kind = cx.cx_kind -> Some cx'
        | _ -> None
      end
    in
    match List.find_map still_fails (Script.shrink_candidates cx.cx_ops) with
    | Some cx' -> go cx'
    | None -> cx
  in
  { r with failure = Option.map go r.failure }

(* ------------------------------------------------------------------ *)
(* Worlds *)

(* The explorer's fixed geometry: small enough that thousands of fresh
   worlds are cheap, big enough for any generated script.  Every phase
   (record, replay fidelity, state checks) must use the same geometry —
   addresses are part of the reconstructed state. *)
let make_world () =
  let sched = Sched.create () in
  let topo = Numa.create ~nodes:2 ~cpus_per_node:4 in
  let pmem =
    Pmem.create ~sched ~topo ~profile:Perf.optane ~pages_per_node:8192 ~store_data:true ()
  in
  let mmu = Mmu.create pmem in
  (sched, pmem, mmu)

let cred = { Trio_core.Fs_types.uid = 1000; gid = 1000 }

(* Run [f] inside a fiber of a fresh world and hand back its result. *)
let in_world f =
  let sched, pmem, mmu = make_world () in
  let out = ref None in
  Sched.spawn sched (fun () -> out := Some (f ~sched ~pmem ~mmu));
  ignore (Sched.run sched);
  match !out with
  | Some v -> v
  | None -> failwith "Explore: simulation did not run to completion"

(* ------------------------------------------------------------------ *)
(* Phase 1: record *)

type recording = {
  rec_events : Pmem.event list;
  rec_mount_stores : int; (* LibFS stores spent mounting (before the script) *)
  rec_n_stores : int; (* LibFS stores issued by the script itself *)
  rec_divergence : string option; (* fs/model disagreement with no crash at all *)
}

let record ops =
  in_world (fun ~sched ~pmem ~mmu ->
      Pmem.set_recording pmem true;
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      let mount_stores = Pmem.recorded_user_stores pmem in
      let model = Script.model_create () in
      let divergence =
        match Script.apply_all fs model ops with Ok () -> None | Error d -> Some d
      in
      Pmem.set_recording pmem false;
      {
        rec_events = Pmem.recorded_events pmem;
        rec_mount_stores = mount_stores;
        rec_n_stores = Pmem.recorded_user_stores pmem - mount_stores;
        rec_divergence = divergence;
      })

(* One incremental replay pass: the unflushed-line set at every crash
   index.  The state at index i is the log prefix strictly before the
   (mount_stores + i + 1)-th LibFS store — everything the process
   managed to issue before dying there. *)
let dirty_sets_of recording =
  let n = recording.rec_n_stores in
  let sets = Array.make (n + 1) [] in
  let img = Pmem.Replay.create () in
  let ucount = ref 0 in
  List.iter
    (fun ev ->
      (match ev with
      | Pmem.Ev_store { actor; _ } when actor <> Pmem.kernel_actor ->
        let post = !ucount - recording.rec_mount_stores in
        if post >= 0 && post <= n then sets.(post) <- Pmem.Replay.dirty img;
        incr ucount
      | _ -> ());
      Pmem.Replay.apply img ev)
    recording.rec_events;
  sets.(n) <- Pmem.Replay.dirty img;
  sets

(* Image at one crash index (fresh replay of the prefix). *)
let image_at recording ~crash_index =
  let img = Pmem.Replay.create () in
  let ucount = ref 0 in
  (try
     List.iter
       (fun ev ->
         (match ev with
         | Pmem.Ev_store { actor; _ } when actor <> Pmem.kernel_actor ->
           if !ucount - recording.rec_mount_stores >= crash_index then raise Exit;
           incr ucount
         | _ -> ());
         Pmem.Replay.apply img ev)
       recording.rec_events
   with Exit -> ());
  img

(* ------------------------------------------------------------------ *)
(* Phase 3: per-state check *)

exception Diverged of string

(* Re-run the script in a fresh world, dying after [crash_index] LibFS
   stores, then crash with exactly [survivors] surviving lines, recover,
   remount, and check the model properties.  [on_precrash] sees the dead
   world just before the power failure (replay fidelity checks hook in
   here). *)
let check_state ?(on_precrash = fun ~pmem:_ -> Ok ()) ops ~crash_index ~survivors =
  in_world (fun ~sched ~pmem ~mmu ->
      let ( let* ) = Result.bind in
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      let model = Script.model_create () in
      let pre = ref (Script.model_snapshot model) in
      let cur = ref (-1) in
      Pmem.fail_after_writes pmem crash_index;
      let interrupted =
        try
          List.iteri
            (fun i op ->
              cur := i;
              pre := Script.model_snapshot model;
              match Script.apply fs model i op with
              | Ok () -> ()
              | Error d -> raise (Diverged d))
            ops;
          Ok None
        with
        | Pmem.Crash_point -> Ok (Some !cur)
        | Diverged d -> Error d
      in
      Pmem.fail_after_writes pmem (-1);
      let* interrupted = interrupted in
      (* power failure: the chosen subset of unflushed lines survives *)
      let survive_set = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace survive_set k ()) survivors;
      let* () = on_precrash ~pmem in
      Pmem.crash_select pmem ~survives:(fun ~page ~line -> Hashtbl.mem survive_set (page, line));
      Controller.crash_recover ctl;
      let libfs2 = Libfs.mount ~ctl ~proc:2 ~cred () in
      let fs2 = Libfs.ops libfs2 in
      match interrupted with
      | None ->
        (* every operation completed: full durability *)
        Script.check_model fs2 model
      | Some j ->
        (* the op in flight must be atomic, everything else durable *)
        let op = List.nth ops j in
        let* visible = Script.visible_names fs2 in
        let pre_names = Script.names_of_model !pre in
        let post_names = Script.names_of_model model in
        let* () =
          if visible = pre_names || visible = post_names then Ok ()
          else
            Error
              (Printf.sprintf "op %d (%s): namespace [%s] is neither pre [%s] nor post [%s]" j
                 (Script.show_op op) (String.concat " " visible)
                 (String.concat " " pre_names) (String.concat " " post_names))
        in
        (* files the interrupted op did not touch keep their exact
           content; data inside its own target may legitimately be
           partial (data ops are synchronous, not atomic) *)
        let touched = Script.touched_paths op in
        let pre_model = !pre in
        let* () =
          List.fold_left
            (fun acc (path, expected) ->
              let* () = acc in
              if List.mem path touched then Ok ()
              else
                match Trio_core.Fs_intf.read_file fs2 path with
                | Ok got when String.equal got expected -> Ok ()
                | Ok got ->
                  Error
                    (Printf.sprintf "op %d (%s): untouched %s corrupted (%d vs %d bytes)" j
                       (Script.show_op op) path (String.length got) (String.length expected))
                | Error e ->
                  Error
                    (Printf.sprintf "op %d (%s): untouched %s lost (%s)" j (Script.show_op op)
                       path
                       (Trio_core.Fs_types.errno_to_string e)))
            (Ok ()) (Script.model_files pre_model)
        in
        (* and whatever is visible must at least be readable *)
        List.fold_left
          (fun acc path ->
            let* () = acc in
            if Hashtbl.mem pre_model.Script.files path then
              match Trio_core.Fs_intf.read_file fs2 path with
              | Ok _ -> Ok ()
              | Error e ->
                Error
                  (Printf.sprintf "%s unreadable after crash: %s" path
                     (Trio_core.Fs_types.errno_to_string e))
            else Ok ())
          (Ok ()) visible)

(* Replay fidelity: the device the re-run reconstructed must be
   bit-identical — content and unflushed-line set — to the image
   replayed from the recorded event log.  Checked just before the power
   failure of the state in which every unflushed line survives. *)
let replay_fidelity recording ~crash_index ~pmem =
  let img = image_at recording ~crash_index in
  let img_dirty = Pmem.Replay.dirty img in
  let dev_dirty = Pmem.dirty_line_list pmem in
  if img_dirty <> dev_dirty then
    Error
      (Printf.sprintf "replay divergence at crash index %d: %d replayed dirty lines vs %d on device"
         crash_index (List.length img_dirty) (List.length dev_dirty))
  else
    List.fold_left
      (fun acc pg ->
        Result.bind acc (fun () ->
            if Bytes.equal (Pmem.Replay.page img pg) (Pmem.peek_page pmem pg) then Ok ()
            else Error (Printf.sprintf "replay divergence at crash index %d: page %d bytes differ" crash_index pg)))
      (Ok ()) (Pmem.Replay.pages img)

(* One store-crash state as a report. *)
let store_state ?on_precrash ops ~crash_index ~survivors =
  match check_state ?on_precrash ops ~crash_index ~survivors with
  | Ok () -> empty
  | Error d ->
    let r = fail Model "%s" d in
    { r with failure = Option.map (fun cx -> { cx with cx_survivors = survivors }) r.failure }

(* Replay one crash state of one script, as [crashcheck --at] does. *)
let replay ops ~crash_index ~survivors =
  campaign ~ops ~counts:[] ~points:1
    [ (Some (Store crash_index), fun () -> store_state ops ~crash_index ~survivors) ]

(* ------------------------------------------------------------------ *)
(* Subset enumeration *)

(* The surviving subsets checked at one crash index, and the position of
   the one in which every unflushed line survives. *)
let subsets_of cfg ~crash_index dirty =
  let k = List.length dirty in
  let arr = Array.of_list dirty in
  if k <= cfg.exhaustive_lines then
    (* all 2^k subsets, mask order: [] first, everything-survives last *)
    ( true,
      (1 lsl k) - 1,
      List.init (1 lsl k) (fun mask ->
          List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list arr)) )
  else begin
    let rng = Rng.create (cfg.seed + (crash_index * 2654435761)) in
    let sample () = List.filter (fun _ -> Rng.bool rng) dirty in
    let sampled = List.init (max 0 (cfg.samples_per_point - 2)) (fun _ -> sample ()) in
    (false, 1, [] :: dirty :: sampled)
  end

(* ------------------------------------------------------------------ *)
(* The engine

   Counts: [replayed] states also passed the replay-fidelity check (on
   an evenly spread sample of at most 9 crash indices); [sampled] crash
   points had their surviving subsets sampled rather than enumerated;
   [unchecked] states fell beyond the [max_states] budget.  The
   enumeration was exhaustive when the last two are 0. *)

let explore_once cfg ops =
  match record ops with
  | exception exn -> located ops None (guarded (fun () -> raise exn))
  | { rec_divergence = Some d; _ } -> located ops None (fail Model "%s" d)
  | recording ->
    let n = recording.rec_n_stores in
    let dirty_sets = dirty_sets_of recording in
    let replayed = if cfg.check_replay then spread ~points:(n + 1) ~count:9 else [] in
    let sampled = ref 0 in
    let states =
      List.concat
        (List.init (n + 1) (fun i ->
             let exhaustive, all_survive, subsets =
               subsets_of cfg ~crash_index:i dirty_sets.(i)
             in
             if not exhaustive then incr sampled;
             List.mapi
               (fun j survivors ->
                 let fidelity = j = all_survive && List.mem i replayed in
                 ( Some (Store i),
                   fun () ->
                     if fidelity then
                       add
                         (tally [ ("replayed", 1) ])
                         (store_state ops ~crash_index:i ~survivors
                            ~on_precrash:(replay_fidelity recording ~crash_index:i))
                     else store_state ops ~crash_index:i ~survivors ))
               subsets))
    in
    let checked = List.filteri (fun k _ -> k < cfg.max_states) states in
    add
      (campaign ~ops ~counts:[ "replayed"; "sampled"; "unchecked" ] ~points:(n + 1) checked)
      (tally [ ("sampled", !sampled); ("unchecked", List.length states - List.length checked) ])

let explore ?(config = default_config) ops =
  let r = explore_once config ops in
  if config.shrink then
    shrink ~budget:config.shrink_budget (explore_once { config with check_replay = false }) r
  else r

let exhaustive r = count r "sampled" = 0 && count r "unchecked" = 0

(* ------------------------------------------------------------------ *)
(* Kill- and fault-point campaigns

   The engine above checks the model against power failures.  The
   campaigns below check what the paper's §4 promises when a LibFS dies,
   wedges or meets a failing medium: they count the injection points
   the victim crosses and {!spread} the sampled states evenly across
   them.  A campaign supplies only its world set-up plus victim, its
   injection, and its post-condition. *)


(* Every path answers Ok or a clean errno — reads, and writes that must
   degrade to EROFS/EIO — never an exception. *)
let probe fs (model : Script.model) =
  (match fs.Fs.readdir "/" with Ok _ | Error _ -> ());
  Hashtbl.iter
    (fun path _ ->
      (match Fs.read_file fs path with Ok _ | Error _ -> ());
      match fs.Fs.open_ path [ Trio_core.Fs_types.O_RDWR ] with
      | Ok fd ->
        (match fs.Fs.pwrite fd (Bytes.of_string "x") 0 with Ok _ | Error _ -> ());
        (match fs.Fs.close fd with Ok () | Error _ -> ())
      | Error _ -> ())
    model.Script.files

(* ------------------------------------------------------------------ *)
(* Crash x media-fault composition (DESIGN.md §4.11)

   The atomicity/durability model above assumes the medium is honest:
   what was persisted reads back.  With the media-fault plane armed,
   data genuinely disappears — stuck stores latch wrong, latent poison
   survives the power failure — so the checked property weakens from
   "the namespace matches the model" to *graceful degradation*: every
   operation after recovery returns [Ok] or a clean errno (never an
   uncaught exception), and the controller's patrol scrubber runs to
   completion.  The injection points are the script's store crash
   indices; everything is replayable from [fault_seed] alone. *)

type fault_config = {
  fault_seed : int; (* drives injection draws, survivors and poison placement *)
  transient_read_p : float; (* per-access soft read-error probability *)
  stuck_store_p : float; (* per-store latch-failure probability *)
  fault_crash_points : int; (* crash indices sampled per script *)
  poison_lines : int; (* latent poison torn into in-flight lines at the crash *)
  scrub_rounds : int; (* patrol passes between the two degradation sweeps *)
}

let default_fault_config =
  {
    fault_seed = 1;
    transient_read_p = 0.01;
    stuck_store_p = 0.02;
    fault_crash_points = 8;
    poison_lines = 2;
    scrub_rounds = 2;
  }

(* One crash+fault state: run the script with the injector armed, die
   after [crash_index] stores, power-fail with a seeded random surviving
   subset, tear latent poison into live lines, then recover, remount,
   scrub, and probe before and after the scrub.  Model divergence is
   expected here (faults change outcomes); the model only supplies the
   universe of paths to probe. *)
let check_faulted_state cfg ~poison_candidates ops ~crash_index ~state_seed =
  in_world (fun ~sched ~pmem ~mmu ->
      let rng = Rng.create state_seed in
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      let model = Script.model_create () in
      (* arm only after a clean mount: one seeded draw stream per state *)
      Pmem.set_fault_injection pmem ~seed:state_seed ~transient_read_p:cfg.transient_read_p
        ~stuck_store_p:cfg.stuck_store_p ();
      Pmem.fail_after_writes pmem crash_index;
      (try List.iteri (fun i op -> ignore (Script.apply fs model i op : (unit, string) result)) ops
       with Pmem.Crash_point -> ());
      Pmem.fail_after_writes pmem (-1);
      let dirty = Pmem.dirty_line_list pmem in
      let keep = Hashtbl.create 16 in
      List.iter (fun k -> if Rng.bool rng then Hashtbl.replace keep k ()) dirty;
      Pmem.crash_select pmem ~survives:(fun ~page ~line -> Hashtbl.mem keep (page, line));
      (* latent poison: media degrades anywhere in live data, not just
         in the lines that were mid-flight — targets are drawn from
         every page the script had stored to by this crash point
         (line -1 = pick one of the page's lines), plus the in-flight
         lines themselves *)
      let arr =
        Array.of_list (List.rev_append dirty (List.map (fun pg -> (pg, -1)) poison_candidates))
      in
      let injected = if Array.length arr > 0 then cfg.poison_lines else 0 in
      for _ = 1 to injected do
        let page, line = arr.(Rng.int rng (Array.length arr)) in
        let line = if line < 0 then Rng.int rng Pmem.lines_per_page else line in
        Pmem.poison_line pmem ~page ~line
      done;
      Controller.crash_recover ctl;
      let fs2 = Libfs.ops (Libfs.mount ~ctl ~proc:2 ~cred ()) in
      let scrub = Scrub.make_stats () in
      probe fs2 model;
      for _ = 1 to cfg.scrub_rounds do
        ignore (Scrub.patrol_once ~stats:scrub ctl : Scrub.stats)
      done;
      probe fs2 model;
      let faults = Pmem.fault_stats pmem in
      tally
        [
          ("transient", faults.Pmem.transient_faults);
          ("stuck", faults.Pmem.stuck_stores);
          ("poison-injected", injected);
          ("repaired", scrub.Scrub.repaired);
          ("migrated", scrub.Scrub.migrated);
          ("quarantined", scrub.Scrub.quarantined);
        ])

let explore_faults ?(config = default_fault_config) ops =
  let recording = record ops in
  let points = recording.rec_n_stores + 1 in
  campaign ~ops ~points
    ~counts:[ "transient"; "stuck"; "poison-injected"; "repaired"; "migrated"; "quarantined" ]
    (List.map
       (fun idx ->
         ( Some (Store idx),
           fun () ->
             check_faulted_state config
               ~poison_candidates:(Pmem.Replay.pages (image_at recording ~crash_index:idx))
               ops ~crash_index:idx
               ~state_seed:(config.fault_seed + (idx * 2654435761) + 1) ))
       (spread ~points ~count:config.fault_crash_points))

(* ------------------------------------------------------------------ *)
(* Process-death campaigns (DESIGN.md §4.12, §4.16–§4.18)

   Power failure loses unflushed lines but kills *everyone*; process
   death loses *nothing in NVM* but kills one LibFS, leaving its torn
   intermediate state live and its allocation cache orphaned.  Kill
   points are Sched delay boundaries inside the victim's killable scope
   — every simulated NVM store and yield, but never inside a controller
   syscall (those are shielded, like a kernel that finishes or never
   starts a syscall for a dying task).  A counting pass runs the victim
   once to learn how many points it crosses; every sampled state then
   re-runs it in a fresh world and fires the kill (or wedge) there. *)

(* Watchdog heartbeat timeout, also the lease every victim mounts with. *)
let watchdog_timeout_ns = 1.0e6

(* Horizon for one state: long enough for the victim to run (or die) and
   for every lease and the heartbeat timeout to expire afterwards. *)
let death_horizon_ns = 10.0e6

(* Build the world with [setup] (which spawns the victim in a killable
   fiber), [arm] the scheduler's injector, let the horizon elapse, then
   hand the world to [k]. *)
let at_point ~setup ~arm k =
  in_world (fun ~sched ~pmem ~mmu ->
      let w = setup ~sched ~pmem ~mmu in
      arm sched;
      Sched.delay death_horizon_ns;
      Sched.disarm sched;
      k sched w)

(* What the victim's death cost: watchdog teardowns, files the teardown
   pushed through the verifier gate, pages the GC swept, and pages still
   dead-owned after a GC (must be 0). *)
let reclaim_counts = [ "escalated"; "unverified"; "reclaimed"; "leaked" ]

(* A kill campaign: [kills] SIGKILL states and [hangs] wedge states
   spread over the points the victim crosses, each judged by [post]. *)
let kill_campaign ?ops ?vacuous ~counts ~kills ?(hangs = 0) ~setup post =
  let points =
    at_point ~setup ~arm:Sched.arm_count (fun sched _ -> Sched.kill_points_crossed sched)
  in
  let state point arm = (Some point, fun () -> at_point ~setup ~arm (fun _ w -> post point w)) in
  campaign ?ops ?vacuous ~counts:(counts @ reclaim_counts) ~points
    (List.map (fun i -> state (Kill i) (Sched.arm_kill ~after:i)) (spread ~points ~count:kills)
    @ List.map (fun i -> state (Hang i) (Sched.arm_hang ~after:i)) (spread ~points ~count:hangs))

(* A GC pass must balance the books with nothing leaked. *)
let gc_checked ctl ~after =
  let gc = Controller.gc_once ctl in
  if gc.Controller.gc_invariant_ok && gc.Controller.gc_leaked = 0 then
    tally [ ("reclaimed", gc.Controller.gc_reclaimed_pages) ]
  else
    add
      (tally [ ("leaked", gc.Controller.gc_leaked) ])
      (fail Accounting "page accounting broken after %s GC: %s" after
         (Fmt.str "%a" Controller.pp_gc_report gc))

(* The §4 containment check every process-death campaign shares: the
   watchdog escalates the victim (proc 1), the teardown GC balances the
   books, a second process probes every [model] path and every visible
   name with clean errnos only (the verifier gate repairs from
   checkpoints or degrades, it never throws), [extra] runs its own
   checks from there, and once the verifier gate is drained the books
   balance again with nothing left to collect. *)
let reclaim ?(model = Script.model_create ()) ?(extra = fun _ -> empty) ctl =
  let wd = Controller.make_watchdog_report () in
  let escalated = Controller.watchdog_once ~report:wd ctl ~timeout_ns:watchdog_timeout_ns in
  if not (List.mem 1 escalated) then
    fail Escalation "watchdog did not escalate the victim (escalated: [%s])"
      (String.concat ";" (List.map string_of_int escalated))
  else
    let escalated = List.length wd.Controller.wd_escalated in
    let& () = tally [ ("escalated", escalated); ("unverified", wd.Controller.wd_unverified) ] in
    let& () = gc_checked ctl ~after:"teardown" in
    let fs2 = Libfs.ops (Libfs.mount ~ctl ~proc:2 ~cred ()) in
    probe fs2 model;
    let& () =
      match Script.visible_names fs2 with
      | Error d -> fail Model "namespace not enumerable after the kill: %s" d
      | Ok names ->
        List.iter (fun path -> match Fs.read_file fs2 path with Ok _ | Error _ -> ()) names;
        empty
    in
    let& () = extra fs2 in
    ignore (Controller.drain_unverified ctl : int);
    let& () = gc_checked ctl ~after:"probe" in
    ignore (Controller.unmap_all ctl ~proc:2);
    empty

(* Every file passes a Full verification sweep. *)
let certified ctl =
  let checked, bad = Controller.audit_all ctl in
  if bad = 0 then empty
  else
    fail Certification "%d of %d file(s) fail Full verification:%s" bad checked
      (Fmt.str "%a"
         (Fmt.list ~sep:Fmt.nop (fun ppf (ino, vs) ->
              Fmt.pf ppf "@.  ino %d: %a" ino
                (Fmt.list ~sep:Fmt.comma Trio_core.Verifier.pp_violation)
                vs))
         (Controller.audit_failures ctl))

(* ------------------------------------------------------------------ *)
(* Process death mid-script (DESIGN.md §4.12)

   Victim: one op script, optionally over a submission ring.  Post-
   condition: the shared reclamation check over the script's paths. *)

type proc_config = {
  pd_kill_points : int; (* kill-injection states sampled per script *)
  pd_hang_points : int; (* wedged-mode states sampled per script *)
  pd_ring : int option;
      (* mount the victim with a submission ring of this depth: kill
         points then include the ring submit path, and escalation must
         also tear the ring down and reap its in-flight entries *)
}

let default_proc_config = { pd_kill_points = 12; pd_hang_points = 3; pd_ring = None }

let explore_proc_death ?(config = default_proc_config) ops =
  kill_campaign ~ops ~counts:[ "killed"; "hung" ] ~kills:config.pd_kill_points
    ~hangs:config.pd_hang_points
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:watchdog_timeout_ns () in
      let fs = Libfs.ops (Libfs.mount ~ctl ~proc:1 ~cred ?ring:config.pd_ring ()) in
      let model = Script.model_create () in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              List.iteri
                (fun i op -> ignore (Script.apply fs model i op : (unit, string) result))
                ops));
      (ctl, model))
    (fun point (ctl, model) ->
      (* the victim holds its mount resources (journal, allocation
         cache) whether it died, wedged, or finished and went silent *)
      add
        (tally [ ((match point with Hang _ -> "hung" | _ -> "killed"), 1) ])
        (reclaim ~model ctl))

(* ------------------------------------------------------------------ *)
(* Crash during snapshot commit (DESIGN.md §4.16)

   Victim: the second of two [Controller.snapshot_take]s over the
   script's files (so the superseded root is substantial).  Post-
   condition: root publication is transactional — at least one fully
   valid root survives every kill point (the superseded one before the
   commit store persists, the new one after), and recovery from NVM
   alone mounts it on a state that passes a Full verification sweep
   with the page accounting ([snap_pinned] included) balanced.  The
   torn-commit mutation ({!Trio_util.Mutation.Torn_commit}) must fail
   this with [Root_loss]. *)

type snap_config = { sc_kill_points : int (* kill-injection states sampled per script *) }

let default_snap_config = { sc_kill_points = 24 }

let explore_snapshot_commit ?(config = default_snap_config) ops =
  kill_campaign ~ops ~counts:[ "old root"; "new root"; "fsck"; "zero-root" ]
    ~kills:config.sc_kill_points
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu () in
      let fs = Libfs.ops (Libfs.mount ~ctl ~proc:1 ~cred ()) in
      let model = Script.model_create () in
      List.iteri (fun i op -> ignore (Script.apply fs model i op : (unit, string) result)) ops;
      Controller.unmap_all ctl ~proc:1;
      ignore (Controller.snapshot_take ctl : (int, Trio_core.Fs_types.errno) result);
      let pre_epoch = Controller.snapshot_epoch ctl in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () ->
              ignore (Controller.snapshot_take ctl : (int, Trio_core.Fs_types.errno) result)));
      (sched, pmem, pre_epoch))
    (fun _ (sched, pmem, pre_epoch) ->
      if List.for_all (fun slot -> Controller.snapshot_root_status pmem ~slot = None) [ 0; 1 ]
      then
        add
          (tally [ ("zero-root", 1) ])
          (fail Root_loss "zero valid roots after kill during publication")
      else
        (* the crash proper: DRAM dies with the old controller; a new
           one recovers from NVM alone *)
        match Controller.recover ~sched ~pmem ~mmu:(Mmu.create pmem) () with
        | Error e -> fail Root_loss "recovery refused both ladders: %s" e
        | Ok (ctl, how) -> (
          let& () = certified ctl in
          let& () = gc_checked ctl ~after:"recovery" in
          match how with
          | Controller.Fsck_fallback ->
            add (tally [ ("fsck", 1) ])
              (fail Root_loss "valid roots existed but recovery fell back to the fsck walk")
          | Controller.Mounted_root e when e > pre_epoch -> tally [ ("new root", 1) ]
          | Controller.Mounted_root e when e = pre_epoch -> tally [ ("old root", 1) ]
          | Controller.Mounted_root e ->
            fail Root_loss "recovery mounted epoch %d older than the last committed root %d" e
              pre_epoch))

(* ------------------------------------------------------------------ *)
(* SIGKILL inside QoS throttle states (DESIGN.md §4.17)

   Victim: a tenant on a tiny share (dwarfed by a competing enforced
   share with no process behind it), driven until its token bucket runs
   dry, so its fibers park at the ring mouth and pay admission delays on
   charged syscalls; the kill points include those parks.  Post-
   condition: the shared reclamation check (a throttled park must not
   read as liveness; tokens owed are forgotten with the tenant, pages
   are not), plus a fresh honest tenant must get real work through.
   Vacuous unless some sampled state saw the victim throttled. *)

type qos_config = {
  qd_kill_points : int; (* kill-injection states sampled *)
  qd_ops : int; (* write+share cycles the victim attempts *)
}

let default_qos_config = { qd_kill_points = 12; qd_ops = 10 }

let qos_victim_share = 0.02
let qos_rest_share = 10.0
let qos_ring = 4

let qos_victim fs libfs n =
  let payload = String.make 256 'q' in
  for i = 0 to n - 1 do
    ignore (Fs.write_file fs (Printf.sprintf "/q%d" i) payload : (unit, _) result);
    (* the sharing point: unmaps ride the ring, verification is charged *)
    Libfs.unmap_everything libfs
  done

let explore_qos ?(config = default_qos_config) () =
  kill_campaign ~counts:[ "throttles" ] ~vacuous:"throttles" ~kills:config.qd_kill_points
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:watchdog_timeout_ns () in
      Controller.set_qos_share ctl ~group:99 qos_rest_share;
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred ~qos_share:qos_victim_share ~ring:qos_ring () in
      let fs = Libfs.ops libfs in
      Sched.spawn sched (fun () -> Sched.killable (fun () -> qos_victim fs libfs config.qd_ops));
      ctl)
    (fun _ ctl ->
      (* A throttled victim spends most of the horizon parked, so the
         kill can land just before the horizon's edge — give the
         heartbeat timeout room to expire before judging the watchdog. *)
      Sched.delay (2.0 *. watchdog_timeout_ns);
      let throttles =
        List.fold_left
          (fun acc s -> if s.Controller.ts_group = 1 then acc + s.Controller.ts_throttles else acc)
          0 (Controller.qos_stats ctl)
      in
      add
        (tally [ ("throttles", throttles) ])
        (reclaim ctl ~extra:(fun fs2 ->
             match Fs.write_file fs2 "/honest" "alive" with
             | Ok () -> empty
             | Error e ->
               fail Model "honest tenant not serviceable after the kill: %s"
                 (Trio_core.Fs_types.errno_to_string e))))

(* ------------------------------------------------------------------ *)
(* SIGKILL inside directory-index mutations (DESIGN.md §4.18)

   The B-link tree over a directory's name hashes is an accelerator with
   its own multi-store mutations — leaf inserts, node splits, root
   swings — layered over the dentry truth.  Victim: a create/unlink/
   rename mix over the root directory with sharing points, with the node
   capacity shrunk ({!dir_capacity}) so a handful of creates forces leaf
   and root splits and the kills land inside them.  Post-condition: the
   shared reclamation check, then a Full verification sweep (I5
   included) certifies every file — the tree survived intact, was
   rolled back with its directory's checkpoint, or the directory legally
   dropped to unindexed (root = 0, which I5 skips).  Vacuous unless
   some sampled state split a node. *)

type dir_config = {
  dx_kill_points : int; (* kill-injection states sampled *)
  dx_entries : int; (* creates the victim attempts *)
}

let default_dir_config = { dx_kill_points = 18; dx_entries = 16 }

(* Forced B-link node capacity. *)
let dir_capacity = 4

let with_dir_capacity f =
  Dirindex.set_test_capacity (Some dir_capacity);
  Fun.protect ~finally:(fun () -> Dirindex.set_test_capacity None) f

let dir_victim fs libfs n =
  let payload = String.make 64 'd' in
  for i = 0 to n - 1 do
    ignore (Fs.write_file fs (Printf.sprintf "/dx%02d" i) payload : (unit, _) result);
    if i mod 5 = 4 then
      ignore (fs.Fs.unlink (Printf.sprintf "/dx%02d" (i - 2)) : (unit, _) result);
    if i mod 7 = 6 then
      ignore
        (fs.Fs.rename (Printf.sprintf "/dx%02d" (i - 1)) (Printf.sprintf "/dr%02d" i)
          : (unit, _) result);
    if i mod 4 = 3 then Libfs.unmap_everything libfs
  done

let explore_dir_index ?(config = default_dir_config) () =
  with_dir_capacity @@ fun () ->
  kill_campaign ~counts:[ "indexed"; "unindexed"; "splits" ] ~vacuous:"splits"
    ~kills:config.dx_kill_points
    ~setup:(fun ~sched ~pmem ~mmu ->
      let ctl = Controller.create ~sched ~pmem ~mmu ~lease_ns:watchdog_timeout_ns () in
      let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
      let fs = Libfs.ops libfs in
      Sched.spawn sched (fun () ->
          Sched.killable (fun () -> dir_victim fs libfs config.dx_entries));
      (pmem, ctl))
    (fun _ (pmem, ctl) ->
      let& () = reclaim ctl in
      let& () = certified ctl in
      let root =
        Layout.read_dindex_root pmem ~actor:Pmem.kernel_actor ~dentry_addr:Layout.root_dentry_addr
      in
      tally
        [
          ((if root <> 0 then "indexed" else "unindexed"), 1);
          ("splits", int_of_float (Stats.get (Controller.stats ctl) "verify.dindex.splits"));
        ])

(* The verifier's own check of this plane: a victim that churns the
   root directory across two sharing points, judged by the verdicts the
   controller recorded there.  An honest LibFS is never rejected.  With
   index maintenance silently dropped ({!Trio_util.Mutation.Skip_index},
   what a buggy or malicious LibFS would do), the tree the re-index path
   builds at the first unlink goes stale at once, and I5 must reject the
   directory at the next sharing point.  Vacuous unless the directory
   was indexed. *)
let audit_dir_index () =
  with_dir_capacity @@ fun () ->
  campaign ~counts:[ "indexed" ] ~vacuous:"indexed" ~points:1
    [
      ( None,
        fun () ->
          in_world (fun ~sched ~pmem ~mmu ->
              let ctl = Controller.create ~sched ~pmem ~mmu () in
              let libfs = Libfs.mount ~ctl ~proc:1 ~cred () in
              let fs = Libfs.ops libfs in
              let create i =
                ignore (Fs.write_file fs (Printf.sprintf "/m%d" i) "m" : (unit, _) result)
              in
              List.iter create [ 0; 1; 2; 3; 4; 5 ];
              Libfs.unmap_everything libfs;
              ignore (fs.Fs.unlink "/m0" : (unit, _) result);
              List.iter create [ 6; 7; 8; 9; 10; 11 ];
              let root () =
                Layout.read_dindex_root pmem ~actor:Pmem.kernel_actor
                  ~dentry_addr:Layout.root_dentry_addr
              in
              let indexed = root () <> 0 in
              Libfs.unmap_everything libfs;
              let& () = tally [ ("indexed", Bool.to_int indexed) ] in
              match Controller.corruption_events ctl with
              | [] -> empty
              | (_, ino, vs) :: _ ->
                fail Rejection "verifier rejected ino %d at a sharing point, %d violation(s), first %s"
                  ino (List.length vs)
                  (Fmt.str "%a" Trio_core.Verifier.pp_violation (List.hd vs)))
      );
    ]
