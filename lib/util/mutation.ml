type t = Journal_reorder | Drop_writes | Skip_gc | Qos_bypass | Skip_index | Torn_commit

let all = [ Journal_reorder; Drop_writes; Skip_gc; Qos_bypass; Torn_commit; Skip_index ]

let name = function
  | Journal_reorder -> "journal-reorder"
  | Drop_writes -> "drop-writes"
  | Skip_gc -> "skip-gc"
  | Qos_bypass -> "qos-bypass"
  | Skip_index -> "skip-index"
  | Torn_commit -> "torn-commit"

let of_name s = List.find_opt (fun m -> name m = s) all

let current = ref None

(* A match, not [=]: [Mmu] reads this on every simulated store. *)
let on m = match !current with Some a -> a == m | None -> false

let armed m f =
  (match !current with
  | Some a ->
    invalid_arg (Printf.sprintf "Mutation.armed %s: %s is already armed" (name m) (name a))
  | None -> ());
  current := Some m;
  Fun.protect ~finally:(fun () -> current := None) f
