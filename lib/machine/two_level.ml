type config = { entries : int; history : int }

let default = { entries = 1024; history = 4 }

(* The format is embedded in resume-journal fingerprints; keep it stable. *)
let descriptor { entries; history } =
  Printf.sprintf "twolevel(%d,%d)" entries history

type t = {
  cfg : config;
  table : int array;  (* predicted targets, -1 = empty *)
  mutable ghr : int;  (* hashed path history register *)
  (* Introspection hook, called once per access; [None] costs one match
     and never alters any decision. *)
  mutable observer :
    (branch:int -> index:int -> empty:bool -> correct:bool -> unit) option;
}

let create cfg =
  if cfg.entries <= 0 || cfg.entries land (cfg.entries - 1) <> 0 then
    invalid_arg "Two_level.create: entries must be a positive power of two";
  (* Each history entry contributes 4 bits to the register; above 15 the
     mask shift would exceed the OCaml word and the register silently
     degenerates, so reject it up front like the other geometry checks. *)
  if cfg.history <= 0 || cfg.history > 15 then
    invalid_arg "Two_level.create: history must be in 1..15";
  { cfg; table = Array.make cfg.entries (-1); ghr = 0; observer = None }

let set_observer t obs = t.observer <- obs

(* Fold the branch address and path history into a table index.  The
   multiplicative hash spreads byte addresses that share low bits. *)
let[@inline] index t branch =
  let h = (branch * 2654435761) lxor t.ghr in
  (h lsr 4) land (t.cfg.entries - 1)

let[@inline] push_history t target =
  let bits = 4 * t.cfg.history in
  let mask = (1 lsl bits) - 1 in
  t.ghr <- ((t.ghr lsl 4) lxor (target lsr 4) lxor target) land mask

let[@inline] access t ~branch ~target =
  let i = index t branch in
  let prev = t.table.(i) in
  let correct = prev = target in
  t.table.(i) <- target;
  push_history t target;
  (match t.observer with
  | None -> ()
  | Some f -> f ~branch ~index:i ~empty:(prev = -1) ~correct);
  correct

let access_block t (blk : Event_block.dispatch) ~mispredicts ~vm_mispredicts
    =
  let len = Event_block.dispatch_len blk in
  let branches = blk.branch and targets = blk.target in
  let vm = blk.vm_transfer in
  let mis = ref !mispredicts and vmis = ref !vm_mispredicts in
  for i = 0 to len - 1 do
    if
      not
        (access t ~branch:(Array.unsafe_get branches i)
           ~target:(Array.unsafe_get targets i))
    then begin
      incr mis;
      if Array.unsafe_get vm i then incr vmis
    end
  done;
  mispredicts := !mis;
  vm_mispredicts := !vmis

let reset t =
  Array.fill t.table 0 (Array.length t.table) (-1);
  t.ghr <- 0
