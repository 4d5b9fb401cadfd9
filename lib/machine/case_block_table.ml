type t = { table : int array; mask : int }

(* The format is embedded in store fingerprints; keep it stable. *)
let descriptor ~entries = Printf.sprintf "caseblock(%d)" entries

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Case_block_table.create: entries must be a power of two";
  { table = Array.make entries (-1); mask = entries - 1 }

let[@inline] access t ~opcode ~target =
  let i = opcode land t.mask in
  let correct = t.table.(i) = target in
  t.table.(i) <- target;
  correct

let access_block t (blk : Event_block.dispatch) ~mispredicts ~vm_mispredicts
    =
  let len = Event_block.dispatch_len blk in
  let opcodes = blk.opcode and targets = blk.target in
  let vm = blk.vm_transfer in
  let mis = ref !mispredicts and vmis = ref !vm_mispredicts in
  for i = 0 to len - 1 do
    if
      not
        (access t ~opcode:(Array.unsafe_get opcodes i)
           ~target:(Array.unsafe_get targets i))
    then begin
      incr mis;
      if Array.unsafe_get vm i then incr vmis
    end
  done;
  mispredicts := !mis;
  vm_mispredicts := !vmis

let reset t = Array.fill t.table 0 (Array.length t.table) (-1)
