type dispatch = {
  branch : int array;
  target : int array;
  opcode : int array;
  vm_transfer : bool array;
  mutable len : int;
}

type fetch = { addr : int array; bytes : int array; mutable len : int }

let dispatch n =
  {
    branch = Array.make n 0;
    target = Array.make n 0;
    opcode = Array.make n 0;
    vm_transfer = Array.make n false;
    len = 0;
  }

let fetch n = { addr = Array.make n 0; bytes = Array.make n 0; len = 0 }

let dispatch_len (b : dispatch) =
  if
    b.len < 0
    || b.len > Array.length b.branch
    || b.len > Array.length b.target
    || b.len > Array.length b.opcode
    || b.len > Array.length b.vm_transfer
  then invalid_arg "Event_block.dispatch_len: len out of range";
  b.len

let fetch_len (b : fetch) =
  if b.len < 0 || b.len > Array.length b.addr || b.len > Array.length b.bytes
  then invalid_arg "Event_block.fetch_len: len out of range";
  b.len
