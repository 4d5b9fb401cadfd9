open Vmbp_vm

type t = {
  code : string;  (* varints: gap, outcome, gap, outcome, ... *)
  jumps : Control.t array;  (* [jumps.(t) = Jump t], shared by every replay *)
  side : Control.t array;  (* Halt, Trap, Quicken and out-of-range jumps *)
  steps : int;
  output : string;
}

let output p = p.output
let steps p = p.steps
let bytes p = Obj.reachable_words (Obj.repr p) * (Sys.word_size / 8)

(* ------------------------------------------------------------------ *)
(* Recording *)

let put_varint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

type recorder = {
  buf : Buffer.t;
  mutable gap : int;  (* [Next] steps since the last noted outcome *)
  mutable steps : int;  (* steps before the current gap *)
  mutable side_rev : Control.t list;
  mutable n_side : int;
  mutable max_target : int;
  mutable live : bool;  (* false once published or over the cap *)
}

let terminal = function
  | Control.Halt | Control.Trap _ -> true
  | Control.Quicken { Control.after = Control.Halt | Control.Trap _; _ } -> true
  | Control.Next | Control.Jump _ | Control.Quicken _ -> false

(* Recording stops, publishing nothing, past this many encoded bytes: a
   bound on the memory a runaway run can pin, far above the paths of all
   28 report programs together (15 MB). *)
let cap_bytes = 64 lsl 20

let note r ~output ~publish program c =
  put_varint r.buf r.gap;
  r.steps <- r.steps + r.gap + 1;
  r.gap <- 0;
  (match c with
  | Control.Jump t when t >= 0 && t < Program.length program ->
      if t > r.max_target then r.max_target <- t;
      put_varint r.buf (2 * t)
  | _ ->
      put_varint r.buf ((2 * r.n_side) + 1);
      r.side_rev <- c :: r.side_rev;
      r.n_side <- r.n_side + 1);
  if terminal c then begin
    r.live <- false;
    publish
      {
        code = Buffer.contents r.buf;
        jumps = Array.init (r.max_target + 1) (fun t -> Control.Jump t);
        side = Array.of_list (List.rev r.side_rev);
        steps = r.steps;
        output = output ();
      }
  end
  else if Buffer.length r.buf > cap_bytes then begin
    r.live <- false;
    Buffer.reset r.buf
  end

let record ~output ~publish (exec : Engine.exec) : Engine.exec =
  let r =
    {
      buf = Buffer.create 4096;
      gap = 0;
      steps = 0;
      side_rev = [];
      n_side = 0;
      max_target = -1;
      live = true;
    }
  in
  fun program pc ->
    match exec program pc with
    | Control.Next as c ->
        r.gap <- r.gap + 1;
        c
    | c ->
        if r.live then note r ~output ~publish program c;
        c

(* ------------------------------------------------------------------ *)
(* Replay *)

type cursor = { mutable pos : int; mutable gap : int }

let rec varint_more s cur acc shift =
  let b = Char.code (String.unsafe_get s cur.pos) in
  cur.pos <- cur.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_more s cur acc (shift + 7)

let varint s cur =
  let b = Char.code (String.unsafe_get s cur.pos) in
  cur.pos <- cur.pos + 1;
  if b < 0x80 then b else varint_more s cur (b land 0x7f) 7

let exec p : Engine.exec =
  let code = p.code and jumps = p.jumps and side = p.side in
  let len = String.length code in
  (* The recorder only publishes a path ending in a terminal outcome, so
     the stream is never empty and every outcome is preceded by its gap;
     [gap = -1] marks the cursor as past the final outcome. *)
  let cur = { pos = 0; gap = 0 } in
  cur.gap <- varint code cur;
  fun _program _pc ->
    let g = cur.gap in
    if g > 0 then begin
      cur.gap <- g - 1;
      Control.Next
    end
    else if g = 0 then begin
      let c = varint code cur in
      cur.gap <- (if cur.pos < len then varint code cur else -1);
      if c land 1 = 0 then Array.unsafe_get jumps (c lsr 1)
      else Array.unsafe_get side (c lsr 1)
    end
    else invalid_arg "Control_path.exec: replayed past the end of the path"
