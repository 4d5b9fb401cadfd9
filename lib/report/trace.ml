open Vmbp_core
open Vmbp_machine

(* ------------------------------------------------------------------ *)
(* Chunked byte storage.

   Event tokens are appended to Bytes chunks, so a long run never
   reallocates or copies what it has already recorded, and the memory bound
   is enforced at chunk granularity: the recorder accounts every chunk it
   allocates against the caller's cap and aborts recording the moment the
   next allocation would exceed it.  Chunk sizes grow geometrically from
   8KB to 1MB: small traces stay small, while a long run settles into a
   handful of large chunks. *)

exception Overflow

let min_chunk_bits = 13 (* 8KB chunks *)
let max_chunk_bits = 20 (* 1MB chunks *)
let min_chunk_bytes = 1 lsl min_chunk_bits
let max_chunk_bytes = 1 lsl max_chunk_bits

(* Released chunks are recycled through per-size free lists instead of being
   handed back to the allocator: a full report cycles gigabytes of trace
   storage through the planner's cache, and returning that memory to the OS
   on every eviction costs far more kernel time (page-table teardown plus
   fault-in and re-zeroing at the next recording -- dramatically so under
   the paravirtualised kernels this repo is benchmarked on) than the whole
   simulation.  With the pool, each page is faulted in once per process and
   the resident high-water mark stays bounded by the cache cap plus the
   in-flight recordings. *)
let pool : Bytes.t list array = Array.make (max_chunk_bits + 1) []
let pool_lock = Mutex.create ()

let size_class bytes =
  let rec go k = if 1 lsl k >= bytes then k else go (k + 1) in
  go min_chunk_bits

type buf = {
  mutable filled : Bytes.t list;  (* completed chunks, newest first *)
  mutable cur : Bytes.t;
  mutable pos : int;  (* next free byte in [cur] *)
}

type budget = { mutable allocated : int; cap : int }

let charge budget bytes =
  budget.allocated <- budget.allocated + bytes;
  if budget.allocated > budget.cap then raise Overflow

let alloc_chunk budget bytes =
  charge budget bytes;
  let k = size_class bytes in
  Mutex.lock pool_lock;
  match pool.(k) with
  | c :: rest ->
      pool.(k) <- rest;
      Mutex.unlock pool_lock;
      (* Stale contents are fine: readers only see bytes below [pos]. *)
      c
  | [] ->
      Mutex.unlock pool_lock;
      Bytes.create bytes

let release_buf b =
  Mutex.lock pool_lock;
  List.iter
    (fun c ->
      if Bytes.length c > 0 then begin
        let k = size_class (Bytes.length c) in
        pool.(k) <- c :: pool.(k)
      end)
    (b.cur :: b.filled);
  Mutex.unlock pool_lock;
  b.filled <- [];
  b.cur <- Bytes.empty;
  b.pos <- 0

let buf_create budget =
  { filled = []; cur = alloc_chunk budget min_chunk_bytes; pos = 0 }

let buf_grow budget b =
  let next = min (Bytes.length b.cur * 4) max_chunk_bytes in
  let fresh = alloc_chunk budget next in
  b.filled <- b.cur :: b.filled;
  b.cur <- fresh;
  b.pos <- 0

(* Append one 3-byte little-endian token.  Chunks hold a whole number of
   tokens (chunk sizes have a spare tail below a multiple of 3), so no
   token ever straddles a chunk boundary. *)
let push_token budget b code =
  if b.pos + 3 > Bytes.length b.cur then buf_grow budget b;
  Bytes.unsafe_set b.cur b.pos (Char.unsafe_chr (code land 0xff));
  Bytes.unsafe_set b.cur (b.pos + 1) (Char.unsafe_chr ((code lsr 8) land 0xff));
  Bytes.unsafe_set b.cur (b.pos + 2) (Char.unsafe_chr ((code lsr 16) land 0xff));
  b.pos <- b.pos + 3

(* ------------------------------------------------------------------ *)
(* Dictionary coding.

   An interpreter run touches few distinct code addresses relative to how
   often it touches them: every executed instruction body, call stub and
   dispatch-table entry is fetched millions of times at the same (addr,
   bytes), and every dispatch site jumps to a bounded set of targets.  So
   each stream stores distinct events once in an append-only dictionary and
   the stream itself is 3-byte dictionary codes -- roughly a 3-5x size
   reduction over raw packed words, which is what keeps the planner's
   retained working set small enough to recycle (see the pool note above).
   A run that somehow exceeds 2^24 distinct events per stream aborts
   recording and the caller falls back to direct simulation, so coding can
   never silently corrupt a trace. *)

let max_codes = 1 lsl 24

(* Encoding runs once per event on the hot path, so a small direct-mapped
   cache sits in front of the hash table: interpreter loops repeat the same
   few events millions of times, so almost every lookup is a non-allocating
   array probe, and the tuple-keyed table only sees first occurrences and
   the occasional cache collision. *)

let memo_bits = 13
let memo_slots = 1 lsl memo_bits

type dict = {
  tbl : (int * int, int) Hashtbl.t;  (* (a, b) -> code, record-time only *)
  memo_a : int array;  (* direct-mapped front cache; -1 = empty (a >= 0) *)
  memo_b : int array;
  memo_codes : int array;
  mutable rev_a : int array;  (* code -> a *)
  mutable rev_b : int array;  (* code -> b *)
  mutable next : int;
}

let dict_create budget =
  charge budget ((2 * 1024 + 3 * memo_slots) * 8);
  {
    tbl = Hashtbl.create 1024;
    memo_a = Array.make memo_slots (-1);
    memo_b = Array.make memo_slots 0;
    memo_codes = Array.make memo_slots 0;
    rev_a = Array.make 1024 0;
    rev_b = Array.make 1024 0;
    next = 0;
  }

let dict_code_slow budget d a b slot =
  let code =
    match Hashtbl.find_opt d.tbl (a, b) with
    | Some code -> code
    | None ->
        let code = d.next in
        if code >= max_codes then raise Overflow;
        if code = Array.length d.rev_a then begin
          (* Double the reverse maps; the budget pays for the growth. *)
          charge budget (2 * code * 8);
          let grow arr =
            let fresh = Array.make (2 * code) 0 in
            Array.blit arr 0 fresh 0 code;
            fresh
          in
          d.rev_a <- grow d.rev_a;
          d.rev_b <- grow d.rev_b
        end;
        d.rev_a.(code) <- a;
        d.rev_b.(code) <- b;
        d.next <- code + 1;
        Hashtbl.replace d.tbl (a, b) code;
        code
  in
  Array.unsafe_set d.memo_a slot a;
  Array.unsafe_set d.memo_b slot b;
  Array.unsafe_set d.memo_codes slot code;
  code

let[@inline] dict_code budget d a b =
  let h = (a * 0x9E3779B1) + b in
  let slot = (h lxor (h lsr 17)) land (memo_slots - 1) in
  if
    Array.unsafe_get d.memo_a slot = a
    && Array.unsafe_get d.memo_b slot = b
  then Array.unsafe_get d.memo_codes slot
  else dict_code_slow budget d a b slot

(* ------------------------------------------------------------------ *)
(* Event packing (inside dictionary entries).

   A fetch entry is [a = addr, b = bytes].  A dispatch entry is [a =
   branch address, b = target lsl 17 lor opcode lsl 1 lor vm_transfer].
   The accepted widths are far beyond anything the memory layout produces;
   a run that somehow exceeds them aborts recording (the caller falls back
   to direct simulation). *)

let dispatch_opcode_bits = 16
let dispatch_target_limit = 1 lsl 45
let fetch_addr_limit = 1 lsl 42
let fetch_bytes_limit = 1 lsl 20

type t = {
  dispatch : buf;  (* 3-byte codes into [dispatch_dict] *)
  dispatch_dict : dict;
  fetch : buf;  (* 3-byte codes into [fetch_dict] *)
  fetch_dict : dict;
  n_dispatch : int;
  n_fetch : int;
  base : Metrics.t;
      (* deterministic counters of the recorded run; predictor- and
         I-cache-dependent fields are zero *)
  steps : int;
  trapped : string option;
  output : string;
  code_bytes : int;
  bytes : int;  (* bytes charged against the recording budget *)
  mutable live : bool;  (* false once [release]d; chunks may be recycled *)
  memo_lock : Mutex.t;
      (* Replay results are deterministic per simulator configuration, so
         sweeps that repeat a configuration (penalty sweeps vary only the
         cost model; BTB sweeps keep the I-cache fixed) pay for each
         distinct configuration once.  Keys are the canonical descriptor
         strings ({!Predictor.descriptor} / {!Icache.descriptor}), which
         are injective over configurations, so lookup is one hash probe
         instead of an O(configs) structural scan.  Inserts are
         add-if-absent under [memo_lock]: two domains that both simulated
         the same configuration keep one binding (the results are equal
         anyway -- simulation is deterministic). *)
  pred_memo : (string, int * int) Hashtbl.t;
      (* descriptor -> (mispredicts, vm_branch_mispredicts) *)
  icache_memo : (string, int * int) Hashtbl.t;
      (* descriptor -> (fetches, misses) *)
}

let record ?fuel ?poll ?translation ?(cap_bytes = max_int) ~layout ~exec ~output
    () =
  let budget = { allocated = 0; cap = cap_bytes } in
  let bufs = ref [] in
  try
    let mk () =
      let b = buf_create budget in
      bufs := b :: !bufs;
      b
    in
    let dispatch = mk () in
    let fetch = mk () in
    let dispatch_dict = dict_create budget in
    let fetch_dict = dict_create budget in
    let n_dispatch = ref 0 and n_fetch = ref 0 in
    let m = Metrics.create () in
    let sink =
      {
        Engine.on_dispatch =
          (fun ~branch ~target ~opcode ~vm_transfer ->
            if
              branch < 0 || target < 0
              || target >= dispatch_target_limit
              || opcode < 0
              || opcode >= 1 lsl dispatch_opcode_bits
            then raise Overflow;
            let meta =
              (target lsl (dispatch_opcode_bits + 1))
              lor (opcode lsl 1)
              lor (if vm_transfer then 1 else 0)
            in
            push_token budget dispatch
              (dict_code budget dispatch_dict branch meta);
            incr n_dispatch);
        Engine.on_fetch =
          (fun ~addr ~bytes ~opcode:_ ->
            if
              addr < 0
              || addr >= fetch_addr_limit
              || bytes < 0
              || bytes >= fetch_bytes_limit
            then raise Overflow;
            push_token budget fetch (dict_code budget fetch_dict addr bytes);
            incr n_fetch);
      }
    in
    let steps, trapped =
      Engine.run_events ?fuel ?poll ?translation ~metrics:m ~layout ~exec
        ~sink ()
    in
    (* The hash tables only serve encoding; drop them before retention. *)
    Hashtbl.reset dispatch_dict.tbl;
    Hashtbl.reset fetch_dict.tbl;
    Some
      {
        dispatch;
        dispatch_dict;
        fetch;
        fetch_dict;
        n_dispatch = !n_dispatch;
        n_fetch = !n_fetch;
        base = m;
        steps;
        trapped;
        output = output ();
        code_bytes = layout.Code_layout.runtime_code_bytes;
        bytes = budget.allocated;
        live = true;
        memo_lock = Mutex.create ();
        pred_memo = Hashtbl.create 8;
        icache_memo = Hashtbl.create 8;
      }
  with Overflow ->
    (* Recycle whatever the aborted recording had already filled. *)
    List.iter release_buf !bufs;
    None

let release t =
  if not t.live then invalid_arg "Trace.release: already released";
  t.live <- false;
  release_buf t.dispatch;
  release_buf t.fetch

let memo_find t tbl key =
  Mutex.lock t.memo_lock;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock t.memo_lock;
  r

(* Mutation tooth: when set, [memo_add] reverts to the pre-fix unlocked
   check-then-insert, with a yield in the window to make the race land
   reliably.  Exists so the simulation harness can prove its memo check
   catches the regression; never set outside tests. *)
let mutation_racy_memo = ref false

(* Add-if-absent: the re-check under the lock is what closes the
   check-then-insert race -- two domains can both miss [memo_find] and
   both simulate, but only the first insert lands, so the table never
   accumulates duplicate bindings for a configuration. *)
let memo_add t tbl key v =
  if !mutation_racy_memo then begin
    if not (Hashtbl.mem tbl key) then begin
      (* Hold the check-then-insert window open long enough to overlap
         the other domains' arrival jitter after bank simulation. *)
      for _ = 1 to 200_000 do
        Domain.cpu_relax ()
      done;
      Hashtbl.add tbl key v
    end
  end
  else begin
    Mutex.lock t.memo_lock;
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v;
    Mutex.unlock t.memo_lock
  end

let memo_sizes t =
  Mutex.lock t.memo_lock;
  let r = (Hashtbl.length t.pred_memo, Hashtbl.length t.icache_memo) in
  Mutex.unlock t.memo_lock;
  r

(* Replays poll far less often than the engine: one token is a handful of
   array reads per configuration, so ~65k tokens still bounds the
   watchdog's blind spot to well under a millisecond. *)
let replay_poll_mask = 65536 - 1

(* Banked replay is tiled: each stream is decoded once, block by block,
   into a struct-of-arrays event block, and every configuration of the
   bank then runs its simulator kernel over the whole block before the
   next configuration starts.  One configuration's tables stay cache-hot
   for a block instead of all of them being touched per token, and the
   per-event loop has no closure call or predictor-kind dispatch.  Each
   simulator still sees its events in exactly the stream's order, so
   every counter equals an event-by-event replay's.  The poll interval
   is a whole number of blocks, so polls land on block boundaries. *)
let block_events = 4096

let () = assert ((replay_poll_mask + 1) mod block_events = 0)

(* Decode [b]'s tokens oldest-first into [codes] (of [block_events]
   slots) and call [f n] each time its first [n] slots hold the next
   tokens: [n = block_events] for every block but the last, which may be
   shorter and is skipped when empty.  [poll] runs every 64Ki tokens,
   before the block that completes them is simulated. *)
let iter_blocks poll b codes f =
  let n = ref 0 and seen = ref 0 in
  let scan c limit =
    let i = ref 0 in
    while !i + 3 <= limit do
      Array.unsafe_set codes !n
        (Char.code (Bytes.unsafe_get c !i)
        lor (Char.code (Bytes.unsafe_get c (!i + 1)) lsl 8)
        lor (Char.code (Bytes.unsafe_get c (!i + 2)) lsl 16));
      i := !i + 3;
      incr n;
      if !n = block_events then begin
        seen := !seen + block_events;
        if !seen land replay_poll_mask = 0 then poll ();
        f block_events;
        n := 0
      end
    done
  in
  List.iter (fun c -> scan c (Bytes.length c - (Bytes.length c mod 3)))
    (List.rev b.filled);
  if b.pos > 0 then scan b.cur b.pos;
  if !n > 0 then f !n

(* A bank's decode buffers: the token codes of one block plus one
   dispatch and one fetch event block.  They are recycled through a free
   list under [pool_lock], like the chunks: a bank is over in
   milliseconds, and allocating ~256KB of fresh major-heap arrays for
   every bank raised the sweep's peak RSS by ~1.7MB. *)
type buffers = {
  codes : int array;
  dispatch_block : Event_block.dispatch;
  fetch_block : Event_block.fetch;
}

let spare_buffers = ref []

let with_buffers f =
  Mutex.lock pool_lock;
  let b =
    match !spare_buffers with
    | b :: rest ->
        spare_buffers := rest;
        b
    | [] ->
        {
          codes = Array.make block_events 0;
          dispatch_block = Event_block.dispatch block_events;
          fetch_block = Event_block.fetch block_events;
        }
  in
  Mutex.unlock pool_lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock pool_lock;
      spare_buffers := b :: !spare_buffers;
      Mutex.unlock pool_lock)
    (fun () -> f b)

(* Counters live in per-configuration refs allocated once per lane, so
   the kernels' block loops allocate nothing.  [check] runs before every
   block: it is how a lane notices that its bank was stopped. *)
let bank_predictors poll check t { codes; dispatch_block = blk; _ } fresh =
  let sims = Array.map snd fresh in
  let mis = Array.map (fun _ -> ref 0) fresh in
  let vmis = Array.map (fun _ -> ref 0) fresh in
  let opcode_mask = (1 lsl dispatch_opcode_bits) - 1 in
  let rev_a = t.dispatch_dict.rev_a and rev_b = t.dispatch_dict.rev_b in
  iter_blocks poll t.dispatch codes (fun n ->
      check ();
      for i = 0 to n - 1 do
        let code = Array.unsafe_get codes i in
        let w = Array.unsafe_get rev_b code in
        Array.unsafe_set blk.branch i (Array.unsafe_get rev_a code);
        Array.unsafe_set blk.target i (w lsr (dispatch_opcode_bits + 1));
        Array.unsafe_set blk.opcode i ((w lsr 1) land opcode_mask);
        Array.unsafe_set blk.vm_transfer i (w land 1 = 1)
      done;
      blk.len <- n;
      Array.iteri
        (fun j sim ->
          Predictor.access_block sim blk ~mispredicts:mis.(j)
            ~vm_mispredicts:vmis.(j))
        sims);
  Array.iteri
    (fun j (d, _) -> memo_add t t.pred_memo d (!(mis.(j)), !(vmis.(j))))
    fresh

let bank_icaches poll check t { codes; fetch_block = blk; _ } fresh =
  let sims = Array.map snd fresh in
  let hits = Array.map (fun _ -> ref 0) fresh in
  let misses = Array.map (fun _ -> ref 0) fresh in
  let rev_a = t.fetch_dict.rev_a and rev_b = t.fetch_dict.rev_b in
  iter_blocks poll t.fetch codes (fun n ->
      check ();
      for i = 0 to n - 1 do
        let code = Array.unsafe_get codes i in
        Array.unsafe_set blk.addr i (Array.unsafe_get rev_a code);
        Array.unsafe_set blk.bytes i (Array.unsafe_get rev_b code)
      done;
      blk.len <- n;
      Array.iteri
        (fun j sim ->
          Icache.fetch_block sim blk ~hits:hits.(j) ~misses:misses.(j))
        sims);
  Array.iteri
    (fun j (d, _) ->
      memo_add t t.icache_memo d (!(hits.(j)) + !(misses.(j)), !(misses.(j))))
    fresh

(* ------------------------------------------------------------------ *)
(* Lanes.

   Every configuration of a bank is an independent simulator over the
   same stream, so a bank splits into lanes -- one stream plus a subset
   of its fresh configurations -- that domains can run side by side.
   Each lane decodes its stream into its own domain's buffers and lands
   its memo entries only after its whole walk, so every entry equals the
   one-lane value whatever the width.  Only the calling domain polls:
   the poll hook is the caller's watchdog and progress heartbeat, which
   read the environment, spans and registry that helper domains must not
   touch.  Helpers instead check a shared stop flag once per block. *)

type lane =
  | Predictor_lane of (string * Predictor.t) array
  | Icache_lane of (string * Icache.t) array

let lane_work t = function
  | Predictor_lane a -> t.n_dispatch * Array.length a
  | Icache_lane a -> t.n_fetch * Array.length a

(* About two lanes per domain: a domain whose vCPU runs slow leaves its
   second lane to the others instead of holding up the bank. *)
let lanes_per_domain = 2

(* [k] contiguous lanes of [configs] whose sizes differ by at most one. *)
let split k configs lane =
  let n = Array.length configs in
  List.init k (fun j ->
      let lo = j * n / k in
      lane (Array.sub configs lo (((j + 1) * n / k) - lo)))

(* Width 1 is one predictor lane then one I-cache lane, the order and
   memo landing points of a plain sequential bank.  Wider banks cut each
   stream into lanes of about [total / (lanes_per_domain * width)]
   event-configs (at least one configuration each) and hand the largest
   out first. *)
let cut_lanes t ~width fp fi =
  let target =
    max 1
      (((t.n_dispatch * Array.length fp) + (t.n_fetch * Array.length fi))
      / (lanes_per_domain * width))
  in
  let count events configs =
    let n = Array.length configs in
    if n = 0 then 0
    else if width <= 1 then 1
    else max 1 (min n (((events * n) + (target / 2)) / target))
  in
  let lanes =
    split (count t.n_dispatch fp) fp (fun a -> Predictor_lane a)
    @ split (count t.n_fetch fi) fi (fun a -> Icache_lane a)
  in
  Array.of_list
    (if width <= 1 then lanes
     else
       List.stable_sort (fun a b -> compare (lane_work t b) (lane_work t a))
         lanes)

let m_lanes = Vmbp_obs.Registry.counter "trace.bank_lanes"
let m_helper_lanes = Vmbp_obs.Registry.counter "trace.bank_helper_lanes"

exception Lane_stopped

let lane_hook = ref (fun () -> ())

(* Run [lanes] on the calling domain plus up to [width - 1] helper
   domains, which take lanes from a shared index.  The caller polls every
   64Ki tokens of its own walks and after each helper it joins.  Any
   exception -- a poll's, or one raised inside a lane on either side --
   sets the stop flag; every helper is joined before the first such
   exception is re-raised, so none outlives the bank. *)
let run_lanes poll ~width t lanes =
  let next = Atomic.make 0 and stop = Atomic.make false in
  let check () = if Atomic.get stop then raise Lane_stopped in
  let take poll =
    with_buffers (fun bufs ->
        let rec go ran =
          let i = Atomic.fetch_and_add next 1 in
          if i >= Array.length lanes then ran
          else begin
            !lane_hook ();
            (match lanes.(i) with
            | Predictor_lane fresh -> bank_predictors poll check t bufs fresh
            | Icache_lane fresh -> bank_icaches poll check t bufs fresh);
            go (ran + 1)
          end
        in
        go 0)
  in
  let helper () =
    match take ignore with
    | ran -> Ok ran
    | exception e ->
        Atomic.set stop true;
        Error (e, Printexc.get_raw_backtrace ())
  in
  (* A spawn can fail when the process is near the runtime's domain
     limit; the lanes a missing helper would have taken fall to the
     domains that did start. *)
  let rec spawn k acc =
    if k <= 0 then acc
    else
      match Domain.spawn helper with
      | d -> spawn (k - 1) (d :: acc)
      | exception _ -> acc
  in
  let helpers = spawn (min (width - 1) (Array.length lanes - 1)) [] in
  let failure = ref None in
  let fail e bt =
    Atomic.set stop true;
    match e with
    | Lane_stopped -> ()
    | e -> if Option.is_none !failure then failure := Some (e, bt)
  in
  let own =
    match take poll with
    | ran -> ran
    | exception e ->
        fail e (Printexc.get_raw_backtrace ());
        0
  in
  let helped =
    List.fold_left
      (fun helped d ->
        let helped =
          match Domain.join d with
          | Ok ran -> helped + ran
          | Error (e, bt) ->
              fail e bt;
              helped
        in
        (if not (Atomic.get stop) then
           try poll () with e -> fail e (Printexc.get_raw_backtrace ()));
        helped)
      0 helpers
  in
  Vmbp_obs.Registry.add m_lanes (own + helped);
  Vmbp_obs.Registry.add m_helper_lanes helped;
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Simulators for the requested configurations not yet in [memo]: filtered
   by descriptor before construction, so a memo-served replay builds no
   tables at all.  [create_bank] deduplicates and skips configurations
   whose constructor raises. *)
let fresh_of t memo descriptor create_bank configs =
  Array.of_list
    (create_bank
       (List.filter (fun c -> memo_find t memo (descriptor c) = None) configs))

let replay_bank ?(poll = fun () -> ()) ?(domains = 1) t ~predictors ~icaches =
  if not t.live then invalid_arg "Trace.replay_bank: trace was released";
  (* Poll before consulting the memos: a fully memo-served bank does no
     token iteration, and without this entry poll a long run of such
     groups would be invisible to the watchdog deadline. *)
  poll ();
  let fp =
    fresh_of t t.pred_memo Predictor.descriptor Predictor.create_bank
      predictors
  in
  let fi =
    fresh_of t t.icache_memo Icache.descriptor Icache.create_bank icaches
  in
  let width = max 1 domains in
  let lanes = cut_lanes t ~width fp fi in
  if Array.length lanes > 0 then run_lanes poll ~width t lanes;
  Array.length fp + Array.length fi

let bank_work t ~predictors ~icaches =
  let fresh descriptor memo configs =
    List.length
      (List.filter
         (fun d -> memo_find t memo d = None)
         (List.sort_uniq compare (List.map descriptor configs)))
  in
  (t.n_dispatch * fresh Predictor.descriptor t.pred_memo predictors)
  + (t.n_fetch * fresh Icache.descriptor t.icache_memo icaches)

let build_result t ~cpu (mispredicts, vm_mispredicts) (fetches, misses) =
  let m = Metrics.copy t.base in
  m.Metrics.mispredicts <- mispredicts;
  m.Metrics.vm_branch_mispredicts <- vm_mispredicts;
  m.Metrics.icache_fetches <- fetches;
  m.Metrics.icache_misses <- misses;
  m.Metrics.code_bytes <- t.code_bytes;
  {
    Engine.metrics = m;
    cycles = Cpu_model.cycles cpu m;
    seconds = Cpu_model.seconds cpu m;
    steps = t.steps;
    trapped = t.trapped;
  }

let replay ?poll t ~cpu ~predictor =
  if not t.live then invalid_arg "Trace.replay: trace was released";
  ignore
    (replay_bank ?poll t ~predictors:[ predictor ]
       ~icaches:[ cpu.Cpu_model.icache ]);
  let pred_counts =
    match memo_find t t.pred_memo (Predictor.descriptor predictor) with
    | Some r -> r
    | None ->
        (* Only an invalid configuration can still miss after a bank pass
           (the bank skips configurations whose constructor raises);
           re-raise that constructor's error for this cell. *)
        ignore (Predictor.create predictor : Predictor.t);
        assert false
  in
  let icache_counts =
    match
      memo_find t t.icache_memo (Icache.descriptor cpu.Cpu_model.icache)
    with
    | Some r -> r
    | None ->
        ignore (Icache.create cpu.Cpu_model.icache : Icache.t);
        assert false
  in
  build_result t ~cpu pred_counts icache_counts

(* Unlike [replay], valid on a released trace: the memo tables, base
   metrics and output are ordinary GC-managed values that survive chunk
   recycling. *)
let replay_memo t ~cpu ~predictor =
  match
    ( memo_find t t.pred_memo (Predictor.descriptor predictor),
      memo_find t t.icache_memo (Icache.descriptor cpu.Cpu_model.icache) )
  with
  | Some p, Some i -> Some (build_result t ~cpu p i)
  | _ -> None

let bytes t = t.bytes
let steps t = t.steps
let trapped t = t.trapped
let output t = t.output
let dispatch_events t = t.n_dispatch
let fetch_events t = t.n_fetch
