open Vmbp_vm

type vm = Forth | Jvm

let vm_name = function Forth -> "forth" | Jvm -> "jvm"

type session = {
  exec : Vmbp_core.Engine.exec;
  output : unit -> string;
  replayed : bool;
}

type loaded = {
  program : Program.t;
  fresh_session : unit -> session;
  semantic_session : unit -> session;
}

type t = {
  vm : vm;
  name : string;
  description : string;
  load : scale:int -> loaded;
}

(* Loading a workload is deterministic in (vm, name, scale); memoise so the
   sweeps do not recompile programs hundreds of times.  The parallel runner
   hits these tables from several domains at once, so every lookup-or-build
   holds a mutex; the computation runs under the lock so concurrent callers
   of the same key share one build.  [training_profile] below has its own
   lock because building a profile loads workloads (lock order: profile
   before load, never the reverse). *)
let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

let program_key vm name scale =
  Printf.sprintf "%s/%s/%d" (vm_name vm) name scale

let memo : (string, loaded) Hashtbl.t = Hashtbl.create 32
let memo_lock = Mutex.create ()

let memoised key f =
  locked memo_lock (fun () ->
      match Hashtbl.find_opt memo key with
      | Some loaded -> loaded
      | None ->
          let loaded = f () in
          Hashtbl.replace memo key loaded;
          loaded)

(* ------------------------------------------------------------------ *)
(* Semantics once per program.  The first real-semantics session of a
   program records its control path ({!Vmbp_core.Control_path}); once a
   run reaches [Halt] or [Trap] the path is published here, keyed like
   the load memo, and every later [fresh_session] replays it instead of
   running the semantics.  Publishing is add-if-absent: racing recorders
   of one program all run to completion unlocked, and the first to finish
   wins.  The paths are deterministic, so which one wins is unobservable. *)

let m_semantic_runs = Vmbp_obs.Registry.counter "engine.semantic_runs"
let m_path_replays = Vmbp_obs.Registry.counter "engine.path_replays"
let m_path_bytes = Vmbp_obs.Registry.counter "engine.path_bytes"
let paths : (string, Vmbp_core.Control_path.t) Hashtbl.t = Hashtbl.create 32
let paths_lock = Mutex.create ()

let publish key path =
  locked paths_lock (fun () ->
      if not (Hashtbl.mem paths key) then begin
        Hashtbl.replace paths key path;
        Vmbp_obs.Registry.add m_path_bytes (Vmbp_core.Control_path.bytes path)
      end)

let make_loaded ~key program semantic_session =
  let fresh_session () =
    match locked paths_lock (fun () -> Hashtbl.find_opt paths key) with
    | Some path ->
        Vmbp_obs.Registry.add m_path_replays 1;
        {
          exec = Vmbp_core.Control_path.exec path;
          output = (fun () -> Vmbp_core.Control_path.output path);
          replayed = true;
        }
    | None ->
        Vmbp_obs.Registry.add m_semantic_runs 1;
        let s = semantic_session () in
        {
          s with
          exec =
            Vmbp_core.Control_path.record ~output:s.output
              ~publish:(publish key) s.exec;
        }
  in
  { program; fresh_session; semantic_session }

let forget_paths () = locked paths_lock (fun () -> Hashtbl.reset paths)

let of_forth (w : Vmbp_forth.Forth_workloads.t) =
  {
    vm = Forth;
    name = w.Vmbp_forth.Forth_workloads.name;
    description = w.Vmbp_forth.Forth_workloads.description;
    load =
      (fun ~scale ->
        let key = program_key Forth w.Vmbp_forth.Forth_workloads.name scale in
        memoised key (fun () ->
            let source = w.Vmbp_forth.Forth_workloads.source ~scale in
            let program =
              Vmbp_forth.Compiler.compile
                ~name:w.Vmbp_forth.Forth_workloads.name source
            in
            make_loaded ~key program (fun () ->
                let state = Vmbp_forth.State.create () in
                {
                  exec = Vmbp_forth.Instruction_set.exec state;
                  output = (fun () -> Vmbp_forth.State.output state);
                  replayed = false;
                })))
  }

let of_jvm (w : Vmbp_jvm.Jvm_workloads.t) =
  {
    vm = Jvm;
    name = w.Vmbp_jvm.Jvm_workloads.name;
    description = w.Vmbp_jvm.Jvm_workloads.description;
    load =
      (fun ~scale ->
        let key = program_key Jvm w.Vmbp_jvm.Jvm_workloads.name scale in
        memoised key (fun () ->
            let image = w.Vmbp_jvm.Jvm_workloads.build ~scale in
            make_loaded ~key image.Vmbp_jvm.Runtime.program (fun () ->
                let state = Vmbp_jvm.Runtime.create image in
                {
                  exec = Vmbp_jvm.Semantics.exec state;
                  output = (fun () -> Vmbp_jvm.Runtime.output state);
                  replayed = false;
                })))
  }

let forth = List.map of_forth Vmbp_forth.Forth_workloads.all
let jvm = List.map of_jvm Vmbp_jvm.Jvm_workloads.all
let all = forth @ jvm

let find ~vm name = List.find_opt (fun w -> w.vm = vm && w.name = name) all

let recorded_path w ~scale =
  let key = program_key w.vm w.name scale in
  locked paths_lock (fun () -> Hashtbl.find_opt paths key)

let run_reference ?(fuel = 500_000_000) loaded =
  let program = Program.copy loaded.program in
  let session = loaded.fresh_session () in
  let steps, trap =
    Vmbp_core.Engine.run_functional ~fuel ~program ~exec:session.exec ()
  in
  (steps, trap, session.output ())

let quickened_program ?(fuel = 500_000_000) loaded =
  let program = Program.copy loaded.program in
  let session = loaded.fresh_session () in
  let _steps, _trap =
    Vmbp_core.Engine.run_functional ~fuel ~program ~exec:session.exec ()
  in
  program

(* Dynamic per-slot execution counts from a functional training run. *)
let dynamic_counts ?(fuel = 500_000_000) loaded =
  let program = Program.copy loaded.program in
  let session = loaded.fresh_session () in
  let counts = Array.make (Program.length program) 0 in
  let _ =
    Vmbp_core.Engine.run_functional ~fuel ~exec_counts:counts ~program
      ~exec:session.exec ()
  in
  (program, counts)

let profile_memo : (string, Profile.t) Hashtbl.t = Hashtbl.create 16
let profile_lock = Mutex.create ()

let training_profile ?(max_seq_len = 4) ~vm ~target ~scale () =
  let key =
    Printf.sprintf "%s/%s/%d/%d" (vm_name vm) target scale max_seq_len
  in
  locked profile_lock (fun () ->
      match Hashtbl.find_opt profile_memo key with
      | Some p -> p
      | None ->
          let profile = Profile.empty ~max_seq_len in
          (match vm with
          | Forth ->
              (* Train on brainless, as the paper does; the profile is dynamic
                 (weighted by execution counts). *)
              let trainer =
                match find ~vm:Forth "brainless" with
                | Some w -> w
                | None -> assert false
              in
              let loaded = trainer.load ~scale:(max 1 (scale / 2)) in
              let program, counts = dynamic_counts loaded in
              Profile.add_program ~weights:counts profile program
          | Jvm ->
              (* Leave-one-out static profiling over quickened programs. *)
              List.iter
                (fun w ->
                  if w.name <> target then
                    let loaded = w.load ~scale:1 in
                    Profile.add_program profile (quickened_program loaded))
                jvm);
          Hashtbl.replace profile_memo key profile;
          profile)
