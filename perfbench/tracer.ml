open Bigarray

type ints = (int, int_elt, c_layout) Array1.t
type floats = (float, float64_elt, c_layout) Array1.t

let max_depth = 64

type t = {
  clock : unit -> float;
  mutable on : bool;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable self : float array;
  mutable calls : int array;
  (* The open spans, innermost at [depth - 1]. *)
  mutable depth : int;
  st_id : int array;
  st_name : int array;
  st_start : float array;
  st_child : float array;
  (* Recorded spans, indexed by span id; ids past the capacity are
     still aggregated into [self] but not stored. *)
  sp_name : ints;
  sp_parent : ints;
  sp_op : ints;
  sp_start : floats;
  sp_end : floats;
  mutable next_id : int;
  mutable window : float;
  mutable since : float;
  mutable origin : float;
}

let create ?(clock = Unix.gettimeofday) ?(capacity = 1 lsl 17) () =
  let ints () = Array1.create int c_layout capacity in
  let floats () = Array1.create float64 c_layout capacity in
  {
    clock;
    on = false;
    ids = Hashtbl.create 64;
    names = [||];
    self = [||];
    calls = [||];
    depth = 0;
    st_id = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0.0;
    st_child = Array.make max_depth 0.0;
    sp_name = ints ();
    sp_parent = ints ();
    sp_op = ints ();
    sp_start = floats ();
    sp_end = floats ();
    next_id = 0;
    window = 0.0;
    since = 0.0;
    origin = nan;
  }

let name t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.replace t.ids s i;
    t.names <- Array.append t.names [| s |];
    t.self <- Array.append t.self [| 0.0 |];
    t.calls <- Array.append t.calls [| 0 |];
    i

let start t =
  if not t.on then begin
    let now = t.clock () in
    if Float.is_nan t.origin then t.origin <- now
    else
      (* Resume: shift the still-open spans past the pause, so paused
         time counts toward no span and not toward the window. *)
      for d = 0 to t.depth - 1 do
        t.st_start.(d) <- t.st_start.(d) +. (now -. t.since)
      done;
    t.since <- now;
    t.on <- true
  end

let stop t =
  if t.on then begin
    let now = t.clock () in
    t.window <- t.window +. (now -. t.since);
    t.since <- now;
    t.on <- false
  end

let enter t nm ~op =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Tracer.enter: spans nested too deep";
    let id = t.next_id in
    t.next_id <- id + 1;
    t.st_id.(d) <- id;
    t.st_name.(d) <- nm;
    t.st_child.(d) <- 0.0;
    if id < Array1.dim t.sp_name then begin
      Array1.unsafe_set t.sp_parent id (if d = 0 then -1 else t.st_id.(d - 1));
      Array1.unsafe_set t.sp_op id op
    end;
    t.depth <- d + 1;
    (* The clock is read last so the bookkeeping above is not billed to
       the span. *)
    t.st_start.(d) <- t.clock ()
  end

let leave_as t nm =
  if t.on then begin
    let now = t.clock () in
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Tracer.leave: no open span";
    t.depth <- d;
    let dur = now -. t.st_start.(d) in
    t.self.(nm) <- t.self.(nm) +. (dur -. t.st_child.(d));
    t.calls.(nm) <- t.calls.(nm) + 1;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur;
    let id = t.st_id.(d) in
    if id < Array1.dim t.sp_name then begin
      Array1.unsafe_set t.sp_name id nm;
      Array1.unsafe_set t.sp_start id t.st_start.(d);
      Array1.unsafe_set t.sp_end id now
    end
  end

let leave t = if t.on && t.depth > 0 then leave_as t t.st_name.(t.depth - 1)

let self_s t s =
  match Hashtbl.find_opt t.ids s with Some i -> t.self.(i) | None -> 0.0

let calls t s =
  match Hashtbl.find_opt t.ids s with Some i -> t.calls.(i) | None -> 0

let names t = Array.to_list t.names

let window_s t = t.window
let spans t = t.next_id
let stored t = Stdlib.min t.next_id (Array1.dim t.sp_name)

let write t oc =
  output_string oc "id\tname\tparent\top\tstart_us\tend_us\n";
  for id = 0 to stored t - 1 do
    let us x = (x -. t.origin) *. 1e6 in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%.3f\t%.3f\n" id
      t.names.(Array1.get t.sp_name id)
      (Array1.get t.sp_parent id)
      (Array1.get t.sp_op id)
      (us (Array1.get t.sp_start id))
      (us (Array1.get t.sp_end id))
  done
