type t = { capacity : int; occupancy : int array; mutable flushes : int }

let create ~shards ~capacity =
  if shards < 1 || capacity < 1 then
    invalid_arg "Flush_mirror.create: shards and capacity must be positive";
  { capacity; occupancy = Array.make shards 0; flushes = 0 }

(* [Serve.Daemon.submit] flushes every shard when the target shard's
   queue already holds [capacity] frames, then enqueues. *)
let submit t shard =
  if t.occupancy.(shard) >= t.capacity then begin
    Array.fill t.occupancy 0 (Array.length t.occupancy) 0;
    t.occupancy.(shard) <- 1;
    t.flushes <- t.flushes + 1;
    true
  end
  else begin
    t.occupancy.(shard) <- t.occupancy.(shard) + 1;
    false
  end

let flush t = Array.fill t.occupancy 0 (Array.length t.occupancy) 0
let backpressure_flushes t = t.flushes
