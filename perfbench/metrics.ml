type spec = { name : string; unit : string }

let spec name unit = { name; unit }

let end_to_end =
  [ spec "throughput" "ops/s";
    spec "latency_p50_ms" "ms";
    spec "latency_tail_ms" "ms";
    spec "peak_rss_mb" "MB";
    spec "setup_s" "s" ]

let s name = spec name "s"
let count name = spec name "count"

let per_layer =
  [ (* serve-* *)
    s "workloads.open_world.self_s";
    s "serve.frame.encode_request_s";
    s "serve.frame.decode_reply_s";
    s "serve.daemon.create_s";
    s "serve.daemon.submit_s";
    s "serve.daemon.flush_s";
    count "serve.daemon.backpressure_flushes";
    s "serve.daemon.await_s";
    s "serve.daemon.kill_shard_s";
    s "serve.daemon.recovery_flush_s";
    count "serve.daemon.replayed_rounds";
    count "serve.daemon.peak_live";
    s "core.session.create_s";
    s "core.session.step_s";
    s "serve.verify_s";
    (* ratio-line *)
    s "workloads.clusters.generate_s";
    s "core.instance.pack_s";
    s "core.instance.content_digest_s";
    s "offline.line_dp.solve_s";
    count "offline.line_dp.cells";
    spec "offline.line_dp.parent_bytes" "bytes";
    s "offline.opt_cache.hit_s";
    count "offline.opt_cache.hits";
    count "offline.opt_cache.misses";
    s "core.engine.total_cost_packed_s";
    s "offline.verify_s";
    (* fleet-f1 *)
    s "workloads.hotspots.generate_s";
    s "multi.fleet_offline.optimum_flow_s";
    count "multi.fleet_flow.requests";
    count "multi.fleet_flow.arcs";
    s "multi.fleet_offline.optimum_s";
    s "multi.fleet_engine.wfa_s";
    s "multi.fleet_engine.ftp_s";
    s "multi.fleet_engine.mtc_s";
    s "multi.fleet_engine.combine_s";
    s "multi.verify_s";
    (* every workload *)
    count "runtime.gc.minor_collections";
    count "runtime.gc.major_collections";
    spec "runtime.gc.minor_words" "words";
    spec "runtime.gc.promoted_words" "words";
    s "residual_s";
    s "trace.window_s";
    count "trace.spans";
    spec "trace.overhead_pct" "%";
    spec "host.calib_ms" "ms" ]

let valid_name n =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length n >= 1
  && String.length n <= 64
  && alnum n.[0]
  && String.for_all ok_char n

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) l)
    ^ "}"

let result_line ~correct ~attempted ~failed values =
  to_string
    (Obj
       [ ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (sp, v) ->
                  (sp.name, Obj [ ("value", Num v); ("unit", Str sp.unit) ]))
                values) ) ])
