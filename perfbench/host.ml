let status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix line ->
        let rest = String.sub line (String.length prefix)
            (String.length line - String.length prefix) in
        Scanf.sscanf_opt (String.trim rest) "%d kB" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

let calib_iterations = 5_000_000

let calib_ms () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0.0 in
  for i = 1 to calib_iterations do
    acc := !acc +. Float.sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc);
  (Unix.gettimeofday () -. t0) *. 1e3

let domains () = Domain.recommended_domain_count ()
let ocaml_version = Sys.ocaml_version
let flambda = Build_info.flambda
