(** The golden fixtures guarding the hot-path and line-DP rewrites.

    One fixed, fully deterministic run — MtC with the default
    configuration on the t1 clusters workload — whose serialized
    trajectory was captured {e before} the allocation-free kernel
    rewrite and committed as [test/golden/t1_default.trajectory].
    The differential suite ([test_perf_equiv]) and [bench hotpath] both
    regenerate the trajectory through the current code and require it to
    be {e byte-identical} to the committed capture: any drift in the
    geometry kernels, the Weiszfeld iteration or the engine's clamping
    shows up as a one-line diff here.

    Regenerate (only when the golden run's {e definition} changes, never
    to paper over a mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- trajectory]. *)

val instance : unit -> Mobile_server.Instance.t
(** The fixed workload: drifting 2-D clusters, [T = 120], stream
    ["t1-clusters"]/seed 42 — the t1 catalog family. *)

val config : unit -> Mobile_server.Config.t
(** The fixed model: [D = 4], [m = 1], [delta = 0], move-first. *)

val trajectory_string : unit -> string
(** The trajectory of MtC on {!instance} under {!config} as text: the
    bytes that must match the committed golden file.  A
    [# mobile-server-trajectory v1] header, then [dim], [rounds] and
    [start] lines, then one [pos t x y] line per round; every
    coordinate is printed with [%.17g], so each double round-trips. *)

val golden_path : string
(** Repo-root-relative path of the committed capture. *)

(** {1 Line DP capture}

    [test/golden/line_dp_v1.txt] pins {!Offline.Line_dp.solve} bit for
    bit.  It was captured before the two-pass kernel rewrite and
    [test_offline] compares {!line_dp_string} with it byte for byte.
    Regenerate (only when the case list changes, never to paper over a
    mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- line_dp]. *)

val line_dp_string : unit -> string
(** One line per fixed case: its name, then [cost] and [grid_pitch] as
    [%h] and the MD5 of the trajectory's little-endian IEEE bits.  The
    cases are seeded 1-D clusters (perfbench's [ratio-line] shape among
    them), the same with empty rounds, an all-empty instance and a hull
    wide enough that the grid budget sets the pitch; both variants, [D]
    in [{1, 2, 4, 7.5, 9}] and [grid_per_m] in [{1, 5, 64, 126}]. *)

val line_dp_path : string
(** Repo-root-relative path of the committed line DP capture. *)

(** {1 Fleet capture}

    [test/golden/fleet_v1.txt] pins the fleet round pricing
    ({!Multi.Fleet.step}) and every in-tree fleet algorithm bit for
    bit.  It was captured before the packed fleet kernels were deleted
    and [test_fleet] compares {!fleet_string} with it byte for byte.
    Regenerate (only when the case list changes, never to paper over a
    mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- fleet]. *)

val fleet_string : unit -> string
(** One line per (instance, k, variant, algorithm): [move] and
    [service] as [%h] and the MD5 of the run's fleets' little-endian
    IEEE bits.  The instances are seeded 3-hotspot ones, [T = 40], in
    [d = 1, 2, 2, 3]; [k] ranges over [{1..4}] under [D = 2], [m = 1],
    [δ = 0.5] and both variants.  The algorithms are WFA, FtP
    ([σ = 0.5]), [independent], [greedy_partition], [kmeans_tracker]
    (seeded), [stay_put] and both combiners over [[WFA; FtP; MtC]].
    One more line per (instance, k, variant) holds
    {!Multi.Fleet_offline.best_upper}'s cost as [%h] and its label. *)

val fleet_path : string
(** Repo-root-relative path of the committed fleet capture. *)

(** {1 Fleet flow capture}

    [test/golden/fleet_flow_v1.txt] pins {!Multi.Fleet_flow.solve}'s
    cost and its choice among optimal chain sets, so a change to the
    solver's scans or tie-breaks shows even where the cost bits agree.
    [test_fleet] compares {!fleet_flow_string} with it byte for byte.
    Regenerate (only when the case list changes, never to paper over a
    mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- fleet_flow]. *)

val fleet_flow_string : unit -> string
(** One line per (case, [k]): the cost as [%h] and the MD5 of the
    chains (their count, then each chain's length and request indices,
    as little-endian 64-bit words), all at [D = 2].  The cases are
    perfbench [fleet-f1]'s shape (3 hotspots, [d = 2], [T = 40]) at
    [k = 2, 3, 4]; 1-D and 2-D instances on the 1/4 lattice of
    [[-1, 1]^d] (one to three requests a round, so duplicate requests
    and exact ties are common) at [k = 1..6]; and [bench fleet]'s
    flow-vs-brute instances at their [k]. *)

val fleet_flow_path : string
(** Repo-root-relative path of the committed fleet flow capture. *)

(** {1 Convex_opt capture}

    [test/golden/convex_v1.txt] pins {!Offline.Convex_opt.solve} bit
    for bit: the cost, the trajectory and how many subgradient
    iterations and descent sweeps it took.  It was captured while the
    solver's descent phases still read the boxed instance, and
    [test_offline] compares {!convex_string} with it byte for byte.
    Regenerate (only when the case list changes, never to paper over a
    mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- convex]. *)

val convex_string : unit -> string
(** One line per case: [cost] as [%h], the MD5 of the trajectory's
    little-endian IEEE bits, the subgradient iterations and the
    descent sweeps.  The cases are seeded 1-D, 2-D and 3-D clusters,
    each also with empty rounds, and 2-D instances on the 1/4 lattice
    of [[-1, 1]^2] (duplicate requests), each under both variants,
    [D] in [{1, 2, 4, 7.5}], [m] in [{0.5, 1, 1.3}] and the knobs at
    the defaults and at [max_iter = 40], [sweeps = 4]; then three
    perfbench [fleet-f1]-shaped instances (3 hotspots, [d = 2],
    [T = 40]) at [D = 2], [m = 1] and the default knobs, both
    variants. *)

val convex_path : string
(** Repo-root-relative path of the committed Convex_opt capture. *)

(** {1 Network capture}

    [test/golden/network_v1.txt] pins the all-pairs shortest-path
    table ({!Network.Dijkstra.all_pairs}) and the graph Page Migration
    optimum ({!Network.Pm_offline.solve}) bit for bit.  It was captured
    while [bench network] still checked both against a replica of the
    pre-CSR code, and [test_network] compares {!network_string} with it
    byte for byte.  Regenerate (only when the case list changes, never
    to paper over a mismatch) with
    [dune exec tools/gen_golden/gen_golden.exe -- network]. *)

val network_string : unit -> string
(** One line per (graph, requests, [D]): the MD5 of the dense table's
    little-endian IEEE bits, the optimum's cost as [%h] and the MD5 of
    its page positions.  The graphs are two seeded random-geometric
    ones ([n = 16, 24]), a 5×4 grid, a 12-cycle, a seeded random tree
    ([n = 14]) and the complete graph on 8 nodes, each under [T = 40]
    uniform and localized requests at [D] in [{1, 2.5, 4}]; then
    [bench network]'s instances (stream ["bench-network"], seed 1,
    four requesting nodes a round) at [n = 120, T = 64] and
    [n = 400, T = 256], [D = 4]. *)

val network_path : string
(** Repo-root-relative path of the committed network capture. *)

(** {1 Wire-protocol frame fixtures}

    [test/golden/frames_v1.hex] pins {!Serve.Frame}'s encoding of
    {!frame_fixtures}: [test_serve] encodes each value to the committed
    bytes and decodes the bytes back to the value, floats compared
    bitwise.  Regenerate ONLY on a deliberate protocol version bump,
    never to make a failing byte-identity check pass, with
    [dune exec tools/gen_golden/gen_golden.exe -- frames]. *)

val frame_fixtures :
  (string * [ `Req of Serve.Frame.request | `Rep of Serve.Frame.reply ]) list
(** The fixture values, by name: every request and reply constructor,
    a negative session id, an empty step, a negative zero, an
    extreme session id and both error codes. *)

val frames_string : unit -> string
(** A [#] header line, then one ["<name> <hex of the encoded frame>"]
    line per fixture, in {!frame_fixtures}'s order. *)
