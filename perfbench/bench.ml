(* The repository benchmark: four end-to-end scenarios, each timed in
   one process on one domain, plus a traced run that splits each
   scenario into per-layer metrics measured from outside the libraries.

   Usage (normally through run.py, which builds this first):
     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}. An attempted operation
   is one simulated run of the workload; it fails when an output check
   (golden value, invariant, or exact repetition of a deterministic
   quantity) does not hold. Any failure makes the exit code 1. README.md
   in this directory explains the workloads and the metrics. *)

let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Clocks, allocation, statistics *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (clock_ns () - t0) *. 1e-9

(* minor + major - promoted: every word the program allocated, however
   the collector later moved it, so it does not depend on GC timing. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
   default "exclusive" method), so the spreads recorded here are the
   ones a reader recomputes from the samples. *)
let quartiles xs =
  match List.sort compare xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let q i =
      let j = i * (n + 1) / 4 and delta = i * (n + 1) mod 4 in
      let j = max 1 (min (n - 1) j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let pct a b = if b = 0.0 then 0.0 else 100.0 *. a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Spans recorded by the benchmark around its calls into each layer.
   A span has a name, a layer, start and end (host ns), the span that
   was open when it started, and the id of the workload run it belongs
   to. They stay in memory until the run ends. *)

module Spans = struct
  type span = {
    id : int;
    parent : int;
    run : int;
    layer : string;
    name : string;
    start : int;
    mutable stop : int;
  }

  let on = ref false
  let run_id = ref 0
  let closed = ref []
  let stack = ref []
  let next = ref 0

  let record ~layer name f =
    if not !on then f ()
    else begin
      let parent = match !stack with s :: _ -> s.id | [] -> -1 in
      let s =
        { id = !next; parent; run = !run_id; layer; name; start = clock_ns (); stop = 0 }
      in
      incr next;
      stack := s :: !stack;
      let finish () =
        s.stop <- clock_ns ();
        stack := List.tl !stack;
        closed := s :: !closed
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  let all () = List.sort (fun a b -> compare a.id b.id) !closed

  (* Self time: a span's duration minus the part its children cover.
     Children of one span run one after another on one domain, so the
     covered part is the sum of their durations. *)
  let self_ns_by_layer () =
    let spans = all () in
    let child_ns = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_ns s.parent
            ((s.stop - s.start)
            + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
      spans;
    let by_layer = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let self =
          s.stop - s.start
          - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
        in
        Hashtbl.replace by_layer s.layer
          (self + Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer)))
      spans;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [])

  (* Chrome trace_event export through Obs.Trace: one track per
     workload run ([tid]), span ids are positions in the file, and
     [args.v] holds the parent's id (-1 for a root). *)
  let write_chrome path =
    let spans = all () in
    let t0 = match spans with s :: _ -> s.start | [] -> 0 in
    let tr = Obs.Trace.create ~capacity:(max 1 (List.length spans)) () in
    List.iter
      (fun s ->
        Obs.Trace.span tr ~name:s.name ~cat:s.layer ~ts:(s.start - t0)
          ~dur:(s.stop - s.start) ~tid:s.run ~v:s.parent)
      spans;
    Obs.Trace.write_chrome ~ts_scale:1e-3 path tr
end

let span = Spans.record

(* ------------------------------------------------------------------ *)
(* Workloads *)

type outcome = {
  ops : int;  (** denominator of alloc_words_per_op *)
  completed_pct : float;
  answer : float;  (** the workload's simulated answer *)
  facts : (string * string) list;
      (** deterministic simulated outputs: golden values and the
          repeat check compare these *)
  violations : string list;  (** invariants that did not hold *)
}

type traced = {
  t_outcome : outcome;
  t_run_s : float;  (** host time of the traced simulated span *)
  layers : run_s:float -> (string * float) list;
      (** per-layer metrics, given the untraced run's wall seconds;
          runs the layer probes, so call it once *)
}

type workload = {
  name : string;
  answer_metric : string option;
  golden : (string * string) list;  (** facts at [default_seed] *)
  setup : int -> unit -> outcome;
      (** [setup seed] makes every call before the first one that
          advances simulated time; the closure runs the timed span *)
  traced : int -> Obs.Sink.t -> traced;
}

let fmt_float x = Printf.sprintf "%.17g" x
let hist obs name = Obs.Sink.histogram obs name
let fcounter obs name = fi (Obs.Metrics.Counter.value (Obs.Sink.counter obs name))

let timed f =
  let t0 = clock_ns () in
  let r = f () in
  (r, seconds_since t0)

(* [f] over every element, returning (mean host us, mean words) per
   call. *)
let per_call xs f =
  let n = max 1 (List.length xs) in
  let w0 = alloc_words () in
  let (), s = timed (fun () -> List.iter f xs) in
  (s *. 1e6 /. fi n, (alloc_words () -. w0) /. fi n)

let engine_layers obs ~run_s =
  let events = fcounter obs "engine.events.dispatched" in
  [
    ("netsim.events", events);
    ("netsim.host_ns_per_event", if events = 0.0 then 0.0 else run_s *. 1e9 /. events);
    ( "netsim.cancelled_pct",
      pct (fcounter obs "engine.events.cancelled") (fcounter obs "engine.events.scheduled") );
    ("netsim.queue_depth_max", Obs.Metrics.Gauge.max (Obs.Sink.gauge obs "engine.queue.depth"));
  ]

let lifecycle_layers obs =
  let attempts = fcounter obs "lifecycle.attempts" in
  let hits = fcounter obs "lifecycle.route_cache_hits" in
  let misses = fcounter obs "lifecycle.route_cache_misses" in
  [
    ("lifecycle.attempts", attempts);
    ("lifecycle.retry_pct", pct (fcounter obs "lifecycle.retries") attempts);
    ("lifecycle.timeouts", fcounter obs "lifecycle.timeouts");
    ("lifecycle.crankbacks", fcounter obs "lifecycle.crankbacks");
    ("lifecycle.failed", fcounter obs "lifecycle.failed");
    ("lifecycle.route_cache_hit_pct", pct hits (hits +. misses));
    ( "lifecycle.signaling_backlog_p99",
      Obs.Histogram.percentile (hist obs "lifecycle.signaling_backlog") 99.0 );
  ]

let bwc_layers obs =
  let denied =
    fcounter obs "bwc.denied_no_route" +. fcounter obs "bwc.denied_no_capacity"
  in
  let decided = fcounter obs "bwc.granted" +. denied in
  [
    ("bwc.cross_shard_pct", pct (fcounter obs "bwc.cross_shard") decided);
    ("bwc.escrow_conflicts", fcounter obs "bwc.escrow_conflicts");
    ("bwc.batch_flushes", fcounter obs "bwc.batch_flushes");
    ("bwc.denied_pct", pct denied decided);
  ]

(* Topo.Paths.route over the first switch each host of a pair attaches
   to: the route computation the signaling layer pays on a cache miss. *)
let route_layers g pairs ~misses ~run_s =
  let attach h = match Topo.Graph.host_links g h with (s, _) :: _ -> s | [] -> 0 in
  let pairs = List.filteri (fun i _ -> i < 400) pairs in
  let us, words =
    span ~layer:"topo" "Topo.Paths.route" (fun () ->
        per_call pairs (fun (a, b) ->
            ignore (Topo.Paths.route g ~src:(attach a) ~dst:(attach b))))
  in
  [
    ("topo.route_us", us);
    ("topo.route_words", words);
    ("topo.route_share_pct", pct (misses *. us *. 1e-6) run_s);
  ]

let build_ms build = 1e3 *. median (List.init 5 (fun _ -> snd (timed build)))

let check_golden ~seed golden facts =
  if seed <> default_seed then []
  else
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k facts with
        | Some v' when v' = v -> None
        | got ->
          Some
            (Printf.sprintf "golden %s: expected %s, got %s" k v
               (Option.value ~default:"(missing)" got)))
      golden

(* --- voq_uniform ---------------------------------------------------- *)

let voq_n = 16
let voq_load = 0.9
let voq_slots = 50_000

let voq_build ~obs seed =
  let rng = Netsim.Rng.create seed in
  let model =
    Fabric.Voq_switch.create_observed ~obs ~rng ~n:voq_n ~scheduler:(Pim 3)
      ~on_transfer:(fun _ ~slot:_ -> ())
  in
  let traffic = Fabric.Traffic.uniform ~rng ~n:voq_n ~load:voq_load in
  (model, traffic)

(* Counts every injected cell, warmup included, for the conservation
   check; the wrapper allocates nothing. *)
let counting model =
  let injected = ref 0 in
  ( { model with Fabric.Model.inject = (fun c -> incr injected; model.Fabric.Model.inject c) },
    injected )

let voq_facts (m : Fabric.Harness.metrics) =
  [
    ("offered", string_of_int m.offered);
    ("carried", string_of_int m.carried);
    ("mean_delay", fmt_float m.mean_delay);
    ("p99_delay", fmt_float m.p99_delay);
    ("max_delay", fmt_float m.max_delay);
    ("final_occupancy", string_of_int m.final_occupancy);
  ]

let voq_outcome (m : Fabric.Harness.metrics) injected =
  {
    ops = m.carried;
    completed_pct = pct (fi (injected - m.final_occupancy)) (fi injected);
    answer = m.p99_delay;
    facts = voq_facts m;
    violations =
      (if m.carried + m.final_occupancy > injected then
         [ "voq: cells carried plus cells buffered exceed cells injected" ]
       else []);
  }

let voq_setup seed =
  let model, traffic = voq_build ~obs:Obs.Sink.null seed in
  let model, injected = counting model in
  fun () ->
    let m = Fabric.Harness.run ~traffic ~model ~slots:voq_slots () in
    voq_outcome m !injected

(* The slot loop of Fabric.Harness.run, driven here so each phase can
   be timed: arrivals + inject, Model.step (PIM and the crossbar), and
   the delay bookkeeping, which includes the final sort for the
   percentiles. Its outputs must equal Harness.run's. *)
let voq_split seed =
  let model, traffic = voq_build ~obs:Obs.Sink.null seed in
  let warmup = voq_slots / 10 in
  let offered = ref 0 and carried = ref 0 in
  let delays = Netsim.Stats.Distribution.create () in
  let t_traffic = ref 0 and t_step = ref 0 and t_record = ref 0 and occ = ref 0 in
  for slot = 0 to warmup + voq_slots - 1 do
    let measuring = slot >= warmup in
    let t0 = clock_ns () in
    for input = 0 to voq_n - 1 do
      List.iter
        (fun output ->
          if measuring then incr offered;
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    let t1 = clock_ns () in
    let departures = model.Fabric.Model.step ~slot in
    let t2 = clock_ns () in
    if measuring then
      List.iter
        (fun cell ->
          incr carried;
          Netsim.Stats.Distribution.add delays
            (float_of_int (Fabric.Cell.delay cell ~departure:slot)))
        departures;
    let t3 = clock_ns () in
    if measuring then begin
      t_traffic := !t_traffic + (t1 - t0);
      t_step := !t_step + (t2 - t1);
      t_record := !t_record + (t3 - t2);
      occ := !occ + model.Fabric.Model.occupancy ()
    end
  done;
  let t_summary = clock_ns () in
  let mean_delay = Netsim.Stats.Distribution.mean delays in
  let p99_delay = Netsim.Stats.Distribution.percentile delays 99.0 in
  let max_delay = Netsim.Stats.Distribution.max delays in
  t_record := !t_record + (clock_ns () - t_summary);
  let per_slot t = fi t /. fi voq_slots in
  let m =
    {
      Fabric.Harness.slots = voq_slots;
      offered = !offered;
      carried = !carried;
      throughput = fi !carried /. fi (voq_n * voq_slots);
      mean_delay;
      p99_delay;
      max_delay;
      final_occupancy = model.Fabric.Model.occupancy ();
    }
  in
  ( m,
    [
      ("fabric.traffic_ns_per_slot", per_slot !t_traffic);
      ("fabric.step_ns_per_slot", per_slot !t_step);
      ("fabric.record_ns_per_slot", per_slot !t_record);
      ("fabric.occupancy_mean", fi !occ /. fi voq_slots);
    ] )

let voq_traced seed obs =
  let (model, injected), traffic =
    span ~layer:"fabric" "Fabric.Voq_switch.create_observed" (fun () ->
        let model, traffic = voq_build ~obs seed in
        (counting model, traffic))
  in
  let m, run_s =
    span ~layer:"fabric" "Fabric.Harness.run" (fun () ->
        timed (fun () -> Fabric.Harness.run ~obs ~traffic ~model ~slots:voq_slots ()))
  in
  let t_outcome = voq_outcome m !injected in
  let layers ~run_s:_ =
    let split_m, split =
      span ~layer:"fabric" "slot loop (split)" (fun () -> voq_split seed)
    in
    if voq_facts split_m <> t_outcome.facts then
      failwith "voq: the split slot loop disagrees with Harness.run";
    split
    @ [
        ( "matching.iterations_mean",
          Obs.Histogram.mean (hist obs "fabric.match.iterations") );
        ("matching.match_size_mean", Obs.Histogram.mean (hist obs "fabric.match.size"));
      ]
  in
  { t_outcome; t_run_s = run_s; layers }

(* --- reconfig_fattree ----------------------------------------------- *)

let reconfig_k = 16
let failed_switch = 5
let fat_tree k () = fst (Topo.Build.fat_tree ~k)

let reconfig_run ?obs seed g =
  let params = { Reconfig.Runner.default_params with seed } in
  Reconfig.Runner.run_after_failure ~params ?obs g ~fail:(`Switch failed_switch)

let reconfig_outcome (o : Reconfig.Runner.outcome) =
  let survivors = ref 0 and done_ok = ref 0 in
  Array.iteri
    (fun i v ->
      if i <> failed_switch then begin
        incr survivors;
        if
          v.Reconfig.Runner.view_topology_ok
          && (match v.view_completed with
             | Some t -> Reconfig.Tag.equal t o.final_tag
             | None -> false)
        then incr done_ok
      end)
    o.switch_views;
  let ns = string_of_int in
  {
    ops = o.messages;
    completed_pct = pct (fi !done_ok) (fi !survivors);
    answer = Netsim.Time.to_ms o.elapsed;
    facts =
      [
        ("messages", ns o.messages);
        ("wire_transmissions", ns o.wire_transmissions);
        ("converged", string_of_bool o.converged);
        ("agreement", string_of_bool o.agreement);
        ("topology_correct", string_of_bool o.topology_correct);
        ("elapsed_ns", ns o.elapsed);
        ("phase_propagation_ns", ns o.phase_propagation);
        ("phase_collection_ns", ns o.phase_collection);
        ("phase_distribution_ns", ns o.phase_distribution);
      ];
    violations =
      (if o.converged then [] else [ "reconfig: did not converge" ])
      @ (if o.topology_correct then [] else [ "reconfig: learned topology is wrong" ])
      @ if o.agreement then [] else [ "reconfig: switches disagree" ];
  }

let reconfig_setup seed =
  let g = fat_tree reconfig_k () in
  fun () -> reconfig_outcome (reconfig_run seed g)

let reconfig_traced seed obs =
  let g = span ~layer:"topo" "Topo.Build.fat_tree" (fat_tree reconfig_k) in
  let o, run_s =
    span ~layer:"reconfig" "Reconfig.Runner.run_after_failure" (fun () ->
        timed (fun () -> reconfig_run ~obs seed g))
  in
  let t_outcome = reconfig_outcome o in
  let layers ~run_s =
    let messages = fcounter obs "reconfig.messages" in
    let sim_ms t = Netsim.Time.to_ms t in
    engine_layers obs ~run_s
    @ [
        ("topo.build_ms", build_ms (fat_tree reconfig_k));
        ("reconfig.messages", messages);
        ("reconfig.msg.invite", fcounter obs "reconfig.msg.invite");
        ("reconfig.msg.ack", fcounter obs "reconfig.msg.ack");
        ("reconfig.msg.report", fcounter obs "reconfig.msg.report");
        ("reconfig.msg.distribute", fcounter obs "reconfig.msg.distribute");
        ("reconfig.host_us_per_message", run_s *. 1e6 /. messages);
        ("reconfig.phase_propagation_ms", sim_ms o.phase_propagation);
        ("reconfig.phase_collection_ms", sim_ms o.phase_collection);
        ("reconfig.phase_distribution_ms", sim_ms o.phase_distribution);
      ]
  in
  { t_outcome; t_run_s = run_s; layers }

(* --- tps_fattree ---------------------------------------------------- *)

let tps_k = 16
let tps_rate = 16_000.0
let tps_duration = Netsim.Time.ms 100

(* A failed or denied setup misses any latency limit, so past 1% of
   them the p99 is reported as this stand-in for infinity. *)
let infinite_us = 1e12

(* Poisson base stream and diurnal ramp, without the heavy-tailed
   bursts: one burst can triple the p99 and add a tenth to the work of
   a run, so with bursts neither would repeat across seeds. *)
let tps_profile seed =
  An2.Workload.scale
    { An2.Workload.default_profile with duration = tps_duration; seed; burst_rate = 0.0 }
    ~rate:tps_rate

let tps_outcome (p : Faults.Tps.point) =
  let ns = string_of_int in
  let lost = p.failed + p.denied in
  {
    ops = p.arrivals;
    completed_pct = pct (fi (p.established + p.granted)) (fi p.arrivals);
    answer = (if lost * 100 > p.arrivals then infinite_us else p.p99_us);
    facts =
      [
        ("arrivals", ns p.arrivals);
        ("established", ns p.established);
        ("failed", ns p.failed);
        ("granted", ns p.granted);
        ("denied", ns p.denied);
        ("sim_events", ns p.sim_events);
        ("p99_us", fmt_float p.p99_us);
        ("diverged", string_of_bool p.diverged);
        ("drained", string_of_bool p.drained);
      ];
    violations =
      (if p.drained then [] else [ "tps: setups still in flight after the drain" ])
      @
      if p.established + p.failed + p.granted + p.denied <> p.arrivals then
        [ "tps: arrivals are not all accounted for" ]
      else [];
  }

let tps_run ?obs g profile =
  Faults.Tps.run_point ?obs ~graph:g Faults.Tps.improved_config profile

let tps_setup seed =
  let g = fat_tree tps_k () in
  let profile = tps_profile seed in
  fun () -> tps_outcome (tps_run g profile)

(* Bandwidth_central.request then release for every guaranteed arrival
   of the workload, in arrival order, on a fresh network. *)
let bwc_layers_sync g arrivals =
  let net = An2.Network.create ~frame:Faults.Tps.improved_config.frame g in
  let bwc = An2.Bandwidth_central.create net in
  let guaranteed = List.filter (fun a -> a.An2.Workload.cells > 0) arrivals in
  let n = max 1 (List.length guaranteed) in
  let w0 = alloc_words () in
  let (), s =
    timed (fun () ->
        let vcs =
          List.filter_map
            (fun a ->
              match
                An2.Bandwidth_central.request bwc ~src_host:a.An2.Workload.src_host
                  ~dst_host:a.dst_host ~cells:a.cells
              with
              | Ok vc -> Some vc
              | Error _ -> None)
            guaranteed
        in
        List.iter (An2.Bandwidth_central.release bwc) vcs)
  in
  [
    ("bwc.request_us", s *. 1e6 /. fi n);
    ("bwc.request_words", (alloc_words () -. w0) /. fi n);
  ]

let tps_traced seed obs =
  let g = span ~layer:"topo" "Topo.Build.fat_tree" (fat_tree tps_k) in
  let profile = tps_profile seed in
  let p, run_s =
    span ~layer:"faults" "Faults.Tps.run_point" (fun () ->
        timed (fun () -> tps_run ~obs g profile))
  in
  let layers ~run_s =
    let hosts = Topo.Graph.host_count g in
    let arrivals, expand_s =
      span ~layer:"core" "An2.Workload.expand" (fun () ->
          timed (fun () -> An2.Workload.expand profile ~hosts))
    in
    let pairs = List.map (fun a -> (a.An2.Workload.src_host, a.dst_host)) arrivals in
    let fresh = fat_tree tps_k () in
    engine_layers obs ~run_s @ lifecycle_layers obs @ bwc_layers obs
    @ [
        ("topo.build_ms", build_ms (fat_tree tps_k));
        ("bwc.admission_backlog_max", fi p.worst_admission_backlog);
        ("workload.expand_ms", expand_s *. 1e3);
      ]
    @ route_layers fresh pairs ~misses:(fcounter obs "lifecycle.route_cache_misses") ~run_s
    @ span ~layer:"core" "An2.Bandwidth_central.request/release" (fun () ->
          bwc_layers_sync fresh arrivals)
  in
  { t_outcome = tps_outcome p; t_run_s = run_s; layers }

(* --- soak_srclan ---------------------------------------------------- *)

(* [default_config] over 120 s (40 windows), without the workload's
   heavy-tailed bursts: with them, bursts made up nearly half of the
   arrivals and the work of a run varied by 8% between seeds. *)
let soak_config seed =
  let c = Faults.Soak.default_config in
  {
    c with
    seed;
    total = Netsim.Time.s 120;
    profile = { c.profile with An2.Workload.burst_rate = 0.0 };
  }

let soak_outcome (r : Faults.Soak.report) =
  let ns = string_of_int in
  {
    ops = r.arrivals;
    completed_pct = pct (fi (r.established + r.granted)) (fi r.arrivals);
    answer = 0.0;
    facts =
      [
        ("final_digest", Printf.sprintf "%08x" r.final_digest);
        ("windows", ns r.windows);
        ("arrivals", ns r.arrivals);
        ("established", ns r.established);
        ("failed", ns r.failed);
        ("granted", ns r.granted);
        ("denied", ns r.denied);
        ("reconfigs", ns r.reconfigs);
        ("reconfigs_converged", ns r.reconfigs_converged);
        ("audits_run", ns r.audits_run);
        ("audits_clean", ns r.audits_clean);
      ];
    violations =
      (match r.violation with
      | None -> []
      | Some (w, vs) ->
        [ Printf.sprintf "soak: audit failed at window %d: %s" w (String.concat "; " vs) ])
      @
      if r.audits_run = 0 || r.audits_clean <> r.audits_run then
        [ "soak: not every audit ran clean" ]
      else [];
  }

let soak_run ?obs ?dir seed g =
  Faults.Soak.run ?obs ?dir ~mk_graph:(fun () -> g) (soak_config seed)

let soak_setup seed =
  let g = Topo.Build.src_lan () in
  fun () -> soak_outcome (soak_run seed g)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let soak_traced ~scratch seed obs =
  let g = span ~layer:"topo" "Topo.Build.src_lan" (fun () -> Topo.Build.src_lan ()) in
  let r, run_s =
    span ~layer:"faults" "Faults.Soak.run" (fun () -> timed (fun () -> soak_run ~obs seed g))
  in
  let t_outcome = soak_outcome r in
  let layers ~run_s =
    let cks = r.checkpoints in
    let n_ck = fi (max 1 (List.length cks)) in
    let sum f = List.fold_left (fun acc c -> acc +. fi (f c)) 0.0 cks in
    let write_ns = sum (fun c -> c.Faults.Soak.ck_write_ns) in
    (* Checkpoints on disk, for the resume and bisect paths' costs. *)
    let dir = Filename.concat scratch "checkpoints" in
    remove_tree dir;
    Sys.mkdir dir 0o755;
    let on_disk = soak_run ~dir seed (Topo.Build.src_lan ()) in
    if (soak_outcome on_disk).facts <> t_outcome.facts then
      failwith "soak: the run with checkpoints on disk disagrees";
    let files =
      List.map (fun c -> Faults.Soak.ckpt_path dir c.Faults.Soak.ck_window) on_disk.checkpoints
      |> List.filter Sys.file_exists
    in
    let decode_us, _ =
      span ~layer:"netsim" "Netsim.Snapshot.read_file" (fun () ->
          per_call files (fun f -> ignore (Netsim.Snapshot.read_file f)))
    in
    let dirty = ref 0 in
    let audit_us, _ =
      span ~layer:"faults" "Faults.Soak.audit_file" (fun () ->
          per_call files (fun f ->
              if Faults.Soak.audit_file (soak_config seed) f <> [] then incr dirty))
    in
    remove_tree dir;
    if !dirty > 0 then failwith "soak: a stored checkpoint fails its audit";
    let c = soak_config seed in
    let window_profile =
      An2.Workload.scale
        {
          c.profile with
          duration = int_of_float (fi c.every *. c.load_fraction);
          seed;
        }
        ~rate:c.rate
    in
    let pairs =
      List.map
        (fun a -> (a.An2.Workload.src_host, a.dst_host))
        (An2.Workload.expand window_profile ~hosts:(Topo.Graph.host_count g))
    in
    engine_layers obs ~run_s @ lifecycle_layers obs @ bwc_layers obs
    @ route_layers (Topo.Build.src_lan ()) pairs
        ~misses:(fcounter obs "lifecycle.route_cache_misses") ~run_s
    @ [
        ("topo.build_ms", build_ms (fun () -> Topo.Build.src_lan ()));
        ("soak.reconfig_messages", fcounter obs "reconfig.messages");
        ("soak.ms_per_window", run_s *. 1e3 /. fi (max 1 r.windows));
        ("snapshot.encode_ms", write_ns *. 1e-6 /. n_ck);
        ("snapshot.bytes", sum (fun c -> c.Faults.Soak.ck_bytes) /. n_ck);
        ("snapshot.share_pct", pct (write_ns *. 1e-9) run_s);
        ("snapshot.decode_ms", decode_us *. 1e-3);
        ("soak.audit_ms", audit_us *. 1e-3);
        ("soak.audits_clean_pct", pct (fi r.audits_clean) (fi r.audits_run));
        ("soak.rerouted", fi r.rerouted);
        ("soak.dissolved", fi r.dissolved);
        ("soak.readmitted", fi r.readmitted);
        ("soak.gc_reclaimed", fi r.gc_reclaimed);
      ]
  in
  { t_outcome; t_run_s = run_s; layers }

(* Golden facts at [default_seed]. *)
let golden_voq =
  [
    ("offered", "719725");
    ("carried", "719738");
    ("mean_delay", "9.9236555524371362");
    ("p99_delay", "58");
    ("max_delay", "191");
    ("final_occupancy", "135");
  ]

let golden_reconfig =
  [
    ("messages", "40773");
    ("wire_transmissions", "40773");
    ("converged", "true");
    ("agreement", "true");
    ("topology_correct", "true");
    ("elapsed_ns", "101414000");
    ("phase_propagation_ns", "404000");
    ("phase_collection_ns", "606000");
    ("phase_distribution_ns", "404000");
  ]

let golden_tps =
  [
    ("arrivals", "1893");
    ("established", "919");
    ("failed", "0");
    ("granted", "974");
    ("denied", "0");
    ("sim_events", "29797");
    ("p99_us", "2862.2489999999998");
    ("diverged", "false");
    ("drained", "true");
  ]

let golden_soak =
  [
    ("final_digest", "38a86507");
    ("windows", "39");
    ("arrivals", "23820");
    ("established", "11910");
    ("failed", "86");
    ("granted", "11849");
    ("denied", "67");
    ("reconfigs", "64");
    ("reconfigs_converged", "64");
    ("audits_run", "10");
    ("audits_clean", "10");
  ]


let workloads ~scratch =
  [
    {
      name = "voq_uniform";
      answer_metric = Some "cell_delay_p99_slots";
      golden = golden_voq;
      setup = voq_setup;
      traced = voq_traced;
    };
    {
      name = "reconfig_fattree";
      answer_metric = Some "converge_sim_ms";
      golden = golden_reconfig;
      setup = reconfig_setup;
      traced = reconfig_traced;
    };
    {
      name = "tps_fattree";
      answer_metric = Some "setup_p99_sim_us";
      golden = golden_tps;
      setup = tps_setup;
      traced = tps_traced;
    };
    {
      name = "soak_srclan";
      answer_metric = None;
      golden = golden_soak;
      setup = soak_setup;
      traced = soak_traced ~scratch;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metric catalogue: name, unit, direction. BENCHMARK.json lists the
   same names. *)

let answer_metrics =
  [
    ("cell_delay_p99_slots", "slots");
    ("converge_sim_ms", "sim_ms");
    ("setup_p99_sim_us", "sim_us");
  ]

let per_layer =
  let c n = (n, "count", "lower") in
  [
    c "netsim.events";
    ("netsim.host_ns_per_event", "ns", "lower");
    ("netsim.cancelled_pct", "%", "lower");
    c "netsim.queue_depth_max";
    ("topo.build_ms", "ms", "lower");
    ("topo.route_us", "us", "lower");
    ("topo.route_words", "words", "lower");
    ("topo.route_share_pct", "%", "lower");
    ("fabric.traffic_ns_per_slot", "ns", "lower");
    ("fabric.step_ns_per_slot", "ns", "lower");
    ("fabric.record_ns_per_slot", "ns", "lower");
    ("fabric.words_per_cell", "words", "lower");
    ("fabric.occupancy_mean", "cells", "lower");
    c "matching.iterations_mean";
    ("matching.match_size_mean", "count", "higher");
    c "reconfig.messages";
    c "reconfig.msg.invite";
    c "reconfig.msg.ack";
    c "reconfig.msg.report";
    c "reconfig.msg.distribute";
    ("reconfig.words_per_message", "words", "lower");
    ("reconfig.host_us_per_message", "us", "lower");
    ("reconfig.phase_propagation_ms", "sim_ms", "lower");
    ("reconfig.phase_collection_ms", "sim_ms", "lower");
    ("reconfig.phase_distribution_ms", "sim_ms", "lower");
    c "soak.reconfig_messages";
    c "lifecycle.attempts";
    ("lifecycle.retry_pct", "%", "lower");
    c "lifecycle.timeouts";
    c "lifecycle.crankbacks";
    c "lifecycle.failed";
    ("lifecycle.route_cache_hit_pct", "%", "higher");
    c "lifecycle.signaling_backlog_p99";
    c "bwc.admission_backlog_max";
    ("bwc.cross_shard_pct", "%", "lower");
    c "bwc.escrow_conflicts";
    c "bwc.batch_flushes";
    ("bwc.denied_pct", "%", "lower");
    ("bwc.request_us", "us", "lower");
    ("bwc.request_words", "words", "lower");
    ("workload.expand_ms", "ms", "lower");
    ("soak.ms_per_window", "ms", "lower");
    ("snapshot.encode_ms", "ms", "lower");
    ("snapshot.bytes", "bytes", "lower");
    ("snapshot.share_pct", "%", "lower");
    ("snapshot.decode_ms", "ms", "lower");
    ("soak.audit_ms", "ms", "lower");
    ("soak.audits_clean_pct", "%", "higher");
    ("soak.rerouted", "count", "higher");
    ("soak.dissolved", "count", "lower");
    ("soak.readmitted", "count", "higher");
    c "soak.gc_reclaimed";
    c "gc.minor_collections";
    c "gc.major_collections";
    ("gc.promoted_pct", "%", "lower");
    ("obs.trace_overhead_pct", "%", "lower");
  ]

(* ------------------------------------------------------------------ *)
(* Main: measure one workload and report *)

type measured = { m_name : string; m_unit : string; better : string; samples : float list }

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_str s = "\"" ^ Obs.Metrics.json_escape s ^ "\""

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections, s.Gc.minor_words, s.Gc.promoted_words)

let gc_layers (mi0, ma0, mw0, pw0) (mi1, ma1, mw1, pw1) =
  [
    ("gc.minor_collections", fi (mi1 - mi0));
    ("gc.major_collections", fi (ma1 - ma0));
    ("gc.promoted_pct", pct (pw1 -. pw0) (mw1 -. mw0));
  ]

(* The first run of the workload in this process, on a compacted heap.
   The deterministic quantities come from it: with the same history
   before it, every process allocates exactly the same words. Later
   runs in one process can allocate a few hundred thousand words more
   or less for identical simulated output (seen with OCaml 5.1 even for
   a plain Hashtbl loop), so their allocation is not compared. *)
type first = {
  outcome : outcome;
  words_per_op : float;
  peak_heap_mb : float;
  gc : (string * float) list;
  setup_s0 : float;
}

let first_run w seed =
  Gc.compact ();
  let run, setup_s0 = timed (fun () -> w.setup seed) in
  let g0 = gc_snapshot () in
  let w0 = alloc_words () in
  let outcome = run () in
  let words = alloc_words () -. w0 in
  let g1 = gc_snapshot () in
  {
    outcome;
    words_per_op = words /. fi (max 1 outcome.ops);
    peak_heap_mb = fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) *. 1e-6;
    gc = gc_layers g0 g1;
    setup_s0;
  }

(* Host speed on a shared machine drifts: on a 2-vCPU virtual machine
   whose cores other tenants share, even a plain integer loop ran at
   half speed for seconds at a time, and the same run took 0.16 s in one
   minute and 0.27 s in another. So each timed run is bracketed by a fixed reference kernel
   that no code under test touches, and run times are reported at the
   reference's nominal speed: measured / reference x [reference_nominal_s].
   The kernel mixes what the simulators do: small-block allocation and
   sorting, hashing, and dependent loads from a 16 MiB table held off
   the OCaml heap, so it adds no marking work to the runs it brackets. *)
let reference_nominal_s = 0.03

let chase_table =
  lazy
    (let n = 1 lsl 22 in
     let t = Bigarray.(Array1.create int32 c_layout n) in
     for i = 0 to n - 1 do
       t.{i} <- Int32.of_int i
     done;
     (* Sattolo's shuffle: one cycle through every slot *)
     let x = ref 88172645 in
     for i = n - 1 downto 1 do
       x := ((!x * 1103515245) + 12345) land 0x3fffffff;
       let j = !x mod i in
       let v = t.{i} in
       t.{i} <- t.{j};
       t.{j} <- v
     done;
     t)

let reference_kernel () =
  let t = Lazy.force chase_table in
  let p = ref 0 in
  for _ = 1 to 45_000 do
    p := Int32.to_int t.{!p}
  done;
  let h = Hashtbl.create 1024 in
  let x = ref 12345 in
  for i = 0 to 45_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0xffff) i
  done;
  let l = List.sort compare (List.init 45_000 (fun i -> (i * 7919 land 0xffff, i))) in
  ignore (Sys.opaque_identity (!p + Hashtbl.length h + List.length l))

(* [f ()] timed, with its time scaled to the reference speed measured
   just before and just after it. Returns (result, scaled s, wall s,
   reference s). *)
let at_reference_speed f =
  Gc.full_major ();
  let (), r0 = timed reference_kernel in
  Gc.full_major ();
  let x, s = timed f in
  let (), r1 = timed reference_kernel in
  let r = (r0 +. r1) /. 2.0 in
  (x, s /. r *. reference_nominal_s, s, r)

type sample = { scaled : float; wall : float; reference : float }

(* One timed run: set-up untimed, then the simulated span. *)
let timed_run w seed =
  let run = w.setup seed in
  let o, scaled, wall, reference = at_reference_speed run in
  (o, { scaled; wall; reference })

(* Set-up calls are short; time them in batches and keep the mean per
   set-up of each batch. *)
let setup_samples w seed ~budget_s ~estimate_s =
  let batches = 21 in
  let per_batch = budget_s /. fi batches in
  let reps = max 1 (int_of_float (per_batch /. Float.max estimate_s 1e-7)) in
  List.init batches (fun _ ->
      let (), scaled, wall, reference =
        at_reference_speed (fun () ->
            for _ = 1 to reps do
              let (_ : unit -> outcome) = Sys.opaque_identity (w.setup seed) in
              ()
            done)
      in
      { scaled = scaled /. fi reps; wall = wall /. fi reps; reference })

let nproc () = Domain.recommended_domain_count ()

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let parse_args () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 in
  let trace = ref 0 and out = ref (Filename.concat "perfbench" "out") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--out", Arg.Set_string out, "DIR output directory (default perfbench/out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  (!workload, !seed, fi (max 1 !seconds), !trace, !out)

let () =
  let name, seed, budget, trace, out = parse_args () in
  mkdir_p out;
  let scratch = Filename.concat out (Printf.sprintf "scratch-%s-%d" name seed) in
  let w =
    match List.find_opt (fun w -> w.name = name) (workloads ~scratch) with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
  in
  mkdir_p scratch;
  let t_start = clock_ns () in
  let failures = ref [] and attempted = ref 0 and failed = ref 0 in
  let judge msgs =
    incr attempted;
    if msgs <> [] then begin
      incr failed;
      List.iter (fun m -> if not (List.mem m !failures) then failures := m :: !failures) msgs
    end
  in
  let first = first_run w seed in
  ignore (Lazy.force chase_table);
  let o = first.outcome in
  judge (o.violations @ check_golden ~seed w.golden o.facts);
  (* Every later run must repeat the first one's simulated outputs. *)
  let same_as_first what (o' : outcome) =
    o'.violations @ if o'.facts = o.facts then [] else [ what ^ " differ from the first run's" ]
  in
  let untraced_runs ~until_s ~min_runs =
    let samples = ref [] in
    while List.length !samples < min_runs || seconds_since t_start < until_s do
      let o', sample = timed_run w seed in
      judge (same_as_first "simulated outputs" o');
      samples := sample :: !samples
    done;
    List.rev !samples
  in
  let scaled = List.map (fun x -> x.scaled) in
  (* Wall and reference times go to the record only, beside the scaled
     metric they produced. *)
  let raw name samples =
    [
      (name ^ ".wall", "s", "lower", List.map (fun x -> x.wall) samples);
      (name ^ ".reference", "s", "lower", List.map (fun x -> x.reference) samples);
    ]
  in
  let metrics, record_only, extra =
    if trace = 0 then begin
      let setup =
        setup_samples w seed ~budget_s:(Float.min 2.0 (0.1 *. budget))
          ~estimate_s:first.setup_s0
      in
      let runs = untraced_runs ~until_s:budget ~min_runs:5 in
      let answers =
        List.map
          (fun (n, u) ->
            (* another workload's answer: a fixed placeholder *)
            let v = if w.answer_metric = Some n then o.answer else 1.0 in
            (n, u, "lower", [ v ]))
          answer_metrics
      in
      ( [
          ("run_s", "s", "lower", scaled runs);
          ("setup_s", "s", "lower", scaled setup);
          ("peak_heap_mb", "MB", "lower", [ first.peak_heap_mb ]);
          ("alloc_words_per_op", "words", "lower", [ first.words_per_op ]);
          ("completed_pct", "%", "higher", [ o.completed_pct ]);
        ]
        @ answers,
        raw "run_s" runs @ raw "setup_s" setup,
        [] )
    end
    else begin
      let untraced = untraced_runs ~until_s:(budget /. 2.0) ~min_runs:3 in
      let run_s = median (scaled untraced) in
      (* The layer probes time single calls in wall seconds, so the
         shares and per-event costs divide by wall seconds too. *)
      let run_wall_s = median (List.map (fun x -> x.wall) untraced) in
      Spans.on := true;
      let traced = ref [] and layers = ref [] in
      while List.length !traced < 3 || seconds_since t_start < budget do
        incr Spans.run_id;
        let obs = Obs.Sink.create () in
        let t, _, _, reference =
          at_reference_speed (fun () -> span ~layer:"bench" w.name (fun () -> w.traced seed obs))
        in
        judge (same_as_first "traced simulated outputs" t.t_outcome);
        traced :=
          { scaled = t.t_run_s /. reference *. reference_nominal_s; wall = t.t_run_s; reference }
          :: !traced;
        if !layers = [] then
          layers := span ~layer:"bench" "layer probes" (fun () -> t.layers ~run_s:run_wall_s)
      done;
      Spans.on := false;
      let traced = List.rev !traced in
      let traced_s = median (scaled traced) in
      let words_of wname = if w.name = wname then first.words_per_op else 0.0 in
      let measured =
        !layers @ first.gc
        @ [
            ("obs.trace_overhead_pct", pct (traced_s -. run_s) run_s);
            ("fabric.words_per_cell", words_of "voq_uniform");
            ("reconfig.words_per_message", words_of "reconfig_fattree");
          ]
      in
      let trace_path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" w.name seed) in
      Spans.write_chrome trace_path;
      let self =
        List.map
          (fun (layer, ns) -> Printf.sprintf "%s: %s" (json_str layer) (json_num (fi ns *. 1e-6)))
          (Spans.self_ns_by_layer ())
      in
      ( List.map
          (fun (n, u, b) -> (n, u, b, [ Option.value ~default:0.0 (List.assoc_opt n measured) ]))
          per_layer,
        [ ("untraced_run_s", "s", "lower", scaled untraced); ("traced_run_s", "s", "lower", scaled traced) ]
        @ raw "untraced_run_s" untraced @ raw "traced_run_s" traced,
        [
          ("trace_file", json_str trace_path);
          ("span_self_ms", "{" ^ String.concat ", " self ^ "}");
        ] )
    end
  in
  remove_tree scratch;
  (* The deterministic quantities must also repeat across processes:
     keep them per (workload, seed, binary) and compare with any earlier
     process's. *)
  let det =
    String.concat "\n"
      (List.map (fun (k, v) -> k ^ "=" ^ v) o.facts
      @ [
          "alloc_words_per_op=" ^ fmt_float first.words_per_op;
          "peak_heap_mb=" ^ fmt_float first.peak_heap_mb;
          "completed_pct=" ^ fmt_float o.completed_pct;
        ])
    ^ "\n"
  in
  let det_dir = Filename.concat out "deterministic" in
  mkdir_p det_dir;
  let det_path =
    Filename.concat det_dir
      (Printf.sprintf "%s-%d-%s.txt" w.name seed
         (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))
  in
  if not (Sys.file_exists det_path) then write_file det_path det
  else if read_file det_path <> det then
    judge [ "deterministic quantities differ from an earlier process's: " ^ det_path ];
  let to_measured =
    List.map (fun (m_name, m_unit, better, samples) -> { m_name; m_unit; better; samples })
  in
  let metrics = to_measured metrics and record_only = to_measured record_only in
  let failures = List.rev !failures in
  let correct = failures = [] in
  Printf.printf "%s seed=%d trace=%d runs=%d wall=%.1fs nproc=%d ocaml=%s\n" w.name seed trace
    !attempted (seconds_since t_start) (nproc ()) Sys.ocaml_version;
  List.iter
    (fun m ->
      let q1, med, q3 = quartiles m.samples in
      Printf.printf "  %-32s %14.6g %-6s n=%-3d q1=%.6g q3=%.6g\n" m.m_name med m.m_unit
        (List.length m.samples) q1 q3)
    (metrics @ record_only);
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) failures;
  let metric_json m =
    let q1, med, q3 = quartiles m.samples in
    Printf.sprintf
      "%s: {\"unit\": %s, \"better\": %s, \"samples\": %d, \"median\": %s, \"q1\": %s, \"q3\": %s}"
      (json_str m.m_name) (json_str m.m_unit) (json_str m.better) (List.length m.samples)
      (json_num med) (json_num q1) (json_num q3)
  in
  let record =
    [
      Printf.sprintf "\"host\": {\"nproc\": %d, \"ocaml\": %s, \"domains\": 1}" (nproc ())
        (json_str Sys.ocaml_version);
      Printf.sprintf "\"workload\": %s, \"seed\": %d, \"trace\": %d" (json_str w.name) seed trace;
      Printf.sprintf "\"attempted\": %d, \"failed\": %d" !attempted !failed;
      Printf.sprintf "\"facts\": {%s}"
        (String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ json_str v) o.facts));
      Printf.sprintf "\"failures\": [%s]" (String.concat ", " (List.map json_str failures));
      "\"metrics\": {\n    " ^ String.concat ",\n    " (List.map metric_json metrics) ^ "}";
      "\"timings\": {\n    " ^ String.concat ",\n    " (List.map metric_json record_only) ^ "}";
    ]
    @ List.map (fun (k, v) -> json_str k ^ ": " ^ v) extra
  in
  write_file
    (Filename.concat out (Printf.sprintf "%s-%d-trace%d.json" w.name seed trace))
    ("{\n  " ^ String.concat ",\n  " record ^ "\n}\n");
  let value m =
    let v = median m.samples in
    if Float.is_finite v then v else 0.0
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str m.m_name)
              (json_num (value m)) (json_str m.m_unit))
          metrics));
  exit (if correct then 0 else 1)
