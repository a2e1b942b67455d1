(* Tests for the topology library: graphs, builders, spanning trees,
   shortest paths, and up*/down* routing. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Generator: a connected random switch graph. *)
let random_graph_gen =
  QCheck.make
    ~print:(fun (seed, n, extra) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n extra)
    QCheck.Gen.(
      triple (int_range 0 10_000) (int_range 2 24) (int_range 0 20))

let build_random (seed, n, extra) =
  let rng = Netsim.Rng.create seed in
  Topo.Build.random_connected ~rng ~switches:n ~extra_links:extra

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = Topo.Graph.create ~ports_per_switch:4 ~ports_per_host:2 () in
  Topo.Graph.add_switches g 2;
  let h = Topo.Graph.add_host g in
  let l1 = Topo.Graph.connect g (Switch 0) (Switch 1) in
  let l2 = Topo.Graph.connect g (Host h) (Switch 0) in
  Alcotest.(check int) "switches" 2 (Topo.Graph.switch_count g);
  Alcotest.(check int) "hosts" 1 (Topo.Graph.host_count g);
  Alcotest.(check int) "links" 2 (Topo.Graph.link_count g);
  Alcotest.(check (list (pair int int))) "neighbors" [ (1, l1) ]
    (Topo.Graph.switch_neighbors g 0);
  Alcotest.(check (list (pair int int))) "host links" [ (0, l2) ]
    (Topo.Graph.host_links g h);
  Alcotest.(check (list (pair int int))) "hosts of switch" [ (h, l2) ]
    (Topo.Graph.hosts_of_switch g 0)

let test_graph_ports_exhaust () =
  let g = Topo.Graph.create ~ports_per_switch:2 () in
  Topo.Graph.add_switches g 4;
  ignore (Topo.Graph.connect g (Switch 0) (Switch 1));
  ignore (Topo.Graph.connect g (Switch 0) (Switch 2));
  Alcotest.(check bool) "third connect fails" true
    (try
       ignore (Topo.Graph.connect g (Switch 0) (Switch 3));
       false
     with Failure _ -> true)

let test_graph_distinct_ports () =
  let g = Topo.Graph.create () in
  Topo.Graph.add_switches g 2;
  let l1 = Topo.Graph.link g (Topo.Graph.connect g (Switch 0) (Switch 1)) in
  let l2 = Topo.Graph.link g (Topo.Graph.connect g (Switch 0) (Switch 1)) in
  Alcotest.(check bool) "different ports" true
    (l1.Topo.Graph.a.port <> l2.Topo.Graph.a.port);
  Alcotest.(check bool) "different ports b" true
    (l1.Topo.Graph.b.port <> l2.Topo.Graph.b.port)

let test_graph_fail_restore () =
  let g = Topo.Build.linear 3 in
  let lid = 0 in
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Topo.Graph.fail_link g lid;
  Alcotest.(check bool) "disconnected" false (Topo.Graph.switch_connected g);
  Alcotest.(check int) "neighbors gone" 0
    (List.length (Topo.Graph.switch_neighbors g 0));
  Topo.Graph.restore_link g lid;
  Alcotest.(check bool) "reconnected" true (Topo.Graph.switch_connected g)

let test_graph_fail_switch () =
  let g = Topo.Build.star 4 in
  Topo.Graph.fail_switch g 0;
  Alcotest.(check int) "hub isolated" 1 (Topo.Graph.reachable_switches g 0);
  Alcotest.(check int) "leaf isolated" 1 (Topo.Graph.reachable_switches g 1);
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "restored" true (Topo.Graph.switch_connected g)

let test_overlapping_failures_compose () =
  (* The regression of record: an explicitly failed link must survive a
     crash-and-restart of its endpoint switch. *)
  let g = Topo.Build.linear 3 in
  let l01 = 0 and l12 = 1 in
  Topo.Graph.fail_link g l01;
  Topo.Graph.fail_switch g 1;
  Topo.Graph.restore_switch g 1;
  Alcotest.(check bool) "explicitly failed link stays dead" false
    (Topo.Graph.link_working g l01);
  Alcotest.(check bool) "crash-only link revived" true
    (Topo.Graph.link_working g l12);
  Topo.Graph.restore_link g l01;
  Alcotest.(check bool) "explicit restore completes the repair" true
    (Topo.Graph.link_working g l01)

let test_overlapping_switch_crashes () =
  (* Both endpoints of a link crash; the link works again only after
     both restart. *)
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_switch g 1;
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "other endpoint still down" false
    (Topo.Graph.link_working g 0);
  Topo.Graph.restore_switch g 1;
  Alcotest.(check bool) "both restored" true (Topo.Graph.link_working g 0)

let test_restore_link_under_crash () =
  (* restore_link clears only the explicit cause; a crashed endpoint
     keeps the link down until the switch restarts. *)
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_link g 0;
  Topo.Graph.restore_link g 0;
  Alcotest.(check bool) "crash cause remains" false (Topo.Graph.link_working g 0);
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "now working" true (Topo.Graph.link_working g 0)

let test_fail_restore_idempotent () =
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_link g 0;
  Topo.Graph.fail_link g 0;
  Topo.Graph.restore_link g 0;
  Alcotest.(check bool) "double fail, one restore" true
    (Topo.Graph.link_working g 0);
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_switch g 0;
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "double crash, one restart" true
    (Topo.Graph.link_working g 0)

let test_failures_compose_random =
  (* Model check: apply a random fail/restore word to the real graph
     and to a per-link cause-set model; working sets must agree. *)
  qtest ~count:200 "cause-tracked fail/restore matches the set model"
    (QCheck.make
       ~print:(fun (seed, k) -> Printf.sprintf "seed=%d ops=%d" seed k)
       QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 60)))
    (fun (seed, k) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.src_lan () in
      let links = Topo.Graph.links g in
      let n_links = List.length links in
      let n_sw = Topo.Graph.switch_count g in
      (* model: per link, the set of active causes *)
      let model = Array.make n_links [] in
      let touching s =
        List.filter_map
          (fun (l : Topo.Graph.link) ->
            if l.a.node = Topo.Graph.Switch s || l.b.node = Topo.Graph.Switch s
            then Some l.link_id
            else None)
          links
      in
      let add lid c = if not (List.mem c model.(lid)) then model.(lid) <- c :: model.(lid) in
      let remove lid c = model.(lid) <- List.filter (( <> ) c) model.(lid) in
      let ok = ref true in
      for _ = 1 to k do
        (match Netsim.Rng.int rng 4 with
         | 0 ->
           let l = Netsim.Rng.int rng n_links in
           Topo.Graph.fail_link g l;
           add l `Explicit
         | 1 ->
           let l = Netsim.Rng.int rng n_links in
           Topo.Graph.restore_link g l;
           remove l `Explicit
         | 2 ->
           let s = Netsim.Rng.int rng n_sw in
           Topo.Graph.fail_switch g s;
           List.iter (fun l -> add l (`Crash s)) (touching s)
         | _ ->
           let s = Netsim.Rng.int rng n_sw in
           Topo.Graph.restore_switch g s;
           List.iter (fun l -> remove l (`Crash s)) (touching s));
        for l = 0 to n_links - 1 do
          if Topo.Graph.link_working g l <> (model.(l) = []) then ok := false
        done
      done;
      !ok)

let test_to_dot () =
  let g = Topo.Build.linear 3 in
  ignore (Topo.Graph.connect g (Host (Topo.Graph.add_host g)) (Switch 0));
  Topo.Graph.fail_link g 1;
  let dot = Topo.Graph.to_dot g in
  Alcotest.(check bool) "has graph header" true
    (String.length dot > 0 && String.sub dot 0 9 = "graph an2");
  let count needle =
    let n = ref 0 and i = ref 0 in
    let len = String.length needle in
    while !i + len <= String.length dot do
      if String.sub dot !i len = needle then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "3 switch nodes" 3 (count "shape=box");
  Alcotest.(check int) "1 host node" 1 (count "shape=ellipse");
  Alcotest.(check int) "1 dead link dashed" 1 (count "style=dashed")

let test_other_end () =
  let g = Topo.Build.linear 2 in
  let l = Topo.Graph.link g 0 in
  let e = Topo.Graph.other_end l (Topo.Graph.Switch 0) in
  Alcotest.(check bool) "other side" true (e.Topo.Graph.node = Topo.Graph.Switch 1)

(* ------------------------------------------------------------------ *)
(* Builders *)

let link_count_works g =
  List.length
    (List.filter (fun l -> l.Topo.Graph.state = Topo.Graph.Working) (Topo.Graph.links g))

let test_builders_shapes () =
  Alcotest.(check int) "linear links" 5 (link_count_works (Topo.Build.linear 6));
  Alcotest.(check int) "ring links" 6 (link_count_works (Topo.Build.ring 6));
  Alcotest.(check int) "star links" 6 (link_count_works (Topo.Build.star 6));
  let t = Topo.Build.tree ~arity:2 ~depth:3 in
  Alcotest.(check int) "tree switches" 15 (Topo.Graph.switch_count t);
  Alcotest.(check int) "tree links" 14 (link_count_works t);
  let gr = Topo.Build.grid 3 4 in
  Alcotest.(check int) "grid switches" 12 (Topo.Graph.switch_count gr);
  Alcotest.(check int) "grid links" ((2 * 4) + (3 * 3)) (link_count_works gr);
  let to_ = Topo.Build.torus 3 3 in
  Alcotest.(check int) "torus links" 18 (link_count_works to_)

let test_builders_connected () =
  List.iter
    (fun g -> Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g))
    [
      Topo.Build.linear 5;
      Topo.Build.ring 5;
      Topo.Build.star 5;
      Topo.Build.tree ~arity:3 ~depth:2;
      Topo.Build.grid 4 4;
      Topo.Build.torus 3 4;
      Topo.Build.src_lan ();
    ]

let test_builder_validation () =
  Alcotest.(check bool) "ring 2 rejected" true
    (try ignore (Topo.Build.ring 2); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "torus 2 rejected" true
    (try ignore (Topo.Build.torus 2 5); false with Invalid_argument _ -> true)

let test_hypercube () =
  let g = Topo.Build.hypercube 4 in
  Alcotest.(check int) "switches" 16 (Topo.Graph.switch_count g);
  Alcotest.(check int) "links" (16 * 4 / 2) (link_count_works g);
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Alcotest.(check int) "diameter = dimension" 4 (Topo.Paths.diameter g);
  (* every switch has degree d *)
  for s = 0 to 15 do
    Alcotest.(check int) "degree" 4 (List.length (Topo.Graph.switch_neighbors g s))
  done

let test_leaf_spine () =
  let g = Topo.Build.leaf_spine ~spines:2 ~leaves:6 in
  Alcotest.(check int) "switches" 8 (Topo.Graph.switch_count g);
  Alcotest.(check int) "links" 12 (link_count_works g);
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Alcotest.(check int) "leaf-leaf distance" 2 (Topo.Paths.distances g ~src:2).(3);
  (* losing one spine keeps it connected *)
  Topo.Graph.fail_switch g 0;
  Alcotest.(check int) "survives spine loss" 7 (Topo.Graph.reachable_switches g 1)

let test_random_connected =
  qtest "random_connected is connected" random_graph_gen (fun params ->
      Topo.Graph.switch_connected (build_random params))

let test_src_lan_shape () =
  let g = Topo.Build.src_lan () in
  Alcotest.(check int) "switches" 10 (Topo.Graph.switch_count g);
  Alcotest.(check int) "hosts" 24 (Topo.Graph.host_count g);
  (* Every host is dual-homed as in Figure 1. *)
  for h = 0 to 23 do
    Alcotest.(check int) "dual homed" 2 (List.length (Topo.Graph.host_links g h))
  done;
  (* Killing any single switch leaves the rest connected. *)
  for s = 0 to 9 do
    Topo.Graph.fail_switch g s;
    let expected = 9 in
    let other = if s = 0 then 1 else 0 in
    Alcotest.(check int) "survives switch loss" expected
      (Topo.Graph.reachable_switches g other);
    Topo.Graph.restore_switch g s
  done

(* ------------------------------------------------------------------ *)
(* Spanning *)

let test_spanning_linear () =
  let g = Topo.Build.linear 5 in
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check int) "height" 4 (Topo.Spanning.height t);
  Alcotest.(check bool) "covers" true (Topo.Spanning.covers_all g t);
  Alcotest.(check (list int)) "children of 0" [ 1 ] (Topo.Spanning.children t 0);
  Alcotest.(check int) "parent of 3" 2 t.Topo.Spanning.parent.(3)

let test_spanning_star_height () =
  let g = Topo.Build.star 6 in
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check int) "height 1" 1 (Topo.Spanning.height t);
  Alcotest.(check int) "six children" 6 (List.length (Topo.Spanning.children t 0))

let test_spanning_properties =
  qtest "bfs tree sound" random_graph_gen (fun params ->
      let g = build_random params in
      let t = Topo.Spanning.bfs g ~root:0 in
      Topo.Spanning.covers_all g t
      && Array.for_all Fun.id
           (Array.mapi
              (fun s p ->
                if s = t.Topo.Spanning.root then p = s
                else
                  (* parent adjacency + depth increments *)
                  List.mem_assoc p (Topo.Graph.switch_neighbors g s)
                  && t.Topo.Spanning.depth.(s) = t.Topo.Spanning.depth.(p) + 1)
              t.Topo.Spanning.parent))

let test_spanning_partial () =
  let g = Topo.Build.linear 4 in
  Topo.Graph.fail_link g 1;
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check bool) "not covering" false (Topo.Spanning.covers_all g t);
  Alcotest.(check int) "unreachable depth" (-1) t.Topo.Spanning.depth.(3)

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_paths_ring () =
  let g = Topo.Build.ring 6 in
  let d = Topo.Paths.distances g ~src:0 in
  Alcotest.(check (array int)) "ring distances" [| 0; 1; 2; 3; 2; 1 |] d;
  Alcotest.(check int) "diameter" 3 (Topo.Paths.diameter g)

let test_paths_route () =
  let g = Topo.Build.grid 3 3 in
  match Topo.Paths.route g ~src:0 ~dst:8 with
  | None -> Alcotest.fail "route must exist"
  | Some path ->
    Alcotest.(check int) "length" 5 (List.length path);
    Alcotest.(check int) "starts" 0 (List.hd path);
    Alcotest.(check int) "ends" 8 (List.nth path 4)

let test_paths_self () =
  let g = Topo.Build.ring 4 in
  Alcotest.(check (option (list int))) "self route" (Some [ 2 ])
    (Topo.Paths.route g ~src:2 ~dst:2)

let test_paths_unreachable () =
  let g = Topo.Build.linear 4 in
  Topo.Graph.fail_link g 1;
  Alcotest.(check (option (list int))) "no route" None
    (Topo.Paths.route g ~src:0 ~dst:3)

let test_route_is_path =
  qtest "routes are adjacent chains" random_graph_gen (fun params ->
      let g = build_random params in
      let n = Topo.Graph.switch_count g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        match Topo.Paths.route g ~src:0 ~dst with
        | None -> ok := false
        | Some path ->
          let rec check = function
            | a :: (b :: _ as rest) ->
              if not (List.mem_assoc b (Topo.Graph.switch_neighbors g a)) then
                ok := false
              else check rest
            | _ -> ()
          in
          check path;
          if List.hd path <> 0 then ok := false;
          if List.nth path (List.length path - 1) <> dst then ok := false;
          if List.length path - 1 <> (Topo.Paths.distances g ~src:0).(dst) then
            ok := false
      done;
      !ok)

let test_mean_distance_linear () =
  let g = Topo.Build.linear 3 in
  (* pairs: 0-1:1 0-2:2 1-2:1 both directions -> mean 4/3 *)
  Alcotest.(check (float 1e-9)) "mean" (4.0 /. 3.0) (Topo.Paths.mean_distance g)

(* ------------------------------------------------------------------ *)
(* Updown *)

let orient g = Topo.Updown.orient g (Topo.Spanning.bfs g ~root:0)

let test_updown_orientation () =
  let g = Topo.Build.linear 3 in
  let o = orient g in
  Alcotest.(check bool) "toward root is up" true (Topo.Updown.goes_up o ~from:1 ~to_:0);
  Alcotest.(check bool) "away from root is down" false
    (Topo.Updown.goes_up o ~from:0 ~to_:1)

let test_updown_tie_by_id () =
  (* Ring of 5 rooted at 0 has depths 0,1,2,2,1: the 2-3 link joins
     equal depths, so up points at the higher-numbered switch. *)
  let g = Topo.Build.ring 5 in
  let o = orient g in
  Alcotest.(check bool) "2->3 up (tie, higher id)" true
    (Topo.Updown.goes_up o ~from:2 ~to_:3);
  Alcotest.(check bool) "3->2 down" false (Topo.Updown.goes_up o ~from:3 ~to_:2)

let test_updown_antisymmetry =
  qtest "goes_up antisymmetric" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let ok = ref true in
      for s = 0 to Topo.Graph.switch_count g - 1 do
        List.iter
          (fun (s', _) ->
            if Topo.Updown.goes_up o ~from:s ~to_:s' = Topo.Updown.goes_up o ~from:s' ~to_:s
            then ok := false)
          (Topo.Graph.switch_neighbors g s)
      done;
      !ok)

let test_legal_path () =
  let g = Topo.Build.ring 6 in
  let o = orient g in
  (* 3 is the valley of the 6-ring rooted at 0: depth 0,1,2,3,2,1. *)
  Alcotest.(check bool) "down-up forbidden" false (Topo.Updown.legal_path o [ 2; 3; 4 ]);
  Alcotest.(check bool) "pure up ok" true (Topo.Updown.legal_path o [ 3; 2; 1; 0 ]);
  Alcotest.(check bool) "up-down ok" true (Topo.Updown.legal_path o [ 1; 0; 5 ]);
  Alcotest.(check bool) "trivial ok" true (Topo.Updown.legal_path o [ 4 ])

let test_updown_routes_legal =
  qtest "updown routes are legal and reach" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let n = Topo.Graph.switch_count g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        match Topo.Updown.route g o ~src:(n - 1) ~dst with
        | None -> ok := false  (* connected graph: must reach *)
        | Some path ->
          if not (Topo.Updown.legal_path o path) then ok := false;
          if List.hd path <> n - 1 then ok := false;
          if List.nth path (List.length path - 1) <> dst then ok := false
      done;
      !ok)

let test_updown_distance_dominates =
  qtest "updown >= unrestricted distance" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let free = Topo.Paths.distances g ~src:0 in
      let restricted = Topo.Updown.distances g o ~src:0 in
      Array.for_all Fun.id (Array.mapi (fun i r -> r >= free.(i)) restricted))

let test_updown_ring_detour () =
  (* Crossing the valley must detour the other way around. *)
  let g = Topo.Build.ring 6 in
  let o = orient g in
  let d = Topo.Updown.distances g o ~src:2 in
  Alcotest.(check int) "2 to 4 detours" 4 d.(4);
  Alcotest.(check int) "unrestricted is 2" 2 (Topo.Paths.distances g ~src:2).(4)

let test_stretch_tree_is_one () =
  let g = Topo.Build.tree ~arity:2 ~depth:3 in
  let o = orient g in
  Alcotest.(check (float 1e-9)) "tree stretch 1" 1.0 (Topo.Updown.mean_stretch g o)

let test_stretch_ring_above_one () =
  let g = Topo.Build.ring 8 in
  let o = orient g in
  Alcotest.(check bool) "ring stretch > 1" true (Topo.Updown.mean_stretch g o > 1.0)

let test_dependency_acyclic_updown =
  qtest "updown dependencies acyclic" random_graph_gen (fun params ->
      let g = build_random params in
      Topo.Updown.dependency_acyclic g ~restricted:(Some (orient g)))

let test_dependency_cyclic_unrestricted () =
  List.iter
    (fun g ->
      Alcotest.(check bool) "cycle topology has cyclic deps" false
        (Topo.Updown.dependency_acyclic g ~restricted:None))
    [ Topo.Build.ring 4; Topo.Build.torus 3 3; Topo.Build.src_lan () ]

let test_dependency_acyclic_on_tree () =
  (* Trees have no cycles even unrestricted. *)
  Alcotest.(check bool) "tree acyclic unrestricted" true
    (Topo.Updown.dependency_acyclic (Topo.Build.tree ~arity:2 ~depth:3)
       ~restricted:None)

(* ------------------------------------------------------------------ *)
(* Fat-tree / Clos builders and pod metadata *)

let fat_tree_k_gen =
  QCheck.make
    ~print:(fun k -> Printf.sprintf "k=%d" k)
    QCheck.Gen.(map (fun i -> 2 * i) (int_range 2 8))

let test_fat_tree_counts =
  qtest ~count:50 "fat-tree closed-form counts" fat_tree_k_gen (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      Topo.Graph.switch_count g = 5 * k * k / 4
      && Topo.Graph.host_count g = k * k * k / 4
      && Topo.Graph.link_count g = k * k * k
      && Topo.Pods.n_pods pods = k
      && List.length (Topo.Pods.core pods) = k / 2 * (k / 2)
      && Topo.Graph.switch_connected g)

let test_fat_tree_dual_homed =
  qtest ~count:50 "fat-tree hosts dual-homed to distinct same-pod ToRs"
    fat_tree_k_gen (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      let ok = ref true in
      for h = 0 to Topo.Graph.host_count g - 1 do
        match Topo.Graph.host_links g h with
        | [ (s1, _); (s2, _) ] ->
          (* two working attachments, to different edge switches of
             one pod *)
          if s1 = s2 then ok := false;
          (match
             (Topo.Pods.pod_of_switch pods s1, Topo.Pods.pod_of_switch pods s2)
           with
           | Some p1, Some p2 ->
             if p1 <> p2 then ok := false;
             (* edge switches are the first k/2 ids of their pod *)
             if s1 mod k >= k / 2 || s2 mod k >= k / 2 then ok := false
           | _ -> ok := false)
        | _ -> ok := false
      done;
      !ok)

let test_fat_tree_updown_deadlock_free =
  qtest ~count:20 "up*/down* on fat-tree is deadlock-free" fat_tree_k_gen
    (fun k ->
      let g, _ = Topo.Build.fat_tree ~k in
      (* Root the spanning tree at a core switch, the natural "up". *)
      let o = Topo.Updown.orient g (Topo.Spanning.bfs g ~root:(k * k)) in
      Topo.Updown.dependency_acyclic g ~restricted:(Some o))

let test_clos_updown_deadlock_free () =
  List.iter
    (fun (radix, tiers) ->
      let g, _ = Topo.Build.folded_clos ~radix ~tiers in
      let root = Topo.Graph.switch_count g - 1 in
      let o = Topo.Updown.orient g (Topo.Spanning.bfs g ~root) in
      Alcotest.(check bool)
        (Printf.sprintf "clos:%d:%d acyclic" radix tiers)
        true
        (Topo.Updown.dependency_acyclic g ~restricted:(Some o)))
    [ (4, 2); (8, 2); (4, 3); (8, 3) ]

let test_partition_balance_on_pods () =
  (* With parts = pod count and 4 | k, the switch count divides evenly
     and the partitioner must balance to the switch. *)
  List.iter
    (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      let parts = Topo.Pods.n_pods pods in
      let part = Topo.Partition.assign g ~parts in
      let sizes = Array.make parts 0 in
      Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) part;
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d balanced +-1 (min %d max %d)" k mn mx)
        true
        (mx - mn <= 1))
    [ 4; 8 ]

let test_pods_scope () =
  let k = 4 in
  let g, pods = Topo.Build.fat_tree ~k in
  let band = k * k * k / 4 in
  Alcotest.(check bool) "edge-agg link is pod-scoped" true
    (Topo.Pods.scope_of_link pods g 0 = Topo.Pods.Pod 0);
  Alcotest.(check bool) "agg-core link is global" true
    (Topo.Pods.scope_of_link pods g band = Topo.Pods.Global);
  Alcotest.(check bool) "host attachment inherits the pod" true
    (Topo.Pods.scope_of_link pods g (2 * band) = Topo.Pods.Pod 0);
  Alcotest.(check int) "pod 0 has k members" k
    (List.length (Topo.Pods.members pods 0));
  Alcotest.(check bool) "core switch has no pod" true
    (Topo.Pods.pod_of_switch pods (k * k) = None)

(* ------------------------------------------------------------------ *)
(* SoA Graph vs the retained reference implementation *)

(* Drive both implementations through the same random op sequence and
   demand every observer agrees. Connects avoid self-loops (the two
   implementations allocate the two ports of a self-loop in a
   different order; no builder creates one). *)
let test_graph_differential =
  qtest ~count:200 "SoA graph == reference graph"
    (QCheck.make
       ~print:(fun (seed, k) -> Printf.sprintf "seed=%d ops=%d" seed k)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 80)))
    (fun (seed, k) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Graph.create ~ports_per_switch:5 ~ports_per_host:2 () in
      let r =
        Topo.Graph_reference.create ~ports_per_switch:5 ~ports_per_host:2 ()
      in
      Topo.Graph.add_switches g 2;
      Topo.Graph_reference.add_switches r 2;
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to k do
        (match Netsim.Rng.int rng 8 with
         | 0 ->
           Topo.Graph.add_switches g 1;
           Topo.Graph_reference.add_switches r 1
         | 1 -> check (Topo.Graph.add_host g = Topo.Graph_reference.add_host r)
         | 2 | 3 ->
           let n = Topo.Graph.switch_count g in
           let a = Netsim.Rng.int rng n in
           let b = (a + 1 + Netsim.Rng.int rng (max 1 (n - 1))) mod n in
           if a <> b then begin
             let c1 =
               try
                 Some (Topo.Graph.connect g (Switch a) (Switch b))
               with Failure _ -> None
             in
             let c2 =
               try
                 Some (Topo.Graph_reference.connect r (Switch a) (Switch b))
               with Failure _ -> None
             in
             check (c1 = c2)
           end
         | 4 ->
           if Topo.Graph.host_count g > 0 then begin
             let h = Netsim.Rng.int rng (Topo.Graph.host_count g) in
             let s = Netsim.Rng.int rng (Topo.Graph.switch_count g) in
             let c1 =
               try Some (Topo.Graph.connect g (Host h) (Switch s))
               with Failure _ -> None
             in
             let c2 =
               try Some (Topo.Graph_reference.connect r (Host h) (Switch s))
               with Failure _ -> None
             in
             check (c1 = c2)
           end
         | 5 ->
           if Topo.Graph.link_count g > 0 then begin
             let l = Netsim.Rng.int rng (Topo.Graph.link_count g) in
             Topo.Graph.fail_link g l;
             Topo.Graph_reference.fail_link r l
           end
         | 6 ->
           if Topo.Graph.link_count g > 0 then begin
             let l = Netsim.Rng.int rng (Topo.Graph.link_count g) in
             Topo.Graph.restore_link g l;
             Topo.Graph_reference.restore_link r l
           end
         | _ ->
           let s = Netsim.Rng.int rng (Topo.Graph.switch_count g) in
           if Netsim.Rng.int rng 2 = 0 then begin
             Topo.Graph.fail_switch g s;
             Topo.Graph_reference.fail_switch r s
           end
           else begin
             Topo.Graph.restore_switch g s;
             Topo.Graph_reference.restore_switch r s
           end);
        (* Observers must agree after every op. *)
        check (Topo.Graph.switch_count g = Topo.Graph_reference.switch_count r);
        check (Topo.Graph.host_count g = Topo.Graph_reference.host_count r);
        check (Topo.Graph.link_count g = Topo.Graph_reference.link_count r);
        check
          (Topo.Graph.switch_connected g
          = Topo.Graph_reference.switch_connected r);
        for s = 0 to Topo.Graph.switch_count g - 1 do
          check
            (Topo.Graph.switch_neighbors g s
            = Topo.Graph_reference.switch_neighbors r s);
          check
            (Topo.Graph.hosts_of_switch g s
            = Topo.Graph_reference.hosts_of_switch r s);
          check
            (Topo.Graph.reachable_switches g s
            = Topo.Graph_reference.reachable_switches r s)
        done;
        for h = 0 to Topo.Graph.host_count g - 1 do
          check (Topo.Graph.host_links g h = Topo.Graph_reference.host_links r h)
        done;
        for l = 0 to Topo.Graph.link_count g - 1 do
          check
            (Topo.Graph.link_working g l = Topo.Graph_reference.link_working r l);
          let a = Topo.Graph.link g l and b = Topo.Graph_reference.link r l in
          let end_eq (x : Topo.Graph.endpoint)
              (y : Topo.Graph_reference.endpoint) =
            x.port = y.port
            && (match (x.node, y.node) with
                | Topo.Graph.Switch i, Topo.Graph_reference.Switch j
                | Topo.Graph.Host i, Topo.Graph_reference.Host j -> i = j
                | _ -> false)
          in
          check
            (a.link_id = b.link_id && a.latency = b.latency
            && end_eq a.a b.a && end_eq a.b b.b
            && (a.state = Topo.Graph.Working)
               = (b.state = Topo.Graph_reference.Working))
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Route kernel vs a list-based BFS oracle *)

(* The oracle reads adjacency straight from the link records — working
   switch-to-switch links, sorted by (neighbor, link id) — so it shares
   nothing with the packed CSR, and searches with a fresh Queue and a
   full BFS, as Paths did before the kernel. *)
let oracle_neighbors g s =
  List.sort compare
    (List.filter_map
       (fun (l : Topo.Graph.link) ->
         match (l.a.node, l.b.node) with
         | Topo.Graph.Switch x, Topo.Graph.Switch y
           when l.state = Topo.Graph.Working ->
           if x = s then Some (y, l.link_id)
           else if y = s then Some (x, l.link_id)
           else None
         | _ -> None)
       (Topo.Graph.links g))

let oracle_bfs ?(admit = fun _ -> true) g ~src =
  let n = Topo.Graph.switch_count g in
  let prev = Array.make n (-1) and dist = Array.make n (-1) in
  let nbrs = Array.init n (oracle_neighbors g) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun (s', l) ->
        if dist.(s') = -1 && admit l then begin
          dist.(s') <- dist.(s) + 1;
          prev.(s') <- s;
          Queue.add s' queue
        end)
      nbrs.(s)
  done;
  (dist, prev)

let oracle_route (dist, prev) ~src ~dst =
  if src = dst then Some [ src ]
  else if dist.(dst) = -1 then None
  else
    let rec walk acc s = if s = src then src :: acc else walk (s :: acc) prev.(s) in
    Some (walk [] dst)

(* A random multigraph: parallel links, a few hosts, then a random
   word of link/switch failures and restores, new links (a CSR
   rebuild), and save/restore round trips. *)
let kernel_case_gen =
  QCheck.make
    ~print:(fun (seed, n, k) -> Printf.sprintf "seed=%d n=%d ops=%d" seed n k)
    QCheck.Gen.(triple (int_range 0 10_000) (int_range 1 14) (int_range 0 25))

let kernel_matches_oracle g =
  let n = Topo.Graph.switch_count g in
  let ok = ref true in
  let check b = if not b then ok := false in
  for src = 0 to n - 1 do
    let iter_order = ref [] in
    Topo.Graph.iter_switch_neighbors g src (fun s' l ->
        iter_order := (s', l) :: !iter_order);
    check (List.rev !iter_order = Topo.Graph.switch_neighbors g src);
    check (Topo.Graph.switch_neighbors g src = oracle_neighbors g src);
    let ((dist, _) as o) = oracle_bfs g ~src in
    check (Topo.Paths.distances g ~src = dist);
    check
      (Topo.Graph.reachable_switches g src
      = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 dist);
    for dst = 0 to n - 1 do
      check (Topo.Paths.route g ~src ~dst = oracle_route o ~src ~dst)
    done;
    (* The spanning tree is the full search's; each switch hangs off
       its parent by the lowest-id working link between them. *)
    let tree = Topo.Spanning.bfs g ~root:src in
    let link_to s =
      let p = tree.parent.(s) in
      if p < 0 || s = src then -1
      else snd (List.find (fun (s', _) -> s' = s) (oracle_neighbors g p))
    in
    check (tree.depth = dist);
    check (Array.to_list tree.parent_link = List.init n link_to);
    (* A filtered search skips one link; parallel links make it
       reroute over a sibling rather than detour. *)
    let links = Topo.Graph.link_count g in
    if links > 0 then begin
      let avoid = src mod links in
      let admit l = l <> avoid in
      let o' = oracle_bfs ~admit g ~src in
      let b = Topo.Graph.Bfs.local () in
      for dst = 0 to n - 1 do
        Topo.Graph.Bfs.run ~admit ~dst b g ~src;
        check (Topo.Graph.Bfs.path b dst = oracle_route o' ~src ~dst)
      done
    end
  done;
  !ok

let test_kernel_differential =
  qtest ~count:150 "route kernel = list BFS oracle" kernel_case_gen
    (fun (seed, n, k) ->
      let rng = Netsim.Rng.create seed in
      let g = ref (Topo.Graph.create ~ports_per_switch:6 ()) in
      Topo.Graph.add_switches !g n;
      let connect_random () =
        let a = Netsim.Rng.int rng n and b = Netsim.Rng.int rng n in
        if a <> b then
          try ignore (Topo.Graph.connect !g (Switch a) (Switch b)) with Failure _ -> ()
      in
      for _ = 1 to 2 * n do
        connect_random ()
      done;
      for _ = 1 to Netsim.Rng.int rng 4 do
        let h = Topo.Graph.add_host !g in
        (try ignore (Topo.Graph.connect !g (Host h) (Switch (Netsim.Rng.int rng n)))
         with Failure _ -> ())
      done;
      let ok = ref (kernel_matches_oracle !g) in
      for _ = 1 to k do
        let links = Topo.Graph.link_count !g in
        (match Netsim.Rng.int rng 7 with
         | 0 when links > 0 -> Topo.Graph.fail_link !g (Netsim.Rng.int rng links)
         | 1 when links > 0 -> Topo.Graph.restore_link !g (Netsim.Rng.int rng links)
         | 2 -> Topo.Graph.fail_switch !g (Netsim.Rng.int rng n)
         | 3 -> Topo.Graph.restore_switch !g (Netsim.Rng.int rng n)
         | 4 -> connect_random ()
         | 5 -> g := Topo.Graph.restore (Topo.Graph.save !g)
         | _ -> ());
        if not (kernel_matches_oracle !g) then ok := false
      done;
      !ok)

let test_kernel_edges () =
  let g = Topo.Build.linear 4 in
  Topo.Graph.fail_link g 1;
  Alcotest.(check (option (list int))) "src = dst" (Some [ 2 ])
    (Topo.Paths.route g ~src:2 ~dst:2);
  Alcotest.(check (option (list int))) "cut off" None
    (Topo.Paths.route g ~src:0 ~dst:3);
  Alcotest.(check (option (list int))) "filtered out" None
    (Topo.Graph.Bfs.(
       let b = local () in
       run b g ~src:2 ~dst:3 ~admit:(fun l -> l <> 2);
       path b 3));
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad src" true
    (bad (fun () -> Topo.Paths.route g ~src:4 ~dst:0));
  Alcotest.(check bool) "bad dst" true
    (bad (fun () -> Topo.Paths.route g ~src:0 ~dst:(-1)))

let () =
  Alcotest.run "topo"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "ports exhaust" `Quick test_graph_ports_exhaust;
          Alcotest.test_case "distinct ports" `Quick test_graph_distinct_ports;
          Alcotest.test_case "fail/restore link" `Quick test_graph_fail_restore;
          Alcotest.test_case "fail switch" `Quick test_graph_fail_switch;
          Alcotest.test_case "overlapping failures compose" `Quick
            test_overlapping_failures_compose;
          Alcotest.test_case "overlapping switch crashes" `Quick
            test_overlapping_switch_crashes;
          Alcotest.test_case "restore under crash" `Quick
            test_restore_link_under_crash;
          Alcotest.test_case "fail/restore idempotent" `Quick
            test_fail_restore_idempotent;
          test_failures_compose_random;
          Alcotest.test_case "other_end" `Quick test_other_end;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builders_shapes;
          Alcotest.test_case "connected" `Quick test_builders_connected;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "leaf-spine" `Quick test_leaf_spine;
          test_random_connected;
          Alcotest.test_case "src_lan shape" `Quick test_src_lan_shape;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "linear" `Quick test_spanning_linear;
          Alcotest.test_case "star height" `Quick test_spanning_star_height;
          test_spanning_properties;
          Alcotest.test_case "partial coverage" `Quick test_spanning_partial;
        ] );
      ( "paths",
        [
          Alcotest.test_case "ring distances" `Quick test_paths_ring;
          Alcotest.test_case "grid route" `Quick test_paths_route;
          Alcotest.test_case "self route" `Quick test_paths_self;
          Alcotest.test_case "unreachable" `Quick test_paths_unreachable;
          test_route_is_path;
          Alcotest.test_case "mean distance" `Quick test_mean_distance_linear;
          test_kernel_differential;
          Alcotest.test_case "kernel edge cases" `Quick test_kernel_edges;
        ] );
      ( "updown",
        [
          Alcotest.test_case "orientation" `Quick test_updown_orientation;
          Alcotest.test_case "tie by id" `Quick test_updown_tie_by_id;
          test_updown_antisymmetry;
          Alcotest.test_case "legal_path" `Quick test_legal_path;
          test_updown_routes_legal;
          test_updown_distance_dominates;
          Alcotest.test_case "ring detour" `Quick test_updown_ring_detour;
          Alcotest.test_case "tree stretch = 1" `Quick test_stretch_tree_is_one;
          Alcotest.test_case "ring stretch > 1" `Quick test_stretch_ring_above_one;
          test_dependency_acyclic_updown;
          Alcotest.test_case "unrestricted cyclic" `Quick
            test_dependency_cyclic_unrestricted;
          Alcotest.test_case "tree acyclic" `Quick test_dependency_acyclic_on_tree;
        ] );
      ( "scale",
        [
          test_fat_tree_counts;
          test_fat_tree_dual_homed;
          test_fat_tree_updown_deadlock_free;
          Alcotest.test_case "clos up*/down* acyclic" `Quick
            test_clos_updown_deadlock_free;
          Alcotest.test_case "partition balance on pods" `Quick
            test_partition_balance_on_pods;
          Alcotest.test_case "pod link scopes" `Quick test_pods_scope;
          test_graph_differential;
        ] );
    ]
