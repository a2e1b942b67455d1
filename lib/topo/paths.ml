let distances g ~src =
  let b = Graph.Bfs.local () in
  Graph.Bfs.run b g ~src;
  Array.init (Graph.switch_count g) (Graph.Bfs.hops b)

let route g ~src ~dst =
  let b = Graph.Bfs.local () in
  Graph.Bfs.run ~dst b g ~src;
  Graph.Bfs.path b dst

(* A full search from [src] discovers the switches it reaches, [src]
   first, in nondecreasing hop order: the pairs are [nth 1 ..
   reached-1], and the last one discovered is the farthest. *)
let mean_distance g =
  let n = Graph.switch_count g in
  let b = Graph.Bfs.local () in
  let total = ref 0 and count = ref 0 in
  for src = 0 to n - 1 do
    Graph.Bfs.run b g ~src;
    for i = 1 to Graph.Bfs.reached b - 1 do
      total := !total + Graph.Bfs.hops b (Graph.Bfs.nth b i);
      incr count
    done
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let diameter g =
  let b = Graph.Bfs.local () in
  let best = ref 0 in
  for src = 0 to Graph.switch_count g - 1 do
    Graph.Bfs.run b g ~src;
    best := max !best (Graph.Bfs.hops b (Graph.Bfs.nth b (Graph.Bfs.reached b - 1)))
  done;
  !best
