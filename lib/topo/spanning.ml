type t = {
  root : int;
  parent : int array;
  parent_link : int array;
  depth : int array;
}

let bfs g ~root =
  let n = Graph.switch_count g in
  if root < 0 || root >= n then invalid_arg "Spanning.bfs: bad root";
  let b = Graph.Bfs.local () in
  Graph.Bfs.run b g ~src:root;
  let parent = Array.init n (Graph.Bfs.parent b) in
  parent.(root) <- root;
  {
    root;
    parent;
    parent_link = Array.init n (Graph.Bfs.parent_link b);
    depth = Array.init n (Graph.Bfs.hops b);
  }

let height t = Array.fold_left max 0 t.depth

let covers_all g t =
  ignore g;
  Array.for_all (fun d -> d >= 0) t.depth

let children t s =
  let acc = ref [] in
  Array.iteri
    (fun i p -> if p = s && i <> t.root then acc := i :: !acc)
    t.parent;
  List.rev !acc
