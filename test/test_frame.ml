(* Tests for guaranteed-traffic frame scheduling: reservation matrices,
   the Slepian-Duguid insertion algorithm, the paper's Figures 2/3, and
   the slot-packing heuristics. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let matrix_gen =
  QCheck.make
    ~print:(fun (seed, n, frame, fill) ->
      Printf.sprintf "seed=%d n=%d frame=%d fill=%.2f" seed n frame fill)
    QCheck.Gen.(
      quad (int_range 0 100_000) (int_range 1 12) (int_range 1 16)
        (float_range 0.0 1.0))

let build_matrix (seed, n, frame, fill) =
  let rng = Netsim.Rng.create seed in
  (Frame.Reservation.random_admissible ~rng ~n ~frame ~fill, n, frame)

let matrices_equal a b =
  let n = a.Frame.Reservation.n in
  let same = ref (n = b.Frame.Reservation.n) in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      if Frame.Reservation.get a i o <> Frame.Reservation.get b i o then same := false
    done
  done;
  !same

(* ------------------------------------------------------------------ *)
(* Reservation *)

let test_reservation_sums () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check int) "row 1" 3 (Frame.Reservation.row_sum r 0);
  Alcotest.(check int) "row 2" 2 (Frame.Reservation.row_sum r 1);
  Alcotest.(check int) "row 3" 3 (Frame.Reservation.row_sum r 2);
  Alcotest.(check int) "row 4" 2 (Frame.Reservation.row_sum r 3);
  Alcotest.(check int) "col 1" 3 (Frame.Reservation.col_sum r 0);
  Alcotest.(check int) "col 2" 3 (Frame.Reservation.col_sum r 1);
  Alcotest.(check int) "col 3" 2 (Frame.Reservation.col_sum r 2);
  Alcotest.(check int) "col 4" 2 (Frame.Reservation.col_sum r 3);
  Alcotest.(check int) "total" 10 (Frame.Reservation.total r)

let test_reservation_admissibility_edge () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check bool) "3 slots enough" true (Frame.Reservation.admissible r ~frame:3);
  Alcotest.(check bool) "2 slots too few" false
    (Frame.Reservation.admissible r ~frame:2)

let test_reservation_headroom () =
  let r = Frame.Reservation.paper_figure2 () in
  (* row 4 sum 2, col 3 sum 2 -> headroom 1 in a 3-slot frame *)
  Alcotest.(check int) "headroom" 1
    (Frame.Reservation.headroom r ~frame:3 ~input:3 ~output:2);
  Alcotest.(check int) "saturated" 0
    (Frame.Reservation.headroom r ~frame:3 ~input:0 ~output:1)

let test_random_admissible =
  qtest "random matrices admissible" matrix_gen (fun params ->
      let r, _, frame = build_matrix params in
      Frame.Reservation.admissible r ~frame)

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_place_and_lookup () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  Frame.Schedule.place s ~slot:0 ~input:1 ~output:3;
  Alcotest.(check (option int)) "output_of" (Some 3)
    (Frame.Schedule.output_of s ~slot:0 ~input:1);
  Alcotest.(check (option int)) "input_of" (Some 1)
    (Frame.Schedule.input_of s ~slot:0 ~output:3);
  Alcotest.(check bool) "input busy" false (Frame.Schedule.input_free s ~slot:0 ~input:1);
  Alcotest.(check bool) "other slot free" true
    (Frame.Schedule.input_free s ~slot:1 ~input:1);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s)

let test_schedule_place_conflicts () =
  let s = Frame.Schedule.create ~n:4 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:0;
  Alcotest.(check bool) "input conflict" true
    (try Frame.Schedule.place s ~slot:0 ~input:0 ~output:1; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "output conflict" true
    (try Frame.Schedule.place s ~slot:0 ~input:1 ~output:0; false
     with Invalid_argument _ -> true)

let test_add_cell_direct () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  match Frame.Schedule.add_cell s ~input:2 ~output:3 with
  | Ok { steps; moves } ->
    Alcotest.(check int) "one step" 1 steps;
    Alcotest.(check int) "no moves" 0 (List.length moves);
    Alcotest.(check int) "placed" 1 (Frame.Schedule.reserved_count s ~input:2 ~output:3)
  | Error e -> Alcotest.fail e

let test_add_cell_inadmissible () =
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  (* input 0 fully committed *)
  match Frame.Schedule.add_cell s ~input:0 ~output:0 with
  | Ok _ -> Alcotest.fail "must fail"
  | Error _ -> ()

let test_sd_random_build =
  qtest "SD builds any admissible matrix" matrix_gen (fun params ->
      let r, n, frame = build_matrix params in
      let s = Frame.Schedule.create ~n ~frame in
      let ok = ref true in
      for i = 0 to n - 1 do
        for o = 0 to n - 1 do
          match
            Frame.Schedule.add_reservation s ~input:i ~output:o
              ~cells:(Frame.Reservation.get r i o)
          with
          | Ok _ -> ()
          | Error _ -> ok := false
        done
      done;
      !ok
      && Frame.Schedule.valid s
      && matrices_equal (Frame.Schedule.to_reservation s) r)

let test_sd_step_bound =
  qtest "SD insertion bounded by N paper-steps" matrix_gen (fun params ->
      let r, n, frame = build_matrix params in
      let s = Frame.Schedule.create ~n ~frame in
      let worst_pairs = ref 0 and worst_placements = ref 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        for o = 0 to n - 1 do
          for _ = 1 to Frame.Reservation.get r i o do
            match Frame.Schedule.add_cell s ~input:i ~output:o with
            | Ok outcome ->
              (* The paper counts the initial placement plus one step
                 per displacement pair (Figure 3) and bounds that by
                 N; each pair is two of our placements, so placements
                 stay within 2N. *)
              let pairs = Frame.Figures.paper_steps outcome in
              if pairs > !worst_pairs then worst_pairs := pairs;
              if outcome.steps > !worst_placements then
                worst_placements := outcome.steps
            | Error _ -> ok := false
          done
        done
      done;
      !ok && !worst_pairs <= n && !worst_placements <= 2 * n)

let test_remove_cell () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  ignore (Frame.Schedule.add_reservation s ~input:1 ~output:2 ~cells:2);
  Alcotest.(check int) "two scheduled" 2
    (Frame.Schedule.reserved_count s ~input:1 ~output:2);
  Alcotest.(check bool) "removed" true (Frame.Schedule.remove_cell s ~input:1 ~output:2);
  Alcotest.(check int) "one left" 1 (Frame.Schedule.reserved_count s ~input:1 ~output:2);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s);
  ignore (Frame.Schedule.remove_cell s ~input:1 ~output:2);
  Alcotest.(check bool) "nothing left to remove" false
    (Frame.Schedule.remove_cell s ~input:1 ~output:2)

(* remove_cell frees the highest slot holding the connection, and
   touches nothing else — checked against a full scan through the
   public lookups after random Slepian-Duguid insertions (swap chains
   move connections between slots) and removals. *)
let test_remove_cell_highest_slot =
  qtest ~count:200 "remove_cell frees the highest matching slot"
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 120)))
    (fun (seed, ops) ->
      let rng = Netsim.Rng.create seed in
      let n = 4 and frame = 6 in
      let s = Frame.Schedule.create ~n ~frame in
      let snapshot () =
        Array.init frame (fun slot ->
            Array.init n (fun input -> Frame.Schedule.output_of s ~slot ~input))
      in
      let ok = ref true in
      for _ = 1 to ops do
        let input = Netsim.Rng.int rng n and output = Netsim.Rng.int rng n in
        if Netsim.Rng.int rng 3 > 0 then
          ignore (Frame.Schedule.add_cell s ~input ~output)
        else begin
          let before = snapshot () in
          let highest = ref (-1) in
          Array.iteri
            (fun slot row -> if row.(input) = Some output then highest := slot)
            before;
          if !highest >= 0 then before.(!highest).(input) <- None;
          let removed = Frame.Schedule.remove_cell s ~input ~output in
          if removed <> (!highest >= 0) || snapshot () <> before then ok := false
        end;
        if not (Frame.Schedule.valid s) then ok := false
      done;
      !ok)

let test_add_after_remove () =
  (* Freed capacity is reusable. *)
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  ignore (Frame.Schedule.remove_cell s ~input:0 ~output:1);
  match Frame.Schedule.add_cell s ~input:0 ~output:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_copy_isolated () =
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  let c = Frame.Schedule.copy s in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  Alcotest.(check bool) "copy untouched" true
    (Frame.Schedule.input_free c ~slot:0 ~input:0)

(* ------------------------------------------------------------------ *)
(* Sparse schedule vs a dense oracle *)

(* The dense layout the schedule used before its rows were sized by
   use: two full ports x frame matrices. Kept here only as the oracle
   for the differential test below. *)
module Dense = struct
  type t = {
    size : int;
    slots : int;
    out_of : int array array;
    in_of : int array array;
    top : int array;
  }

  let create ~n ~frame =
    {
      size = n;
      slots = frame;
      out_of = Array.make_matrix n frame (-1);
      in_of = Array.make_matrix n frame (-1);
      top = Array.make n 0;
    }

  let output_of t ~slot ~input =
    let o = t.out_of.(input).(slot) in
    if o < 0 then None else Some o

  let input_of t ~slot ~output =
    let i = t.in_of.(output).(slot) in
    if i < 0 then None else Some i

  let input_free t ~slot ~input = t.out_of.(input).(slot) < 0
  let output_free t ~slot ~output = t.in_of.(output).(slot) < 0

  let place t ~slot ~input ~output =
    if not (input_free t ~slot ~input) then invalid_arg "Dense.place: input busy";
    if not (output_free t ~slot ~output) then invalid_arg "Dense.place: output busy";
    t.out_of.(input).(slot) <- output;
    t.in_of.(output).(slot) <- input;
    if slot >= t.top.(input) then t.top.(input) <- slot + 1

  let unplace t ~slot ~input ~output =
    assert (t.out_of.(input).(slot) = output);
    t.out_of.(input).(slot) <- -1;
    t.in_of.(output).(slot) <- -1

  let to_reservation t =
    let r = Frame.Reservation.create t.size in
    for s = 0 to t.slots - 1 do
      for i = 0 to t.size - 1 do
        let o = t.out_of.(i).(s) in
        if o >= 0 then Frame.Reservation.add r i o 1
      done
    done;
    r

  let find_slot t pred =
    let rec scan s = if s = t.slots then None else if pred s then Some s else scan (s + 1) in
    scan 0

  let add_cell t ~input ~output : (Frame.Schedule.add_outcome, string) result =
    match
      find_slot t (fun s -> input_free t ~slot:s ~input && output_free t ~slot:s ~output)
    with
    | Some s ->
      place t ~slot:s ~input ~output;
      Ok { steps = 1; moves = [] }
    | None ->
      let p = find_slot t (fun s -> input_free t ~slot:s ~input) in
      let q = find_slot t (fun s -> output_free t ~slot:s ~output) in
      (match (p, q) with
       | None, _ -> Error (Printf.sprintf "input %d fully committed (inadmissible)" input)
       | _, None -> Error (Printf.sprintf "output %d fully committed (inadmissible)" output)
       | Some p, Some q ->
         let moves = ref [] and steps = ref 0 in
         let rec insert ~slot ~other i o =
           incr steps;
           let in_conflict =
             let o' = t.out_of.(i).(slot) in
             if o' >= 0 then Some (i, o') else None
           in
           let out_conflict =
             let i' = t.in_of.(o).(slot) in
             if i' >= 0 then Some (i', o) else None
           in
           match (in_conflict, out_conflict) with
           | Some _, Some _ -> assert false
           | Some (ci, co), None | None, Some (ci, co) ->
             unplace t ~slot ~input:ci ~output:co;
             place t ~slot ~input:i ~output:o;
             moves := (slot, other, ci, co) :: !moves;
             insert ~slot:other ~other:slot ci co
           | None, None -> place t ~slot ~input:i ~output:o
         in
         insert ~slot:p ~other:q input output;
         Ok { steps = !steps; moves = List.rev !moves })

  let add_reservation t ~input ~output ~cells =
    let rec go k total =
      if k = 0 then Ok total
      else
        match add_cell t ~input ~output with
        | Ok { steps; _ } -> go (k - 1) (total + steps)
        | Error e -> Error e
    in
    go cells 0

  let remove_cell t ~input ~output =
    let row = t.out_of.(input) in
    let rec scan s =
      if s < 0 then false
      else if row.(s) = output then begin
        unplace t ~slot:s ~input ~output;
        true
      end
      else scan (s - 1)
    in
    scan (t.top.(input) - 1)

  let valid t =
    let ok = ref true in
    for s = 0 to t.slots - 1 do
      for i = 0 to t.size - 1 do
        let o = t.out_of.(i).(s) in
        if o >= 0 && t.in_of.(o).(s) <> i then ok := false
      done;
      for o = 0 to t.size - 1 do
        let i = t.in_of.(o).(s) in
        if i >= 0 && t.out_of.(i).(s) <> o then ok := false
      done
    done;
    !ok

  let copy t =
    {
      t with
      out_of = Array.map Array.copy t.out_of;
      in_of = Array.map Array.copy t.in_of;
      top = Array.copy t.top;
    }
end

type sched_op =
  | Place of int * int * int  (** slot, input, output *)
  | Place_run of int * int * int * int
      (** first slot, count, input, output: consecutive direct placements *)
  | Add of int * int
  | Reserve of int * int * int  (** input, output, cells *)
  | Remove of int * int
  | Copy

let pp_sched_op = function
  | Place (s, i, o) -> Printf.sprintf "place %d %d->%d" s i o
  | Place_run (s, k, i, o) -> Printf.sprintf "place %d..%d %d->%d" s (s + k - 1) i o
  | Add (i, o) -> Printf.sprintf "add %d->%d" i o
  | Reserve (i, o, c) -> Printf.sprintf "reserve %d->%d x%d" i o c
  | Remove (i, o) -> Printf.sprintf "remove %d->%d" i o
  | Copy -> "copy"

(* Random op sequences that reach the row-growth corners: a direct
   placement at slot frame-1 in every sequence, and (when frame >= 2)
   often a saturating prefix that leaves the input busy in slots
   [0, a) and the output busy in [a, frame), so the next add runs a
   swap chain whose first insertion lands at slot [a] — past the end
   of the input's row — and, for n >= 3, moves a cell to slot [a] of a
   third port's row, again past its end when [a] is a row length. *)
let sched_ops_gen ~n ~frame =
  let open QCheck.Gen in
  let port = frequency [ (3, int_range 0 (min n 3 - 1)); (1, int_range 0 (n - 1)) ] in
  let slot =
    frequency
      [ (2, return (frame - 1)); (1, return 0); (1, return (min (frame - 1) 8));
        (3, int_range 0 (frame - 1)) ]
  in
  let cells =
    frequency
      [ (4, int_range 0 3); (1, return (frame / 2)); (1, int_range 0 frame) ]
  in
  let op =
    frequency
      [
        (3, map3 (fun s i o -> Place (s, i, o)) slot port port);
        (6, map2 (fun i o -> Add (i, o)) port port);
        (3, map3 (fun i o c -> Reserve (i, o, c)) port port cells);
        (3, map2 (fun i o -> Remove (i, o)) port port);
        (1, return Copy);
      ]
  in
  let saturate =
    if frame < 2 then return []
    else
      let* a =
        oneof [ return 1; return (min 8 (frame - 1)); return (frame - 1); int_range 1 (frame - 1) ]
      in
      let* i = int_range 0 (n - 1) and* o = int_range 0 (n - 1) in
      let i2 = (i + 1) mod n and o2 = (o + 1) mod n in
      if n >= 3 then
        let o3 = (o + 2) mod n in
        return
          [ Reserve (i2, o3, a); Place_run (a, frame - a, i2, o); Place_run (0, a, i, o2);
            Add (i, o) ]
      else return [ Place_run (0, a, i, o2); Place_run (a, frame - a, i2, o); Add (i, o) ]
  in
  let* prefix = frequency [ (1, return []); (1, saturate) ] in
  let* before = list_size (int_range 0 20) op and* after = list_size (int_range 5 20) op in
  let* last_slot = map2 (fun i o -> Place (frame - 1, i, o)) port port in
  return (prefix @ before @ (last_slot :: after))

(* Same answers from both, or raise Invalid_argument in both. *)
let same_outcome f g =
  let run f = match f () with v -> Ok v | exception Invalid_argument _ -> Error () in
  let a = run f in
  a = run g

let schedules_agree ~n ~frame s d =
  let ok = ref (Frame.Schedule.valid s = Dense.valid d && Frame.Schedule.valid s) in
  for slot = 0 to frame - 1 do
    for p = 0 to n - 1 do
      if Frame.Schedule.output_of s ~slot ~input:p <> Dense.output_of d ~slot ~input:p
         || Frame.Schedule.input_of s ~slot ~output:p <> Dense.input_of d ~slot ~output:p
      then ok := false
    done
  done;
  let r = Dense.to_reservation d in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      if Frame.Schedule.reserved_count s ~input:i ~output:o <> Frame.Reservation.get r i o
      then ok := false
    done
  done;
  !ok && matrices_equal (Frame.Schedule.to_reservation s) r

(* Runs [ops] on both layouts, comparing every result and the whole
   state after each op, and every schedule left behind by a copy at
   the end (a copy must not share rows with its source). Returns the
   number of swap chains run, or fails with the first disagreement. *)
let run_differential ~n ~frame ops =
  let s = ref (Frame.Schedule.create ~n ~frame) and d = ref (Dense.create ~n ~frame) in
  let frozen = ref [] and chains = ref 0 in
  let fail k op = QCheck.Test.fail_reportf "step %d (%s) disagrees" k (pp_sched_op op) in
  List.iteri
    (fun k op ->
      let agree =
        match op with
        | Place (slot, input, output) ->
          same_outcome
            (fun () -> Frame.Schedule.place !s ~slot ~input ~output)
            (fun () -> Dense.place !d ~slot ~input ~output)
        | Place_run (first, count, input, output) ->
          List.for_all
            (fun slot ->
              same_outcome
                (fun () -> Frame.Schedule.place !s ~slot ~input ~output)
                (fun () -> Dense.place !d ~slot ~input ~output))
            (List.init count (fun j -> first + j))
        | Add (input, output) ->
          let a = Frame.Schedule.add_cell !s ~input ~output in
          (match a with Ok { moves = _ :: _; _ } -> incr chains | _ -> ());
          a = Dense.add_cell !d ~input ~output
        | Reserve (input, output, cells) ->
          Frame.Schedule.add_reservation !s ~input ~output ~cells
          = Dense.add_reservation !d ~input ~output ~cells
        | Remove (input, output) ->
          Frame.Schedule.remove_cell !s ~input ~output = Dense.remove_cell !d ~input ~output
        | Copy ->
          frozen := (!s, !d) :: !frozen;
          s := Frame.Schedule.copy !s;
          d := Dense.copy !d;
          true
      in
      if not (agree && schedules_agree ~n ~frame !s !d) then fail k op)
    ops;
  if not (List.for_all (fun (s, d) -> schedules_agree ~n ~frame s d) !frozen) then
    QCheck.Test.fail_report "a copied-from schedule changed";
  !chains

let differential_configs =
  List.concat_map (fun n -> List.map (fun frame -> (n, frame)) [ 1; 3; 1024 ]) [ 2; 4; 16 ]

let test_sparse_matches_dense =
  List.map
    (fun (n, frame) ->
      let count = if frame * n > 1024 then 25 else 150 in
      qtest ~count
        (Printf.sprintf "sparse = dense oracle, n=%d frame=%d" n frame)
        (QCheck.make
           ~print:(fun ops -> String.concat "; " (List.map pp_sched_op ops))
           (sched_ops_gen ~n ~frame))
        (fun ops ->
          ignore (run_differential ~n ~frame ops);
          true))
    differential_configs

(* The generator does reach the corners it is meant to: swap chains at
   every frame length above 1, and a placement at slot frame-1. *)
let test_differential_coverage () =
  List.iter
    (fun (n, frame) ->
      let rand = Random.State.make [| n; frame |] in
      let seqs = QCheck.Gen.generate ~rand ~n:20 (sched_ops_gen ~n ~frame) in
      let chains = List.fold_left (fun acc ops -> acc + run_differential ~n ~frame ops) 0 seqs in
      if frame > 1 && chains = 0 then
        Alcotest.failf "n=%d frame=%d: no swap chain in 20 sequences" n frame;
      if frame = 1 && chains <> 0 then
        Alcotest.failf "n=%d frame=1: a one-slot frame cannot need a swap chain" n;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d frame=%d places at frame-1" n frame)
        true
        (List.for_all
           (List.exists (function Place (s, _, _) -> s = frame - 1 | _ -> false))
           seqs))
    differential_configs

(* The saturating chain with a = 8 on a 1024-slot frame: rows start
   at 8 slots, so the new cell's first insertion (slot 8) and the
   displaced (1 -> 3) cell's move to slot 8 both land past the end of
   their rows. *)
let test_chain_crosses_row_end () =
  let frame = 1024 and a = 8 in
  let s = Frame.Schedule.create ~n:4 ~frame in
  ignore (Frame.Schedule.add_reservation s ~input:1 ~output:3 ~cells:a);
  for slot = a to frame - 1 do
    Frame.Schedule.place s ~slot ~input:1 ~output:0
  done;
  for slot = 0 to a - 1 do
    Frame.Schedule.place s ~slot ~input:0 ~output:2
  done;
  (match Frame.Schedule.add_cell s ~input:0 ~output:0 with
   | Ok { steps; moves } ->
     Alcotest.(check int) "steps" 3 steps;
     Alcotest.(check (list (pair (pair int int) (pair int int))))
       "moves"
       [ ((a, 0), (1, 0)); ((0, a), (1, 3)) ]
       (List.map (fun (f, t, i, o) -> ((f, t), (i, o))) moves)
   | Error e -> Alcotest.fail e);
  Alcotest.(check (option int)) "new cell at slot a" (Some 0)
    (Frame.Schedule.output_of s ~slot:a ~input:0);
  Alcotest.(check (option int)) "moved cell at slot a" (Some 1)
    (Frame.Schedule.input_of s ~slot:a ~output:3);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s)

let test_out_of_range_rejected () =
  let s = Frame.Schedule.create ~n:4 ~frame:16 in
  (* busy rows first, so a missing range check would read a row at -1 *)
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:0;
  let raises what f =
    match f () with
    | exception Invalid_argument msg ->
      let mentions w =
        let lw = String.length w in
        let rec at k = k + lw <= String.length msg && (String.sub msg k lw = w || at (k + 1)) in
        at 0
      in
      if not (mentions "outside" || mentions "index out of bounds") then
        Alcotest.failf "%s: rejected as %S, not as out of range" what msg
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  raises "slot -1" (fun () -> Frame.Schedule.place s ~slot:(-1) ~input:0 ~output:0);
  raises "slot = frame" (fun () -> Frame.Schedule.place s ~slot:16 ~input:0 ~output:0);
  raises "input = n" (fun () -> Frame.Schedule.place s ~slot:1 ~input:4 ~output:1);
  raises "output -1" (fun () -> Frame.Schedule.place s ~slot:1 ~input:1 ~output:(-1));
  raises "read slot -1" (fun () -> ignore (Frame.Schedule.output_of s ~slot:(-1) ~input:0));
  raises "read slot = frame" (fun () -> ignore (Frame.Schedule.input_free s ~slot:16 ~input:0));
  raises "read port = n" (fun () -> ignore (Frame.Schedule.input_of s ~slot:0 ~output:4));
  Alcotest.(check bool) "still valid" true (Frame.Schedule.valid s);
  Alcotest.(check bool) "span covers slot 0" true
    (Frame.Schedule.span s >= 1 && Frame.Schedule.span s <= 16);
  Frame.Schedule.place s ~slot:15 ~input:3 ~output:3;
  Alcotest.(check int) "span reaches the last slot" 16 (Frame.Schedule.span s)

(* ------------------------------------------------------------------ *)
(* Figures 2 and 3 *)

let test_figure2_schedule_realizes_matrix () =
  let final = Frame.Figures.figure2_final_schedule () in
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid final);
  Alcotest.(check bool) "realizes" true
    (matrices_equal (Frame.Schedule.to_reservation final)
       (Frame.Reservation.paper_figure2 ()))

let test_figure2_initial_lacks_43 () =
  let initial = Frame.Figures.figure2_initial_schedule () in
  Alcotest.(check int) "4->3 missing" 0
    (Frame.Schedule.reserved_count initial ~input:3 ~output:2)

let test_figure3_chain () =
  let final, outcome = Frame.Figures.run_figure3 () in
  Alcotest.(check int) "paper counts 3 steps" 3 (Frame.Figures.paper_steps outcome);
  Alcotest.(check int) "4 displacements" 4 (List.length outcome.Frame.Schedule.moves);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid final);
  (* Final p row: 1->2, 2->1, 3->4, 4->3 (paper step 3). *)
  Alcotest.(check (option int)) "p: 1->2" (Some 1)
    (Frame.Schedule.output_of final ~slot:0 ~input:0);
  Alcotest.(check (option int)) "p: 2->1" (Some 0)
    (Frame.Schedule.output_of final ~slot:0 ~input:1);
  Alcotest.(check (option int)) "p: 3->4" (Some 3)
    (Frame.Schedule.output_of final ~slot:0 ~input:2);
  Alcotest.(check (option int)) "p: 4->3" (Some 2)
    (Frame.Schedule.output_of final ~slot:0 ~input:3);
  (* Final q row: 1->3, 3->2, 4->1. *)
  Alcotest.(check (option int)) "q: 1->3" (Some 2)
    (Frame.Schedule.output_of final ~slot:1 ~input:0);
  Alcotest.(check (option int)) "q: 3->2" (Some 1)
    (Frame.Schedule.output_of final ~slot:1 ~input:2);
  Alcotest.(check (option int)) "q: 4->1" (Some 0)
    (Frame.Schedule.output_of final ~slot:1 ~input:3)

let test_figure3_first_move_is_1_to_3 () =
  (* The chain starts by displacing 1->3 from p to q, as in the
     paper's step 2. *)
  let _, outcome = Frame.Figures.run_figure3 () in
  match outcome.Frame.Schedule.moves with
  | (from_slot, to_slot, 0, 2) :: _ ->
    Alcotest.(check int) "from p" 0 from_slot;
    Alcotest.(check int) "to q" 1 to_slot
  | _ -> Alcotest.fail "unexpected first move"

let test_figure2_full_schedule_direct_insert () =
  (* In the full 3-slot schedule the middle slot has both ends free, so
     insertion is direct (the subtlety the paper's prose skips). *)
  let s = Frame.Figures.figure2_initial_schedule () in
  match Frame.Schedule.add_cell s ~input:3 ~output:2 with
  | Ok { steps; _ } -> Alcotest.(check int) "direct" 1 steps
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Packing *)

let test_builders_realize =
  qtest ~count:60 "packing builders realize matrix" matrix_gen (fun params ->
      let r, _, frame = build_matrix params in
      List.for_all
        (fun build ->
          let s = build r ~frame in
          Frame.Schedule.valid s
          && matrices_equal (Frame.Schedule.to_reservation s) r)
        [ Frame.Packing.build_packed; Frame.Packing.build_spread; Frame.Packing.build_sd ])

let test_packed_concentrates () =
  let rng = Netsim.Rng.create 51 in
  let r = Frame.Reservation.random_admissible ~rng ~n:8 ~frame:32 ~fill:0.3 in
  let packed = Frame.Packing.build_packed r ~frame:32 in
  let spread = Frame.Packing.build_spread r ~frame:32 in
  let mp = Frame.Packing.measure packed and ms = Frame.Packing.measure spread in
  Alcotest.(check bool) "packed frees more whole slots" true
    (mp.fully_free_slots >= ms.fully_free_slots);
  Alcotest.(check bool) "spread shortens worst wait" true
    (ms.mean_worst_wait <= mp.mean_worst_wait)

let test_measure_empty_schedule () =
  let s = Frame.Schedule.create ~n:4 ~frame:8 in
  let m = Frame.Packing.measure s in
  Alcotest.(check int) "all slots free" 8 m.fully_free_slots;
  Alcotest.(check (float 1e-9)) "every pair always free" 8.0 m.mean_free_per_pair;
  Alcotest.(check (float 1e-9)) "no wait" 0.0 m.mean_worst_wait

let test_measure_full_slot () =
  (* One slot fully reserved with a permutation: every pair loses
     exactly that slot. *)
  let s = Frame.Schedule.create ~n:4 ~frame:4 in
  for i = 0 to 3 do
    Frame.Schedule.place s ~slot:0 ~input:i ~output:i
  done;
  let m = Frame.Packing.measure s in
  Alcotest.(check int) "three fully free" 3 m.fully_free_slots;
  Alcotest.(check (float 1e-9)) "3 free slots per pair" 3.0 m.mean_free_per_pair;
  Alcotest.(check (float 1e-9)) "worst wait 1" 1.0 m.mean_worst_wait

let test_packing_rejects_inadmissible () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check bool) "frame 2 too small" true
    (try ignore (Frame.Packing.build_packed r ~frame:2); false
     with Failure _ -> true)

let test_figures_golden () =
  (* Byte-exact regression of the printed Figure 2/3 reproduction. *)
  let got = Format.asprintf "%t" (fun fmt -> Frame.Figures.report fmt) in
  let expected =
    "Reservations (cells per frame, Figure 2):\n\
    \  in1 | . 1 1 1\n\
    \  in2 | 2 . . .\n\
    \  in3 | . 2 . 1\n\
    \  in4 | 1 . 1 .\n\
     \n\
     Schedule before adding 4->3:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->4 2->1 3->2     \n\
    \  slot 3 | 1->2      3->4 4->1\n\
     \n\
     Insertion into the full schedule: 1 step(s) (direct placement;\n\
     the paper's prose overlooks that slot 2 has both ends free)\n\
     Schedule after direct insertion:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->4 2->1 3->2 4->3\n\
    \  slot 3 | 1->2      3->4 4->1\n\
     \n\
     valid: true; realizes Figure 2 matrix: true\n\
     \n\
     Figure 3 swap chain over slots p and q only:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->2      3->4 4->1\n\
     \n\
     Slepian-Duguid insertion of 4->3: 5 placements, 3 paper steps\n\
    \  moved 1->3 from slot p to slot q\n\
    \  moved 1->2 from slot q to slot p\n\
    \  moved 3->2 from slot p to slot q\n\
    \  moved 3->4 from slot q to slot p\n\
     Final p/q rows (paper's step 3):\n\
    \  slot 1 | 1->2 2->1 3->4 4->3\n\
    \  slot 2 | 1->3      3->2 4->1\n\
     \n\
     valid: true\n"
  in
  Alcotest.(check string) "golden report" expected got

(* ------------------------------------------------------------------ *)
(* Nested frames *)

let nested_gen =
  QCheck.make
    ~print:(fun (seed, n, sub, cap, fill) ->
      Printf.sprintf "seed=%d n=%d sub=%d cap=%d fill=%.2f" seed n sub cap fill)
    QCheck.Gen.(
      (int_range 0 100_000 >>= fun seed ->
       int_range 1 10 >>= fun n ->
       oneofl [ 1; 2; 4; 8 ] >>= fun sub ->
       int_range 1 8 >>= fun cap ->
       float_range 0.0 1.0 >>= fun fill -> return (seed, n, sub, cap, fill)))

let test_nested_realizes =
  qtest ~count:80 "nested schedules realize the matrix" nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        Frame.Schedule.valid s
        && matrices_equal (Frame.Schedule.to_reservation s) r)

let test_nested_balanced =
  qtest ~count:80 "nested spreads each pair within 1 cell per subframe"
    nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        let m = Frame.Nested.measure s ~subframes:sub in
        m.worst_subframe_imbalance <= 1)

let test_nested_full_permutation_load () =
  (* A fully loaded frame (every line committed) must still nest. *)
  let n = 4 and sub = 4 and cap = 4 in
  let frame = sub * cap in
  let r = Frame.Reservation.create n in
  (* each input sends frame cells split over two outputs *)
  for i = 0 to n - 1 do
    Frame.Reservation.set r i i (frame / 2);
    Frame.Reservation.set r i ((i + 1) mod n) (frame / 2)
  done;
  match Frame.Nested.build r ~frame ~subframes:sub with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "valid" true (Frame.Schedule.valid s);
    let m = Frame.Nested.measure s ~subframes:sub in
    Alcotest.(check int) "perfectly nested" 0 m.worst_subframe_imbalance

let test_nested_improves_gap () =
  (* The whole point: nesting shrinks the worst service gap compared to
     a plain (packed) SD schedule. Use multi-cell circuits - a one-cell
     circuit has a frame-sized gap under any schedule. *)
  let n = 8 and frame = 64 and sub = 8 in
  let r = Frame.Reservation.create n in
  for i = 0 to n - 1 do
    Frame.Reservation.set r i ((i + 1) mod n) 16;
    Frame.Reservation.set r i ((i + 3) mod n) 16
  done;
  let flat = Frame.Packing.build_sd r ~frame in
  match Frame.Nested.build r ~frame ~subframes:sub with
  | Error e -> Alcotest.fail e
  | Ok nested ->
    let gf = (Frame.Nested.measure flat ~subframes:sub).max_gap in
    let gn = (Frame.Nested.measure nested ~subframes:sub).max_gap in
    Alcotest.(check bool)
      (Printf.sprintf "nested gap %d < flat gap %d" gn gf)
      true (gn < gf);
    (* 16 cells over 8 subframes: two per subframe, so the wait is
       bounded by one reordering unit's length plus change. *)
    Alcotest.(check bool) "gap within 2 subframes" true (gn <= 2 * (frame / sub))

let test_nested_gap_bounded_by_two_subframes =
  qtest ~count:60 "pairs with >= subframes cells have gap <= 2 subframe lengths"
    nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        (* A pair with at least one cell in every subframe can never
           wait more than two reordering units between cells. *)
        let ok = ref true in
        for i = 0 to n - 1 do
          for o = 0 to n - 1 do
            if Frame.Reservation.get r i o >= sub then begin
              let slots = ref [] in
              for slot = frame - 1 downto 0 do
                if Frame.Schedule.output_of s ~slot ~input:i = Some o then
                  slots := slot :: !slots
              done;
              match !slots with
              | [] -> ok := false
              | first :: _ as all ->
                let rec gaps = function
                  | [ last ] -> if frame - last + first > 2 * cap then ok := false
                  | a :: (b :: _ as rest) ->
                    if b - a > 2 * cap then ok := false;
                    gaps rest
                  | [] -> ()
                in
                gaps all
            end
          done
        done;
        !ok)

let test_nested_rejects_bad_division () =
  let r = Frame.Reservation.create 2 in
  Alcotest.(check bool) "non-divisor raises" true
    (try ignore (Frame.Nested.build r ~frame:10 ~subframes:3); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-power-of-two raises" true
    (try ignore (Frame.Nested.build r ~frame:12 ~subframes:6); false
     with Invalid_argument _ -> true)

let test_nested_rejects_inadmissible () =
  let r = Frame.Reservation.paper_figure2 () in
  match Frame.Nested.build r ~frame:2 ~subframes:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject"

let () =
  Alcotest.run "frame"
    [
      ( "reservation",
        [
          Alcotest.test_case "figure2 sums" `Quick test_reservation_sums;
          Alcotest.test_case "admissibility edge" `Quick
            test_reservation_admissibility_edge;
          Alcotest.test_case "headroom" `Quick test_reservation_headroom;
          test_random_admissible;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "place/lookup" `Quick test_schedule_place_and_lookup;
          Alcotest.test_case "place conflicts" `Quick test_schedule_place_conflicts;
          Alcotest.test_case "direct add" `Quick test_add_cell_direct;
          Alcotest.test_case "inadmissible add" `Quick test_add_cell_inadmissible;
          test_sd_random_build;
          test_sd_step_bound;
          Alcotest.test_case "remove cell" `Quick test_remove_cell;
          test_remove_cell_highest_slot;
          Alcotest.test_case "add after remove" `Quick test_add_after_remove;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
          Alcotest.test_case "out-of-range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "swap chain crosses row end" `Quick
            test_chain_crosses_row_end;
          Alcotest.test_case "differential reaches its corners" `Quick
            test_differential_coverage;
        ]
        @ test_sparse_matches_dense );
      ( "figures",
        [
          Alcotest.test_case "figure 2 realized" `Quick
            test_figure2_schedule_realizes_matrix;
          Alcotest.test_case "initial lacks 4->3" `Quick test_figure2_initial_lacks_43;
          Alcotest.test_case "figure 3 chain" `Quick test_figure3_chain;
          Alcotest.test_case "first move 1->3" `Quick test_figure3_first_move_is_1_to_3;
          Alcotest.test_case "full schedule direct insert" `Quick
            test_figure2_full_schedule_direct_insert;
          Alcotest.test_case "golden report" `Quick test_figures_golden;
        ] );
      ( "nested",
        [
          test_nested_realizes;
          test_nested_balanced;
          Alcotest.test_case "full load nests" `Quick
            test_nested_full_permutation_load;
          Alcotest.test_case "improves worst gap" `Quick test_nested_improves_gap;
          test_nested_gap_bounded_by_two_subframes;
          Alcotest.test_case "rejects bad division" `Quick
            test_nested_rejects_bad_division;
          Alcotest.test_case "rejects inadmissible" `Quick
            test_nested_rejects_inadmissible;
        ] );
      ( "packing",
        [
          test_builders_realize;
          Alcotest.test_case "packed concentrates" `Quick test_packed_concentrates;
          Alcotest.test_case "empty schedule metrics" `Quick test_measure_empty_schedule;
          Alcotest.test_case "full slot metrics" `Quick test_measure_full_slot;
          Alcotest.test_case "rejects inadmissible" `Quick
            test_packing_rejects_inadmissible;
        ] );
    ]
