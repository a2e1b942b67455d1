type t = {
  size : int;
  slots : int;
  (* out_of.(i).(s) = output fed by input i in slot s, or -1.
     in_of.(o).(s) = input feeding output o in slot s, or -1. Both are
     port-major, so a scan of one port over the frame is contiguous.
     Rows are sized by use: each starts empty and grows geometrically
     (capped at [slots]) when a slot past its end is written, and a
     slot past a row's end is free. First-fit insertion fills slots
     from 0 upward, so a row stays about as long as its port's busiest
     reservation count. *)
  out_of : int array array;
  in_of : int array array;
}

let create ~n ~frame =
  if n < 1 || frame < 1 then invalid_arg "Schedule.create";
  { size = n; slots = frame; out_of = Array.make n [||]; in_of = Array.make n [||] }

let n t = t.size
let frame t = t.slots

(* Entry of [row] at [s >= 0]; a slot past the row's end is free. *)
let get row s = if s < Array.length row then Array.unsafe_get row s else -1

(* Ports are checked by the bounds check on [t.out_of]/[t.in_of]; a
   slot needs its own, since [get] reads past a row's end as free. *)
let check_slot t fn slot =
  if slot < 0 || slot >= t.slots then
    invalid_arg (Printf.sprintf "Schedule.%s: slot %d outside frame %d" fn slot t.slots)

(* Write [v] at [slot] of [rows.(p)], growing the row first if needed. *)
let set t rows p slot v =
  let row = rows.(p) in
  let len = Array.length row in
  if slot < len then Array.unsafe_set row slot v
  else begin
    let grown = Array.make (min t.slots (max (slot + 1) (max 8 (2 * len)))) (-1) in
    Array.blit row 0 grown 0 len;
    grown.(slot) <- v;
    rows.(p) <- grown
  end

let output_of t ~slot ~input =
  check_slot t "output_of" slot;
  let o = get t.out_of.(input) slot in
  if o < 0 then None else Some o

let input_of t ~slot ~output =
  check_slot t "input_of" slot;
  let i = get t.in_of.(output) slot in
  if i < 0 then None else Some i

let input_free t ~slot ~input =
  check_slot t "input_free" slot;
  get t.out_of.(input) slot < 0

let output_free t ~slot ~output =
  check_slot t "output_free" slot;
  get t.in_of.(output) slot < 0

let span t =
  Array.fold_left (fun m row -> max m (Array.length row)) 0 t.out_of

let place t ~slot ~input ~output =
  check_slot t "place" slot;
  if get t.out_of.(input) slot >= 0 then
    invalid_arg (Printf.sprintf "Schedule.place: input %d busy in slot %d" input slot);
  if get t.in_of.(output) slot >= 0 then
    invalid_arg (Printf.sprintf "Schedule.place: output %d busy in slot %d" output slot);
  set t t.out_of input slot output;
  set t t.in_of output slot input

let unplace t ~slot ~input ~output =
  check_slot t "unplace" slot;
  assert (get t.out_of.(input) slot = output);
  t.out_of.(input).(slot) <- -1;
  t.in_of.(output).(slot) <- -1

let reserved_count t ~input ~output =
  let row = t.out_of.(input) in
  let count = ref 0 in
  for s = 0 to Array.length row - 1 do
    if row.(s) = output then incr count
  done;
  !count

let to_reservation t =
  let r = Reservation.create t.size in
  Array.iteri
    (fun i row -> Array.iter (fun o -> if o >= 0 then Reservation.add r i o 1) row)
    t.out_of;
  r

type add_outcome = {
  steps : int;
  moves : (int * int * int * int) list;
}

(* First slot at which [a] and [b] are both free, or [None] if every
   slot of the frame is taken in one of them. Every slot at or past
   the longer row's end is free in both. *)
let first_free t a b =
  let stop = max (Array.length a) (Array.length b) in
  let rec scan s =
    if s = stop then (if stop < t.slots then Some stop else None)
    else if get a s < 0 && get b s < 0 then Some s
    else scan (s + 1)
  in
  scan 0

(* The Slepian-Duguid swap chain between slots [p] and [q] (paper
   Figure 3). Inserting a connection into a slot may displace at most
   one existing connection (on the input or the output side, never
   both, given how p and q are chosen); the displaced connection is
   re-inserted into the other slot. Terminates within [n] moves. *)
let add_cell t ~input ~output =
  let in_row = t.out_of.(input) and out_row = t.in_of.(output) in
  match first_free t in_row out_row with
  | Some s ->
    place t ~slot:s ~input ~output;
    Ok { steps = 1; moves = [] }
  | None ->
    let p = first_free t in_row [||] in
    let q = first_free t [||] out_row in
    (match (p, q) with
     | None, _ ->
       Error (Printf.sprintf "input %d fully committed (inadmissible)" input)
     | _, None ->
       Error (Printf.sprintf "output %d fully committed (inadmissible)" output)
     | Some p, Some q ->
       let moves = ref [] in
       let steps = ref 0 in
       let limit = (4 * t.size) + 4 in
       (* Insert (i -> o) into [slot]; displace any conflicting
          connection into [other]. *)
       let rec insert ~slot ~other i o =
         if !steps > limit then
           failwith "Schedule.add_cell: swap chain exceeded bound (bug)";
         incr steps;
         let in_conflict =
           let o' = get t.out_of.(i) slot in
           if o' >= 0 then Some (i, o') else None
         in
         let out_conflict =
           let i' = get t.in_of.(o) slot in
           if i' >= 0 then Some (i', o) else None
         in
         (match (in_conflict, out_conflict) with
          | Some _, Some _ ->
            (* Cannot happen: each insertion slot has the relevant side
               free by construction. *)
            assert false
          | Some (ci, co), None | None, Some (ci, co) ->
            unplace t ~slot ~input:ci ~output:co;
            place t ~slot ~input:i ~output:o;
            moves := (slot, other, ci, co) :: !moves;
            insert ~slot:other ~other:slot ci co
          | None, None -> place t ~slot ~input:i ~output:o)
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
  if cells < 0 then invalid_arg "Schedule.add_reservation";
  go cells 0

(* Frees the highest slot holding the connection. *)
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
  scan (Array.length row - 1)

let valid t =
  let consistent rows other =
    let ok = ref true in
    Array.iteri
      (fun p row ->
        Array.iteri (fun s q -> if q >= 0 && get other.(q) s <> p then ok := false) row)
      rows;
    !ok
  in
  consistent t.out_of t.in_of && consistent t.in_of t.out_of

let copy t =
  {
    size = t.size;
    slots = t.slots;
    out_of = Array.map Array.copy t.out_of;
    in_of = Array.map Array.copy t.in_of;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for s = 0 to t.slots - 1 do
    Format.fprintf fmt "  slot %d |" (s + 1);
    for i = 0 to t.size - 1 do
      let o = get t.out_of.(i) s in
      if o >= 0 then Format.fprintf fmt " %d->%d" (i + 1) (o + 1)
      else Format.fprintf fmt "     "
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
