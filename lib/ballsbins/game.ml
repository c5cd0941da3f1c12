open Atp_util

type t = {
  bins : int;
  layers : int;
  layer_loads : int array;     (* layer * bins + bin *)
  total : int array;           (* per-bin load across layers *)
  ball_bin : Int_table.t;
  ball_layer : Int_table.t;
  mutable balls : int;
  (* Histogram of bin loads, for O(1) max-load maintenance. *)
  mutable load_count : int array;
  mutable current_max : int;
}

let create ?(layers = 1) ~bins () =
  if bins < 1 then invalid_arg "Game.create: need at least one bin";
  if layers < 1 then invalid_arg "Game.create: need at least one layer";
  {
    bins;
    layers;
    layer_loads = Array.make (layers * bins) 0;
    total = Array.make bins 0;
    ball_bin = Int_table.create ();
    ball_layer = Int_table.create ();
    balls = 0;
    load_count = (let c = Array.make 8 0 in c.(0) <- bins; c);
    current_max = 0;
  }

let bins t = t.bins

let layers t = t.layers

let balls t = t.balls

let check_bin t bin =
  if bin < 0 || bin >= t.bins then invalid_arg "Game: bin out of range"

let check_layer t layer =
  if layer < 0 || layer >= t.layers then invalid_arg "Game: layer out of range"

let load t bin =
  check_bin t bin;
  t.total.(bin)

let layer_load t ~layer bin =
  check_bin t bin;
  check_layer t layer;
  t.layer_loads.(layer * t.bins + bin)

let max_load t = t.current_max

let bin_of t ball = Int_table.find t.ball_bin ball

let ensure_count_capacity t load =
  let cap = Array.length t.load_count in
  if load >= cap then begin
    let ncap = max (2 * cap) (load + 1) in
    let narr = Array.make ncap 0 in
    Array.blit t.load_count 0 narr 0 cap;
    t.load_count <- narr
  end

let bump_load t bin delta =
  let old_load = t.total.(bin) in
  let new_load = old_load + delta in
  ensure_count_capacity t new_load;
  t.load_count.(old_load) <- t.load_count.(old_load) - 1;
  t.load_count.(new_load) <- t.load_count.(new_load) + 1;
  t.total.(bin) <- new_load;
  if new_load > t.current_max then t.current_max <- new_load
  else if old_load = t.current_max && t.load_count.(old_load) = 0 then begin
    let m = ref t.current_max in
    while !m > 0 && t.load_count.(!m) = 0 do decr m done;
    t.current_max <- !m
  end

let place t ~ball ~bin ~layer =
  check_bin t bin;
  check_layer t layer;
  if Int_table.mem t.ball_bin ball then
    invalid_arg "Game.place: ball already present (stability violation)";
  Int_table.set t.ball_bin ball bin;
  Int_table.set t.ball_layer ball layer;
  t.layer_loads.(layer * t.bins + bin) <- t.layer_loads.(layer * t.bins + bin) + 1;
  bump_load t bin 1;
  t.balls <- t.balls + 1

let remove t ~ball =
  match Int_table.find t.ball_bin ball with
  | None -> invalid_arg "Game.remove: ball not present"
  | Some bin ->
    let layer = Int_table.find_exn t.ball_layer ball in
    ignore (Int_table.remove t.ball_bin ball);
    ignore (Int_table.remove t.ball_layer ball);
    t.layer_loads.(layer * t.bins + bin) <- t.layer_loads.(layer * t.bins + bin) - 1;
    bump_load t bin (-1);
    t.balls <- t.balls - 1;
    bin

let loads t = Array.copy t.total
