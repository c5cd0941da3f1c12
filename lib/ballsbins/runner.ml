open Atp_util

type result = {
  ops : int;
  inserts : int;
  deletes : int;
  max_load_ever : int;
  max_load_final : int;
  avg_load_final : float;
  failed_balls : int;
  peak_balls : int;
}

let run ?(bin_capacity = max_int) ~game ~strategy ops =
  let inserts = ref 0 in
  let deletes = ref 0 in
  let max_ever = ref 0 in
  let failed = ref 0 in
  let peak = ref 0 in
  (* Balls labeled failed at insertion; the label sticks for the ball's
     lifetime but failed balls don't count toward later failure
     checks (they are "like any other ball" for the game itself, but
     the capacity test counts non-failed occupants). *)
  let failed_set = Int_table.create () in
  let non_failed_load = Int_table.create () in
  let bump bin delta =
    let current = Option.value (Int_table.find non_failed_load bin) ~default:0 in
    Int_table.set non_failed_load bin (current + delta)
  in
  Seq.iter
    (fun op ->
      match op with
      | Adversary.Insert ball ->
        incr inserts;
        let { Strategy.bin; layer } = strategy.Strategy.choose game ball in
        Game.place game ~ball ~bin ~layer;
        let occupancy =
          Option.value (Int_table.find non_failed_load bin) ~default:0
        in
        if occupancy >= bin_capacity then begin
          incr failed;
          Int_table.set failed_set ball 1
        end
        else bump bin 1;
        if Game.max_load game > !max_ever then max_ever := Game.max_load game;
        if Game.balls game > !peak then peak := Game.balls game
      | Adversary.Delete ball ->
        incr deletes;
        let bin = Game.remove game ~ball in
        if Int_table.remove failed_set ball then ()
        else bump bin (-1))
    ops;
  let final_balls = Game.balls game in
  {
    ops = !inserts + !deletes;
    inserts = !inserts;
    deletes = !deletes;
    max_load_ever = !max_ever;
    max_load_final = Game.max_load game;
    avg_load_final = float_of_int final_balls /. float_of_int (Game.bins game);
    failed_balls = !failed;
    peak_balls = !peak;
  }
