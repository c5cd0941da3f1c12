open Atp_paging
module Obs = Atp_obs
module Int_table = Atp_util.Int_table

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

type 'a t = {
  policy : Policy.instance;
  payloads : 'a Int_table.Poly.t;
  tr : Obs.Trace.t;
  c_lookups : Obs.Counter.t;
  c_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_insertions : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
}

let create ?obs ~entries () =
  if entries < 1 then invalid_arg "Tlb.create: need at least one entry";
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  {
    policy = Policy.instantiate (module Lru) ~capacity:entries ();
    payloads = Int_table.Poly.create ~initial_capacity:(2 * entries) ();
    tr = Obs.Scope.tracer obs;
    c_lookups = Obs.Scope.counter obs "lookups";
    c_hits = Obs.Scope.counter obs "hits";
    c_misses = Obs.Scope.counter obs "misses";
    c_insertions = Obs.Scope.counter obs "insertions";
    c_evictions = Obs.Scope.counter obs "evictions";
  }

let size t = t.policy.Policy.size ()

let mem t key = t.policy.Policy.mem key

let lookup t key =
  Obs.Counter.incr t.c_lookups;
  if t.policy.Policy.mem key then begin
    (* Count the hit and refresh recency via the policy. *)
    (match t.policy.Policy.access key with
     | Policy.Hit -> ()
     | Policy.Miss _ -> assert false);
    Obs.Counter.incr t.c_hits;
    Obs.Trace.record t.tr Obs.Event.Tlb_hit key 0;
    Int_table.Poly.find t.payloads key
  end
  else begin
    Obs.Counter.incr t.c_misses;
    Obs.Trace.record t.tr Obs.Event.Tlb_miss key 0;
    None
  end

let insert t key payload =
  let evicted =
    match t.policy.Policy.access key with
    | Policy.Hit -> None
    | Policy.Miss { evicted = None } -> None
    | Policy.Miss { evicted = Some victim } ->
      let victim_payload = Int_table.Poly.find_exn t.payloads victim in
      ignore (Int_table.Poly.remove t.payloads victim);
      Some (victim, victim_payload)
  in
  Int_table.Poly.set t.payloads key payload;
  Obs.Counter.incr t.c_insertions;
  (match evicted with
   | None -> ()
   | Some (victim, _) ->
     Obs.Counter.incr t.c_evictions;
     Obs.Trace.record t.tr Obs.Event.Eviction victim key);
  evicted

let invalidate t key =
  if t.policy.Policy.remove key then begin
    ignore (Int_table.Poly.remove t.payloads key);
    true
  end
  else false

let flush t =
  List.iter
    (fun key -> ignore (t.policy.Policy.remove key))
    (t.policy.Policy.resident ());
  Int_table.Poly.clear t.payloads

(* The obs counters are the only store; the stats record is a view of
   them, so the exported snapshot can never desynchronize from it. *)
let stats t =
  {
    lookups = Obs.Counter.value t.c_lookups;
    hits = Obs.Counter.value t.c_hits;
    misses = Obs.Counter.value t.c_misses;
    insertions = Obs.Counter.value t.c_insertions;
    evictions = Obs.Counter.value t.c_evictions;
  }

let reset_stats t =
  Obs.Counter.reset t.c_lookups;
  Obs.Counter.reset t.c_hits;
  Obs.Counter.reset t.c_misses;
  Obs.Counter.reset t.c_insertions;
  Obs.Counter.reset t.c_evictions
