type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
}

let empty_stats = { accesses = 0; hits = 0; misses = 0; evictions = 0 }

let record stats outcome =
  match outcome with
  | Policy.Hit ->
    { stats with accesses = stats.accesses + 1; hits = stats.hits + 1 }
  | Policy.Miss { evicted } ->
    {
      accesses = stats.accesses + 1;
      hits = stats.hits;
      misses = stats.misses + 1;
      evictions = (stats.evictions + if evicted = None then 0 else 1);
    }

let run instance trace =
  Array.fold_left
    (fun stats page -> record stats (instance.Policy.access page))
    empty_stats trace

let miss_rate stats =
  if stats.accesses = 0 then 0.0
  else float_of_int stats.misses /. float_of_int stats.accesses
