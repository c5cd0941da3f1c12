open Atp_util

let make name virtual_pages description next =
  { Workload.name; virtual_pages; description; next }

let uniform ~virtual_pages rng =
  if virtual_pages < 1 then invalid_arg "Simple.uniform: empty space";
  make "uniform" virtual_pages
    (Printf.sprintf "uniform over %d pages" virtual_pages)
    (fun () -> Prng.int rng virtual_pages)

let sequential ~virtual_pages () =
  if virtual_pages < 1 then invalid_arg "Simple.sequential: empty space";
  let pos = ref (-1) in
  make "sequential" virtual_pages
    (Printf.sprintf "sequential scan over %d pages" virtual_pages)
    (fun () ->
      pos := (!pos + 1) mod virtual_pages;
      !pos)

let zipf ?(s = 1.0) ~virtual_pages rng =
  let sample = Sampler.zipf ~s ~n:virtual_pages in
  make "zipf" virtual_pages
    (Printf.sprintf "Zipf(s=%.2f) over %d pages" s virtual_pages)
    (fun () -> sample rng)
