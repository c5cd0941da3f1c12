open Atp_util

type 'a t = {
  table : 'a Int_table.Poly.t;
  mutable peak : int;
}

let create ?initial_capacity () =
  { table = Int_table.Poly.create ?initial_capacity (); peak = 0 }

let peak t = t.peak

let find t id = Int_table.Poly.find t.table id

let set t id v =
  Int_table.Poly.set t.table id v;
  let n = Int_table.Poly.length t.table in
  if n > t.peak then t.peak <- n

let remove t id = Int_table.Poly.remove t.table id

let iter f t = Int_table.Poly.iter f t.table
