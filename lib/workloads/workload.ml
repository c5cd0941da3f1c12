type t = {
  name : string;
  virtual_pages : int;
  description : string;
  next : unit -> int;
}

let generate t n = Array.init n (fun _ -> t.next ())
