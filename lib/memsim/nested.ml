type result = {
  hframe : int option;
  memory_accesses : int;
  cycles : int;
}

(* Guest page-table nodes are modeled as living at deterministic
   guest-physical addresses derived from their radix-path prefix, in a
   region far above ordinary guest data; the host backs them on
   demand.  This preserves the two properties that matter for cost:
   every guest-walk step needs a host translation, and consecutive
   walks with shared prefixes enjoy host-side locality. *)

(* Must stay within the host table's virtual range (4 levels of 9
   bits); ordinary guest data gPAs are expected below this base. *)
let pt_region_base = 1 lsl 34

type t = {
  guest : Page_table.t;
  host : Page_table.t;
  host_walker : Walker.t;
  host_tlb : int Atp_tlb.Tlb.t;  (* gPA page -> hPA frame *)
  mutable next_host_frame : int;
  mutable walks : int;
  mutable total_cycles : int;
}

let config = Walker.default_config

let create () =
  let host = Page_table.create () in
  {
    guest = Page_table.create ();
    host;
    host_walker = Walker.create ~config host;
    host_tlb = Atp_tlb.Tlb.create ~entries:64 ();
    next_host_frame = 0;
    walks = 0;
    total_cycles = 0;
  }

let guest_map t ~gva ~gpa = Page_table.map t.guest ~vpage:gva ~frame:gpa ()

let host_map t ~gpa ~hpa = Page_table.map t.host ~vpage:gpa ~frame:hpa ()

let fresh_host_frame t =
  let f = t.next_host_frame in
  t.next_host_frame <- t.next_host_frame + 1;
  f

(* Translate one guest-physical page through the host dimension,
   backing it on demand; returns (hframe, memory_accesses, cycles). *)
let host_translate t gpa =
  match Atp_tlb.Tlb.lookup t.host_tlb gpa with
  | Some hframe -> (hframe, 0, 1)
  | None ->
    let walk () = Walker.translate t.host_walker gpa in
    let r = walk () in
    let r, hframe =
      match r.Walker.mapping with
      | Some m -> (r, m.Page_table.frame)
      | None ->
        (* Back the page on demand and redo the (now successful) walk
           for honest cost accounting of the populated table. *)
        let hpa = fresh_host_frame t in
        Page_table.map t.host ~vpage:gpa ~frame:hpa ();
        let r = walk () in
        (r, hpa)
    in
    ignore (Atp_tlb.Tlb.insert t.host_tlb gpa hframe);
    (hframe, r.Walker.memory_accesses, r.Walker.cycles)

(* The gPA page holding the guest node at the given radix depth for
   this gva. *)
let node_gpa gva ~depth =
  let prefix = gva lsr ((depth + 1) * Page_table.fanout_bits) in
  pt_region_base + (prefix * Page_table.levels) + depth

let translate t gva =
  (* Walk the guest dimension; each visited node costs one guest
     memory access plus a host translation of the node's gPA. *)
  let mapping, guest_visits = Page_table.walk t.guest gva in
  let memory = ref 0 and cycles = ref 0 in
  for depth = Page_table.levels - 1 downto Page_table.levels - guest_visits do
    let _, m, c = host_translate t (node_gpa gva ~depth) in
    memory := !memory + m + 1;
    cycles := !cycles + c + config.memory_latency
  done;
  let hframe =
    match mapping with
    | None -> None
    | Some m ->
      (* Finally translate the data page's gPA. *)
      let hframe, mem, cyc = host_translate t m.Page_table.frame in
      memory := !memory + mem;
      cycles := !cycles + cyc;
      Some hframe
  in
  t.walks <- t.walks + 1;
  t.total_cycles <- t.total_cycles + !cycles;
  { hframe; memory_accesses = !memory; cycles = !cycles }

let average_cycles t =
  if t.walks = 0 then 0.0
  else float_of_int t.total_cycles /. float_of_int t.walks

let epsilon t ~io_latency_cycles =
  if io_latency_cycles <= 0 then invalid_arg "Nested.epsilon: bad IO latency";
  average_cycles t /. float_of_int io_latency_cycles
