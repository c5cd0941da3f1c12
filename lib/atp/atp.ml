(* Documented in atp.mli. *)

module Util = Atp_util
module Obs = Atp_obs
module Paging = Atp_paging
module Tlb = Atp_tlb
module Memsim = Atp_memsim
module Core = Atp_core
module Workloads = Atp_workloads
