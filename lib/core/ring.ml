open Vax_arch

let compress_mode = function
  | Mode.Kernel -> Mode.Executive
  | Mode.Executive -> Mode.Executive
  | Mode.Supervisor -> Mode.Supervisor
  | Mode.User -> Mode.User

let mapping_table = List.map (fun v -> (v, compress_mode v)) Mode.all
