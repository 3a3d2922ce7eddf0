type t = Kernel | Executive | Supervisor | User

let to_int = function Kernel -> 0 | Executive -> 1 | Supervisor -> 2 | User -> 3

let of_int = function
  | 0 -> Kernel
  | 1 -> Executive
  | 2 -> Supervisor
  | 3 -> User
  | n -> invalid_arg (Printf.sprintf "Mode.of_int %d" n)

let all = [ Kernel; Executive; Supervisor; User ]

let more_privileged a b = to_int a < to_int b
let at_least_as_privileged a b = to_int a <= to_int b
let least_privileged a b = if to_int a >= to_int b then a else b
let most_privileged a b = if to_int a <= to_int b then a else b

let name = function
  | Kernel -> "kernel"
  | Executive -> "executive"
  | Supervisor -> "supervisor"
  | User -> "user"

let pp ppf m = Format.pp_print_string ppf (name m)
let equal a b = to_int a = to_int b
let compare a b = Int.compare (to_int a) (to_int b)
