type t =
  | KSP
  | ESP
  | SSP
  | USP
  | ISP
  | P0BR
  | P0LR
  | P1BR
  | P1LR
  | SBR
  | SLR
  | PCBB
  | SCBB
  | IPL
  | SIRR
  | SISR
  | ICCS
  | NICR
  | ICR
  | TODR
  | RXCS
  | RXDB
  | TXCS
  | TXDB
  | MAPEN
  | TBIA
  | TBIS
  | SID
  | VMPSL
  | VMPEND
  | MEMSIZE
  | KCALL
  | IORESET
  | UPTIME

let to_int = function
  | KSP -> 0
  | ESP -> 1
  | SSP -> 2
  | USP -> 3
  | ISP -> 4
  | P0BR -> 8
  | P0LR -> 9
  | P1BR -> 10
  | P1LR -> 11
  | SBR -> 12
  | SLR -> 13
  | PCBB -> 16
  | SCBB -> 17
  | IPL -> 18
  | SIRR -> 19
  | SISR -> 20
  | ICCS -> 24
  | NICR -> 25
  | ICR -> 26
  | TODR -> 27
  | RXCS -> 32
  | RXDB -> 33
  | TXCS -> 34
  | TXDB -> 35
  | MAPEN -> 56
  | TBIA -> 57
  | TBIS -> 58
  | SID -> 62
  | VMPSL -> 144
  | VMPEND -> 145
  | MEMSIZE -> 160
  | KCALL -> 161
  | IORESET -> 162
  | UPTIME -> 163

let all =
  [
    KSP; ESP; SSP; USP; ISP; P0BR; P0LR; P1BR; P1LR; SBR; SLR; PCBB; SCBB;
    IPL; SIRR; SISR; ICCS; NICR; ICR; TODR; RXCS; RXDB; TXCS; TXDB; MAPEN;
    TBIA; TBIS; SID; VMPSL; VMPEND; MEMSIZE; KCALL; IORESET; UPTIME;
  ]

(* register number -> [Some r], built once so a lookup allocates nothing *)
let by_number =
  let top = List.fold_left (fun m r -> max m (to_int r)) 0 all in
  let t = Array.make (top + 1) None in
  List.iter (fun r -> t.(to_int r) <- Some r) all;
  t

let of_int n =
  if n >= 0 && n < Array.length by_number then by_number.(n) else None

let name = function
  | KSP -> "KSP"
  | ESP -> "ESP"
  | SSP -> "SSP"
  | USP -> "USP"
  | ISP -> "ISP"
  | P0BR -> "P0BR"
  | P0LR -> "P0LR"
  | P1BR -> "P1BR"
  | P1LR -> "P1LR"
  | SBR -> "SBR"
  | SLR -> "SLR"
  | PCBB -> "PCBB"
  | SCBB -> "SCBB"
  | IPL -> "IPL"
  | SIRR -> "SIRR"
  | SISR -> "SISR"
  | ICCS -> "ICCS"
  | NICR -> "NICR"
  | ICR -> "ICR"
  | TODR -> "TODR"
  | RXCS -> "RXCS"
  | RXDB -> "RXDB"
  | TXCS -> "TXCS"
  | TXDB -> "TXDB"
  | MAPEN -> "MAPEN"
  | TBIA -> "TBIA"
  | TBIS -> "TBIS"
  | SID -> "SID"
  | VMPSL -> "VMPSL"
  | VMPEND -> "VMPEND"
  | MEMSIZE -> "MEMSIZE"
  | KCALL -> "KCALL"
  | IORESET -> "IORESET"
  | UPTIME -> "UPTIME"

let pp ppf r = Format.pp_print_string ppf (name r)

type processor = Standard | Modified | Virtual

let exists p = function
  | VMPSL | VMPEND -> p = Modified
  | MEMSIZE | KCALL | IORESET | UPTIME -> p = Virtual
  | _ -> true

let readable = function
  | SIRR | NICR | TBIA | TBIS | KCALL | IORESET -> false
  | _ -> true

let writable = function SID | ICR | MEMSIZE | UPTIME -> false | _ -> true

let write_value p r v =
  if not (exists p r && writable r) then -1
  else
    match r with
    | P0BR -> if Addr.region_of v = Addr.S then v else -1
    | P0LR | P1LR | SBR | SLR | VMPSL -> Word.mask v
    | PCBB -> Word.logand v (Word.lognot 3)
    | SCBB -> Addr.page_align_down v
    | IPL | VMPEND -> v land 31
    | SIRR ->
        let l = Word.mask v in
        if l >= 1 && l <= 15 then l else -1
    | SISR -> v land 0xFFFE
    | MAPEN -> v land 1
    | _ -> v
