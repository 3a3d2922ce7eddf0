open Vax_arch
open Vax_cpu
open Vax_mem

let ipl = 21
let mmio_base = Phys_mem.io_space_base
let mmio_size = 512
let block_size = 512
let bit_busy = 1
let bit_error = 1 lsl 5
let bit_ie = 1 lsl 6
let bit_done = 1 lsl 7

type fault = Fault_error | Fault_timeout

type t = {
  sched : Sched.t;
  cpu : State.t;
  phys : Phys_mem.t;
  store : Bytes.t;
  nblocks : int;
  mutable csr : int;
  mutable block : int;
  mutable addr : Word.t;
  mutable ios : int;
  mutable inject : Vax_fault.Engine.t;
  mutable pending_fault : fault option;  (* consumed by the next op *)
}

let blocks t = t.nblocks

let read_block t n =
  assert (n >= 0 && n < t.nblocks);
  Bytes.sub t.store (n * block_size) block_size

let write_block t n data =
  assert (n >= 0 && n < t.nblocks);
  assert (Bytes.length data <= block_size);
  Bytes.blit data 0 t.store (n * block_size) (Bytes.length data)

let transfer t ~write ~block ~phys_addr =
  if block < 0 || block >= t.nblocks then ()
  else if write then begin
    let data = Phys_mem.blit_out t.phys phys_addr block_size in
    Bytes.blit data 0 t.store (block * block_size) block_size
  end
  else
    Phys_mem.blit_in t.phys phys_addr
      (Bytes.sub t.store (block * block_size) block_size)

let trace_io t ~write ~block =
  let tr = t.cpu.State.trace in
  if Vax_obs.Trace.enabled tr then
    Vax_obs.Trace.emit tr Vax_obs.Trace.Dev_io
      ~b:(if write then 1 else 0)
      ~c:block 2

(* Fault injection.  [arm_fault] is the engine's [act_disk] callback:
   the armed fault is consumed by the next operation to start.  The
   [device_op] trigger hook runs first at op start, so a plan entry
   "at the k-th disk op, inject X" makes the k-th op itself fail. *)
let arm_fault t ~timeout =
  t.pending_fault <- Some (if timeout then Fault_timeout else Fault_error)

let set_inject t e = t.inject <- e

let op_start t =
  if Vax_fault.Engine.dev_armed t.inject then
    Vax_fault.Engine.device_op t.inject;
  let f = t.pending_fault in
  if f <> None then t.pending_fault <- None;
  f

let submit t ~write ~block ~phys_addr ~on_complete =
  match op_start t with
  | Some Fault_timeout ->
      (* the operation never completes; the requester's own recovery
         (or the workload's cycle budget) must notice *)
      ()
  | Some Fault_error ->
      (* completes on time, error signalled, no data moved *)
      Sched.after t.sched ~delay:Cost.device_io_latency_cycles (fun () ->
          t.ios <- t.ios + 1;
          trace_io t ~write ~block;
          on_complete false)
  | None ->
      Sched.after t.sched ~delay:Cost.device_io_latency_cycles (fun () ->
          transfer t ~write ~block ~phys_addr;
          t.ios <- t.ios + 1;
          trace_io t ~write ~block;
          on_complete true)

let start_mmio t ~write =
  t.csr <- t.csr lor bit_busy;
  let block = t.block and phys_addr = t.addr in
  match op_start t with
  | Some Fault_timeout -> ()  (* busy forever *)
  | Some Fault_error ->
      Sched.after t.sched ~delay:Cost.device_io_latency_cycles (fun () ->
          t.ios <- t.ios + 1;
          trace_io t ~write ~block;
          t.csr <- (t.csr land lnot bit_busy) lor bit_done lor bit_error;
          if t.csr land bit_ie <> 0 then
            State.post_interrupt t.cpu ~ipl ~vector:Scb.disk)
  | None ->
      Sched.after t.sched ~delay:Cost.device_io_latency_cycles (fun () ->
          transfer t ~write ~block ~phys_addr;
          t.ios <- t.ios + 1;
          trace_io t ~write ~block;
          t.csr <- (t.csr land lnot bit_busy) lor bit_done;
          if t.csr land bit_ie <> 0 then
            State.post_interrupt t.cpu ~ipl ~vector:Scb.disk)

let mmio_read t ~offset ~width:_ =
  match offset land lnot 3 with
  | 0 -> t.csr
  | 4 -> t.block
  | 8 -> t.addr
  | _ -> 0

let mmio_write t ~offset ~width:_ v =
  match offset land lnot 3 with
  | 0 ->
      if v land bit_done <> 0 then begin
        (* writing 1 to DONE clears it and any latched error *)
        t.csr <- t.csr land lnot (bit_done lor bit_error);
        State.retract_interrupt t.cpu ~vector:Scb.disk
      end;
      t.csr <- (t.csr land lnot bit_ie) lor (v land bit_ie);
      if v land 3 = 1 then start_mmio t ~write:false
      else if v land 3 = 2 then start_mmio t ~write:true
  | 4 -> t.block <- Word.mask v
  | 8 -> t.addr <- Word.mask v
  | _ -> ()

let create ~sched ~cpu ~phys ~blocks () =
  let t =
    {
      sched;
      cpu;
      phys;
      store = Bytes.make (blocks * block_size) '\000';
      nblocks = blocks;
      csr = 0;
      block = 0;
      addr = 0;
      ios = 0;
      inject = Vax_fault.Engine.null;
      pending_fault = None;
    }
  in
  Phys_mem.register_io phys
    {
      Phys_mem.io_base = mmio_base;
      io_size = mmio_size;
      io_read = (fun ~offset ~width -> mmio_read t ~offset ~width);
      io_write = (fun ~offset ~width v -> mmio_write t ~offset ~width v);
    };
  t

let io_count t = t.ios
