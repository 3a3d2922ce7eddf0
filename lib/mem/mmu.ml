open Vax_arch

type modify_policy = Hardware_sets_m | Modify_fault_policy

type fault =
  | Access_violation of {
      va : Word.t;
      length_violation : bool;
      ptbl_ref : bool;
      write : bool;
    }
  | Translation_not_valid of { va : Word.t; ptbl_ref : bool; write : bool }
  | Modify_fault of { va : Word.t }

let pp_fault ppf = function
  | Access_violation { va; length_violation; ptbl_ref; write } ->
      Format.fprintf ppf "ACV(va=%a%s%s%s)" Word.pp va
        (if length_violation then " len" else "")
        (if ptbl_ref then " pt" else "")
        (if write then " w" else "")
  | Translation_not_valid { va; ptbl_ref; write } ->
      Format.fprintf ppf "TNV(va=%a%s%s)" Word.pp va
        (if ptbl_ref then " pt" else "")
        (if write then " w" else "")
  | Modify_fault { va } -> Format.fprintf ppf "MF(va=%a)" Word.pp va

let fault_vector = function
  | Access_violation _ -> Scb.access_violation
  | Translation_not_valid _ -> Scb.translation_not_valid
  | Modify_fault _ -> Scb.modify_fault

let fault_va = function
  | Access_violation { va; _ } | Translation_not_valid { va; _ }
  | Modify_fault { va } ->
      va

let fault_param f ~write =
  let bits len pt w =
    (if len then 1 else 0) lor (if pt then 2 else 0) lor if w || write then 4 else 0
  in
  match f with
  | Access_violation { length_violation; ptbl_ref; write = w; _ } ->
      bits length_violation ptbl_ref w
  | Translation_not_valid { ptbl_ref; write = w; _ } -> bits false ptbl_ref w
  | Modify_fault _ -> bits false false true

type t = {
  phys : Phys_mem.t;
  tlb : Tlb.t;
  clock : Cycles.t;
  mutable policy : modify_policy;
  mutable mapen : bool;
  mutable p0br : Word.t;
  mutable p0lr : int;
  mutable p1br : Word.t;
  mutable p1lr : int;
  mutable sbr : Word.t;
  mutable slr : int;
  mutable walks : int;
  mutable modify_faults : int;
  mutable trace : Vax_obs.Trace.t;
      (* Trace.null unless the owning machine wires a live trace in;
         every emit site is guarded by [Trace.enabled] so a disabled
         trace costs one load and one branch. *)
  mutable tb_gen : int;
      (* bumped whenever cached translations may have become stale:
         TBIA/TBIS, LDPCTX process invalidation, MAPEN changes.  Consumers
         caching translation-derived state (the decoded instruction cache)
         compare against it. *)
}

let create ?tlb_capacity ?(policy = Hardware_sets_m) ~phys ~clock () =
  {
    phys;
    tlb = Tlb.create ?capacity:tlb_capacity ();
    clock;
    policy;
    mapen = false;
    p0br = 0;
    p0lr = 0;
    p1br = 0;
    p1lr = 0;
    sbr = 0;
    slr = 0;
    walks = 0;
    modify_faults = 0;
    trace = Vax_obs.Trace.null;
    tb_gen = 0;
  }

let trace t = t.trace
let set_trace t tr = t.trace <- tr

let phys t = t.phys
let tlb t = t.tlb
let clock t = t.clock
let policy t = t.policy
let set_policy t p = t.policy <- p
let mapen t = t.mapen

let set_mapen t b =
  if t.mapen <> b then begin
    t.tb_gen <- t.tb_gen + 1;
    (* a MAPEN flip changes every lookup's outcome; the fetch fast path
       keys on the TB mutation generation, so count it there too *)
    Tlb.touch t.tlb
  end;
  t.mapen <- b

let p0br t = t.p0br
let p0lr t = t.p0lr
let p1br t = t.p1br
let p1lr t = t.p1lr
let sbr t = t.sbr
let slr t = t.slr
let set_p0br t v = t.p0br <- v
let set_p0lr t v = t.p0lr <- v
let set_p1br t v = t.p1br <- v
let set_p1lr t v = t.p1lr <- v
let set_sbr t v = t.sbr <- v
let set_slr t v = t.slr <- v

let tbia t =
  t.tb_gen <- t.tb_gen + 1;
  Tlb.invalidate_all t.tlb;
  if Vax_obs.Trace.enabled t.trace then
    Vax_obs.Trace.emit t.trace Vax_obs.Trace.Tlb_invalidate 0

let tbis t va =
  t.tb_gen <- t.tb_gen + 1;
  Tlb.invalidate_single t.tlb va;
  if Vax_obs.Trace.enabled t.trace then
    Vax_obs.Trace.emit t.trace Vax_obs.Trace.Tlb_invalidate ~b:(Word.mask va) 1

let tb_invalidate_process t =
  t.tb_gen <- t.tb_gen + 1;
  Tlb.invalidate_process t.tlb;
  if Vax_obs.Trace.enabled t.trace then
    Vax_obs.Trace.emit t.trace Vax_obs.Trace.Tlb_invalidate 2

let tb_generation t = t.tb_gen
let walks t = t.walks
let modify_faults_delivered t = t.modify_faults

(* Fetch the PTE for [va], together with its physical address, respecting
   the region geometry.  [ptbl_ref] is the flag of the enclosing
   translation: true when [va] is itself a page-table address, so faults
   are constructed correctly at the source.  Does not consult or fill the
   TLB for [va] itself, but the inner S translation of a process PTE
   address naturally goes through the full path. *)
let rec fetch_pte t ~write ~ptbl_ref va =
  let region = Addr.region_of va in
  let vpn = Addr.vpn va in
  let fail_len () =
    Error (Access_violation { va; length_violation = true; ptbl_ref; write })
  in
  match region with
  | Addr.Reserved_region -> fail_len ()
  | Addr.S ->
      if not (Addr.in_length Addr.S ~vpn ~length_register:t.slr) then fail_len ()
      else begin
        t.walks <- t.walks + 1;
        Cycles.charge t.clock Cost.tlb_miss_walk;
        let pte_pa = Word.add t.sbr (4 * vpn) in
        Ok (Phys_mem.read_long t.phys pte_pa, pte_pa)
      end
  | Addr.P0 | Addr.P1 ->
      let br, lr = match region with
        | Addr.P0 -> (t.p0br, t.p0lr)
        | _ -> (t.p1br, t.p1lr)
      in
      if not (Addr.in_length region ~vpn ~length_register:lr) then fail_len ()
      else begin
        t.walks <- t.walks + 1;
        Cycles.charge t.clock Cost.tlb_miss_walk;
        let pte_va = Word.add br (4 * vpn) in
        (* The process page tables live in S space; translate the PTE's
           own address through the system path, tagging its faults as
           page-table references. *)
        match translate_inner t ~mode:Mode.Kernel ~write:false ~ptbl_ref:true
                pte_va
        with
        | Error e -> Error e
        | Ok pte_pa -> Ok (Phys_mem.read_long t.phys pte_pa, pte_pa)
      end

(* The full translation algorithm for one byte.  [ptbl_ref] marks inner
   page-table-page translations so their faults carry the PT flag. *)
and translate_inner t ~mode ~write ~ptbl_ref va =
  if not t.mapen then Ok (Word.mask va)
  else begin
    (* additive cost model: every mapped reference pays the TB consult,
       and a miss adds the walk cost per PTE fetch (see cost.mli); the
       zero-cost guard just skips a no-op charge *)
    if Cost.tlb_hit <> 0 then Cycles.charge t.clock Cost.tlb_hit;
    let e = Tlb.find_or_null t.tlb va in
    if e != Tlb.null_entry then begin
      Tlb.count_hit t.tlb;
      if
        e.Tlb.acc lsr ((if write then 4 else 0) + Mode.to_int mode) land 1 = 0
      then
        Error
          (Access_violation { va; length_violation = false; ptbl_ref; write })
      else if write && not e.Tlb.m then apply_modify_policy t ~ptbl_ref va e
      else Ok (Word.logor (Addr.phys_of_pfn e.Tlb.pfn) (Addr.offset va))
    end
    else begin
        Tlb.count_miss t.tlb;
        match fetch_pte t ~write ~ptbl_ref va with
        | Error e -> Error e
        | Ok (pte, pte_pa) ->
            let prot = Pte.prot pte in
            if not ((if write then Protection.can_write else Protection.can_read)
                      prot mode)
            then
              Error
                (Access_violation
                   { va; length_violation = false; ptbl_ref; write })
            else if not (Pte.valid pte) then
              Error (Translation_not_valid { va; ptbl_ref; write })
            else begin
              let entry =
                {
                  Tlb.pfn = Pte.pfn pte;
                  prot;
                  acc = Protection.access_mask prot;
                  m = Pte.modify pte;
                  system = Addr.region_of va = Addr.S;
                }
              in
              let tracing = Vax_obs.Trace.enabled t.trace in
              let ev0 = if tracing then Tlb.evictions t.tlb else 0 in
              Tlb.insert t.tlb va entry;
              if tracing then begin
                if Tlb.evictions t.tlb <> ev0 then
                  Vax_obs.Trace.emit t.trace Vax_obs.Trace.Tlb_evict
                    (Word.mask va);
                Vax_obs.Trace.emit t.trace Vax_obs.Trace.Tlb_fill
                  ~b:entry.Tlb.pfn (Word.mask va)
              end;
              if write && not entry.Tlb.m then begin
                match t.policy with
                | Hardware_sets_m ->
                    (* silently set PTE<M> in memory and in the TB *)
                    Phys_mem.write_long t.phys pte_pa (Pte.with_modify pte true);
                    entry.Tlb.m <- true;
                    Ok (Word.logor (Addr.phys_of_pfn entry.Tlb.pfn)
                          (Addr.offset va))
                | Modify_fault_policy ->
                    t.modify_faults <- t.modify_faults + 1;
                    Error (Modify_fault { va })
              end
              else
                Ok (Word.logor (Addr.phys_of_pfn entry.Tlb.pfn)
                      (Addr.offset va))
            end
    end
  end

and apply_modify_policy t ~ptbl_ref va e =
  match t.policy with
  | Hardware_sets_m -> (
      (* must update the in-memory PTE as well as the cached copy *)
      match fetch_pte t ~write:true ~ptbl_ref va with
      | Error err -> Error err
      | Ok (pte, pte_pa) ->
          Phys_mem.write_long t.phys pte_pa (Pte.with_modify pte true);
          e.Tlb.m <- true;
          Ok (Word.logor (Addr.phys_of_pfn e.Tlb.pfn) (Addr.offset va)))
  | Modify_fault_policy ->
      t.modify_faults <- t.modify_faults + 1;
      Error (Modify_fault { va })

let translate t ~mode ~write va =
  translate_inner t ~mode ~write ~ptbl_ref:false va

let no_translation = -1

(* Allocation-free fast path for the two hot outcomes: mapping disabled,
   and a TLB hit that needs no walk and no modify-policy action.  Charges
   and counts exactly what [translate] would for the same outcome; when it
   returns [no_translation] nothing has been charged or counted, and the
   caller must take [translate]. *)
let try_translate t ~mode ~write va =
  if not t.mapen then Word.mask va
  else begin
    let e = Tlb.find_or_null t.tlb va in
    if
      e != Tlb.null_entry
      && e.Tlb.acc lsr ((if write then 4 else 0) + Mode.to_int mode) land 1
         <> 0
      && ((not write) || e.Tlb.m)
    then begin
      Tlb.count_hit t.tlb;
      if Cost.tlb_hit <> 0 then Cycles.charge t.clock Cost.tlb_hit;
      Word.logor (Addr.phys_of_pfn e.Tlb.pfn) (Addr.offset va)
    end
    else no_translation
  end

(* The translation [try_translate ~write:true] would return for a
   mapped [va], without charging or counting the hit.  Kept apart from
   [try_translate]: sharing the check moved that hot path's code and
   cost compute-bare about 2%. *)
let tlb_write_pa t ~mode va =
  let e = Tlb.find_or_null t.tlb va in
  if
    e != Tlb.null_entry
    && e.Tlb.acc lsr (4 + Mode.to_int mode) land 1 <> 0
    && e.Tlb.m
  then Word.logor (Addr.phys_of_pfn e.Tlb.pfn) (Addr.offset va)
  else no_translation

type probe_outcome = { accessible : bool; pte_valid : bool }

let probe t ~mode ~write va =
  if not t.mapen then Ok { accessible = true; pte_valid = true }
  else
    let check prot valid =
      let ok =
        (if write then Protection.can_write else Protection.can_read) prot mode
      in
      Ok { accessible = ok; pte_valid = valid }
    in
    match Tlb.lookup t.tlb va with
    | Some e -> check e.Tlb.prot true
    | None -> (
        match fetch_pte t ~write ~ptbl_ref:false va with
        | Error (Access_violation { length_violation = true; ptbl_ref = false; _ })
          ->
            (* beyond the region length: simply not accessible *)
            Ok { accessible = false; pte_valid = true }
        | Error e -> Error e
        | Ok (pte, _) -> check (Pte.prot pte) (Pte.valid pte))

let read_pte t va =
  match fetch_pte t ~write:false ~ptbl_ref:false va with
  | Error e -> Error e
  | Ok (pte, pa) -> Ok (pte, pa)

(* Virtual accessors.  A multi-byte access contained in one page uses one
   translation; one that crosses a page boundary is done bytewise.  Each
   takes the allocation-free translation fast path first and falls back to
   the full algorithm on a miss, fault, or modify-policy action. *)

let charge_mem t = Cycles.charge t.clock Cost.memory_access

let same_page va len = Addr.offset va + len <= Addr.page_size

(* Allocation-free virtual accessors for the hot path.  Each combines
   [try_translate] with the physical access: reads return the value or
   [no_translation] (-1, never a valid byte/word/long) when the caller
   must take the full [v_read_*] path; writes return [false] in the same
   situation.  On success they charge and count exactly what the full
   accessor would; on the sentinel return nothing has been charged,
   counted, or stored. *)

let v_read_byte_fast t ~mode va =
  let pa = try_translate t ~mode ~write:false va in
  if pa >= 0 then begin
    charge_mem t;
    Phys_mem.read_byte t.phys pa
  end
  else no_translation

let v_read_word_fast t ~mode va =
  if same_page va 2 then begin
    let pa = try_translate t ~mode ~write:false va in
    if pa >= 0 then begin
      charge_mem t;
      Phys_mem.read_word t.phys pa
    end
    else no_translation
  end
  else no_translation

let v_read_long_fast t ~mode va =
  if same_page va 4 then begin
    let pa = try_translate t ~mode ~write:false va in
    if pa >= 0 then begin
      charge_mem t;
      Phys_mem.read_long t.phys pa
    end
    else no_translation
  end
  else no_translation

let v_write_byte_fast t ~mode va b =
  let pa = try_translate t ~mode ~write:true va in
  if pa >= 0 then begin
    charge_mem t;
    Phys_mem.write_byte t.phys pa b;
    true
  end
  else false

let v_write_word_fast t ~mode va w =
  if same_page va 2 then begin
    let pa = try_translate t ~mode ~write:true va in
    if pa >= 0 then begin
      charge_mem t;
      Phys_mem.write_word t.phys pa w;
      true
    end
    else false
  end
  else false

let v_write_long_fast t ~mode va w =
  if same_page va 4 then begin
    let pa = try_translate t ~mode ~write:true va in
    if pa >= 0 then begin
      charge_mem t;
      Phys_mem.write_long t.phys pa w;
      true
    end
    else false
  end
  else false

let v_write_longs_fast t ~mode va words n =
  same_page va (4 * n)
  &&
  let pa = if t.mapen then tlb_write_pa t ~mode va else Word.mask va in
  pa >= 0
  && Phys_mem.in_ram t.phys (pa + (4 * n) - 1)
  && begin
       if t.mapen then begin
         Tlb.count_hits t.tlb n;
         if Cost.tlb_hit <> 0 then Cycles.charge t.clock (n * Cost.tlb_hit)
       end;
       Cycles.charge t.clock (n * Cost.memory_access);
       for i = n - 1 downto 0 do
         Phys_mem.write_long t.phys (pa + (4 * i)) words.(i)
       done;
       true
     end

let v_read_byte t ~mode va =
  let pa = try_translate t ~mode ~write:false va in
  if pa >= 0 then begin
    charge_mem t;
    Ok (Phys_mem.read_byte t.phys pa)
  end
  else
    match translate t ~mode ~write:false va with
    | Error e -> Error e
    | Ok pa ->
        charge_mem t;
        Ok (Phys_mem.read_byte t.phys pa)

let v_write_byte t ~mode va b =
  let pa = try_translate t ~mode ~write:true va in
  if pa >= 0 then begin
    charge_mem t;
    Ok (Phys_mem.write_byte t.phys pa b)
  end
  else
    match translate t ~mode ~write:true va with
    | Error e -> Error e
    | Ok pa ->
        charge_mem t;
        Ok (Phys_mem.write_byte t.phys pa b)

(* Like [bytes_write] below, a page-crossing read resolves every byte's
   translation before touching physical memory.  A bytewise
   charge-read interleave could observe the first page and then take a
   fault (translation, or an injected parity error) on the second —
   a partially-performed read the restarted instruction would repeat.
   Two-phase, the fault fires before any physical byte is read.  The
   charge sequence is identical to the old bytewise path because
   physical reads themselves charge nothing. *)
let bytes_read t ~mode va n =
  let pas = Array.make (max n 1) 0 in
  let rec resolve i =
    if i = n then Ok ()
    else begin
      let bva = Word.add va i in
      let pa = try_translate t ~mode ~write:false bva in
      if pa >= 0 then begin
        charge_mem t;
        pas.(i) <- pa;
        resolve (i + 1)
      end
      else
        match translate t ~mode ~write:false bva with
        | Error e -> Error e
        | Ok pa ->
            charge_mem t;
            pas.(i) <- pa;
            resolve (i + 1)
    end
  in
  match resolve 0 with
  | Error e -> Error e
  | Ok () ->
      let rec assemble i acc shift =
        if i = n then acc
        else
          assemble (i + 1)
            (acc lor (Phys_mem.read_byte t.phys pas.(i) lsl shift))
            (shift + 8)
      in
      Ok (assemble 0 0 0)

(* A page-crossing write must be restartable: a VAX instruction that
   faults partway must leave memory as if it never executed (the
   paper's modify-fault scheme depends on faulting writes replaying
   cleanly).  Resolve every byte's translation — faulting, charging
   and filling the TB exactly as the bytewise path would — before any
   byte is stored, so a fault on the second page leaves the first page
   unmodified. *)
let bytes_write t ~mode va n v =
  let pas = Array.make (max n 1) 0 in
  let rec resolve i =
    if i = n then Ok ()
    else begin
      let bva = Word.add va i in
      let pa = try_translate t ~mode ~write:true bva in
      if pa >= 0 then begin
        charge_mem t;
        pas.(i) <- pa;
        resolve (i + 1)
      end
      else
        match translate t ~mode ~write:true bva with
        | Error e -> Error e
        | Ok pa ->
            charge_mem t;
            pas.(i) <- pa;
            resolve (i + 1)
    end
  in
  match resolve 0 with
  | Error e -> Error e
  | Ok () ->
      let rec store i v =
        if i < n then begin
          Phys_mem.write_byte t.phys pas.(i) (v land 0xFF);
          store (i + 1) (v lsr 8)
        end
      in
      store 0 v;
      Ok ()

let v_read_long t ~mode va =
  if same_page va 4 then begin
    let pa = try_translate t ~mode ~write:false va in
    if pa >= 0 then begin
      charge_mem t;
      Ok (Phys_mem.read_long t.phys pa)
    end
    else
      match translate t ~mode ~write:false va with
      | Error e -> Error e
      | Ok pa ->
          charge_mem t;
          Ok (Phys_mem.read_long t.phys pa)
  end
  else bytes_read t ~mode va 4

let v_write_long t ~mode va w =
  if same_page va 4 then begin
    let pa = try_translate t ~mode ~write:true va in
    if pa >= 0 then begin
      charge_mem t;
      Ok (Phys_mem.write_long t.phys pa w)
    end
    else
      match translate t ~mode ~write:true va with
      | Error e -> Error e
      | Ok pa ->
          charge_mem t;
          Ok (Phys_mem.write_long t.phys pa w)
  end
  else bytes_write t ~mode va 4 w

let v_read_word t ~mode va =
  if same_page va 2 then begin
    let pa = try_translate t ~mode ~write:false va in
    if pa >= 0 then begin
      charge_mem t;
      Ok (Phys_mem.read_word t.phys pa)
    end
    else
      match translate t ~mode ~write:false va with
      | Error e -> Error e
      | Ok pa ->
          charge_mem t;
          Ok (Phys_mem.read_word t.phys pa)
  end
  else bytes_read t ~mode va 2

let v_write_word t ~mode va w =
  if same_page va 2 then begin
    let pa = try_translate t ~mode ~write:true va in
    if pa >= 0 then begin
      charge_mem t;
      Ok (Phys_mem.write_word t.phys pa w)
    end
    else
      match translate t ~mode ~write:true va with
      | Error e -> Error e
      | Ok pa ->
          charge_mem t;
          Ok (Phys_mem.write_word t.phys pa w)
  end
  else bytes_write t ~mode va 2 w
