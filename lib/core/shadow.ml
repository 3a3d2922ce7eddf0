open Vax_arch
open Vax_mem

let vm_io_base_pfn = Phys_mem.io_space_base lsr Addr.page_shift

let charge mmu n = Cycles.charge (Mmu.clock mmu) n

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let n_vmm_pages (vm : Vm.t) =
  Layout.vmm_stack_pages
  + (Array.length vm.Vm.slots
     * (Layout.shadow_p0_pages + Layout.shadow_p1_pages))
  + Layout.pages_for_ptes vm.Vm.memsize

let real_slr vm = Layout.vmm_s_base_vpn + n_vmm_pages vm
let real_sbr (vm : Vm.t) = Addr.phys_of_pfn vm.Vm.shadow_s_pfn

let spt_entry_pa (vm : Vm.t) vpn = real_sbr vm + (4 * vpn)

let identity_va (vm : Vm.t) =
  Addr.of_region_vpn Addr.S
    (Layout.identity_vpn ~nslots:(Array.length vm.Vm.slots))

(* the one bounds check on VM-physical references *)
let vm_phys_addr (vm : Vm.t) vmpa ~len =
  if vmpa < 0 || vmpa + len > vm.Vm.memsize * Addr.page_size then -1
  else Addr.phys_of_pfn vm.Vm.base_pfn + vmpa

let out_of_range vmpa =
  Printf.sprintf "VM-physical address %08x out of range" vmpa

(* ------------------------------------------------------------------ *)
(* Static table construction                                           *)

let write_null_range phys pa n =
  for i = 0 to n - 1 do
    Phys_mem.write_long phys (pa + (4 * i)) Pte.null
  done

let init_vm_tables phys (vm : Vm.t) =
  (* VM-visible S entries: null *)
  write_null_range phys (real_sbr vm) Layout.vm_s_limit_vpn;
  (* VMM region above the boundary: map each slot's shadow table pages,
     then the identity table pages, all KW *)
  let vpn = ref Layout.vmm_s_base_vpn in
  let map_pages base_pfn n =
    for k = 0 to n - 1 do
      Phys_mem.write_long phys
        (spt_entry_pa vm !vpn)
        (Pte.make ~modify:true ~prot:Protection.KW ~pfn:(base_pfn + k) ());
      incr vpn
    done
  in
  map_pages vm.Vm.shared_stack_pfn Layout.vmm_stack_pages;
  Array.iter
    (fun (s : Vm.slot) ->
      map_pages s.Vm.sp0_pfn Layout.shadow_p0_pages;
      map_pages s.Vm.sp1_pfn Layout.shadow_p1_pages;
      write_null_range phys
        (Addr.phys_of_pfn s.Vm.sp0_pfn)
        Layout.max_p0_entries;
      write_null_range phys
        (Addr.phys_of_pfn s.Vm.sp1_pfn)
        Layout.max_p1_entries)
    vm.Vm.slots;
  let id_pages = Layout.pages_for_ptes vm.Vm.memsize in
  map_pages vm.Vm.identity_pfn id_pages;
  (* identity table: VM-physical page j at real frame base+j, UW *)
  for j = 0 to vm.Vm.memsize - 1 do
    Phys_mem.write_long phys
      (Addr.phys_of_pfn vm.Vm.identity_pfn + (4 * j))
      (Pte.make ~modify:true ~prot:Protection.UW ~pfn:(vm.Vm.base_pfn + j) ())
  done

(* ------------------------------------------------------------------ *)
(* Real register installation                                          *)

let active (vm : Vm.t) = vm.Vm.slots.(vm.Vm.active_slot)

let install_process_registers mmu (vm : Vm.t) =
  let s = active vm in
  Mmu.set_p0br mmu s.Vm.sp0_va;
  Mmu.set_p0lr mmu (min vm.Vm.p0lr Layout.max_p0_entries);
  Mmu.set_p1br mmu (Word.sub s.Vm.sp1_va (4 * Layout.p1_first_vpn));
  Mmu.set_p1lr mmu (max vm.Vm.p1lr Layout.p1_first_vpn);
  Mmu.tb_invalidate_process mmu

let install_mm_registers mmu (vm : Vm.t) =
  Mmu.set_sbr mmu (real_sbr vm);
  Mmu.set_slr mmu (real_slr vm);
  if vm.Vm.mapen then install_process_registers mmu vm
  else begin
    (* VM runs untranslated: VM-physical space appears as P0 through the
       identity table; P1 is empty; S is the VMM's own region only. *)
    Mmu.set_p0br mmu (identity_va vm);
    Mmu.set_p0lr mmu vm.Vm.memsize;
    Mmu.set_p1br mmu 0x8000_0000;
    Mmu.set_p1lr mmu (1 lsl Addr.vpn_width)
  end;
  Mmu.set_mapen mmu true;
  Mmu.tbia mmu

(* ------------------------------------------------------------------ *)
(* Process activation and the shadow-table cache (paper 7.2)           *)

let clear_slot mmu (_vm : Vm.t) (s : Vm.slot) =
  write_null_range (Mmu.phys mmu)
    (Addr.phys_of_pfn s.Vm.sp0_pfn)
    Layout.max_p0_entries;
  write_null_range (Mmu.phys mmu)
    (Addr.phys_of_pfn s.Vm.sp1_pfn)
    Layout.max_p1_entries;
  (* block clear of the table frames *)
  charge mmu
    ((Layout.max_p0_entries + Layout.max_p1_entries) / 16 * Cost.memory_access);
  s.Vm.key <- None

let note_switch (vm : Vm.t) =
  let st = vm.Vm.stats in
  st.Vm.context_switches <- st.Vm.context_switches + 1;
  st.Vm.fills_between_switches_sum <-
    st.Vm.fills_between_switches_sum
    + (st.Vm.shadow_fills - st.Vm.fills_at_last_switch);
  st.Vm.switch_samples <- st.Vm.switch_samples + 1;
  st.Vm.fills_at_last_switch <- st.Vm.shadow_fills

let activate_process mmu (vm : Vm.t) ~cache =
  note_switch vm;
  vm.Vm.lru_clock <- vm.Vm.lru_clock + 1;
  let st = vm.Vm.stats in
  let use (s : Vm.slot) =
    s.Vm.last_used <- vm.Vm.lru_clock;
    s.Vm.sp0_len <- min vm.Vm.p0lr Layout.max_p0_entries;
    s.Vm.sp1_lr <- max vm.Vm.p1lr Layout.p1_first_vpn;
    vm.Vm.active_slot <- s.Vm.slot_index;
    install_process_registers mmu vm
  in
  if not cache then begin
    (* baseline: one slot, invalidated on every context switch *)
    let s = vm.Vm.slots.(0) in
    st.Vm.shadow_cache_misses <- st.Vm.shadow_cache_misses + 1;
    clear_slot mmu vm s;
    s.Vm.key <- Some vm.Vm.p0br;
    use s
  end
  else begin
    let found = ref None in
    Array.iter
      (fun (s : Vm.slot) ->
        if s.Vm.key = Some vm.Vm.p0br then found := Some s)
      vm.Vm.slots;
    match !found with
    | Some s ->
        st.Vm.shadow_cache_hits <- st.Vm.shadow_cache_hits + 1;
        use s
    | None ->
        let victim = ref vm.Vm.slots.(0) in
        Array.iter
          (fun (s : Vm.slot) ->
            if s.Vm.key = None && !victim.Vm.key <> None then victim := s
            else if
              s.Vm.key <> None && !victim.Vm.key <> None
              && s.Vm.last_used < !victim.Vm.last_used
            then victim := s)
          vm.Vm.slots;
        st.Vm.shadow_cache_misses <- st.Vm.shadow_cache_misses + 1;
        clear_slot mmu vm !victim;
        !victim.Vm.key <- Some vm.Vm.p0br;
        use !victim
  end

(* ------------------------------------------------------------------ *)
(* Walking the VM's own page tables                                    *)

let acv va ~len ~pt ~write =
  Mmu.Access_violation
    { va; length_violation = len; ptbl_ref = pt; write }

type walk =
  | Pte_at of { pte : Word.t; pa : Word.t }
  | Walk_fault of Mmu.fault
  | Walk_nxm of string

(* the longword at VM-physical [vmpa] as a VM PTE *)
let pte_at phys vm vmpa =
  let pa = vm_phys_addr vm vmpa ~len:4 in
  if pa < 0 then Walk_nxm (out_of_range vmpa)
  else Pte_at { pte = Phys_mem.read_long phys pa; pa }

let read_vm_pte phys (vm : Vm.t) va =
  let region = Addr.region_of va in
  let vpn = Addr.vpn va in
  match region with
  | Addr.Reserved_region -> Walk_fault (acv va ~len:true ~pt:false ~write:false)
  | Addr.S ->
      if vpn >= vm.Vm.slr || vpn >= Layout.vm_s_limit_vpn then
        Walk_fault (acv va ~len:true ~pt:false ~write:false)
      else pte_at phys vm (Word.add vm.Vm.sbr (4 * vpn))
  | Addr.P0 | Addr.P1 ->
      let br, limit_ok =
        match region with
        | Addr.P0 ->
            (vm.Vm.p0br, vpn < vm.Vm.p0lr && vpn < Layout.max_p0_entries)
        | _ ->
            ( vm.Vm.p1br,
              vpn >= vm.Vm.p1lr && vpn >= Layout.p1_first_vpn )
      in
      let pte_va = Word.add br (4 * vpn) in
      if not limit_ok then Walk_fault (acv va ~len:true ~pt:false ~write:false)
      else if Addr.region_of pte_va <> Addr.S then
        Walk_nxm "VM process page table base not in S space"
      else
        let s_vpn = Addr.vpn pte_va in
        let spte_vmpa = Word.add vm.Vm.sbr (4 * s_vpn) in
        let spte_pa = vm_phys_addr vm spte_vmpa ~len:4 in
        if s_vpn >= vm.Vm.slr then
          Walk_fault (acv va ~len:true ~pt:true ~write:false)
        else if spte_pa < 0 then Walk_nxm (out_of_range spte_vmpa)
        else
          let spte = Phys_mem.read_long phys spte_pa in
          if not (Protection.can_read (Pte.prot spte) Mode.Kernel) then
            Walk_fault (acv va ~len:false ~pt:true ~write:false)
          else if not (Pte.valid spte) then
            Walk_fault
              (Mmu.Translation_not_valid { va; ptbl_ref = true; write = false })
          else
            pte_at phys vm
              ((Pte.pfn spte * Addr.page_size) + Addr.offset pte_va)

(* ------------------------------------------------------------------ *)
(* Shadow PTE addressing                                               *)

let shadow_pte_addr (vm : Vm.t) va =
  let vpn = Addr.vpn va in
  match Addr.region_of va with
  | Addr.S ->
      if vpn < Layout.vm_s_limit_vpn then Some (spt_entry_pa vm vpn) else None
  | Addr.P0 ->
      if vpn < Layout.max_p0_entries then
        Some (Addr.phys_of_pfn (active vm).Vm.sp0_pfn + (4 * vpn))
      else None
  | Addr.P1 ->
      if vpn >= Layout.p1_first_vpn then
        Some
          (Addr.phys_of_pfn (active vm).Vm.sp1_pfn
          + (4 * (vpn - Layout.p1_first_vpn)))
      else None
  | Addr.Reserved_region -> None

(* ------------------------------------------------------------------ *)
(* Demand fill                                                         *)

type fill_result =
  | Filled
  | Reflect of Mmu.fault
  | Io_ref of Word.t
  | Halt_nxm of string

(* strip write access from a protection code (read-only-shadow scheme) *)
let read_only_prot p =
  match Protection.read_mode p with
  | None -> Protection.NA
  | Some m -> (
      match Protection.of_modes ~read:(Some m) ~write:None with
      | Some p' -> p'
      | None -> Protection.NA)

let translate_one ?(ro_scheme = false) mmu (vm : Vm.t) va (pte : Word.t) =
  (* returns the shadow PTE to install, or a classification *)
  let vmpfn = Pte.pfn pte in
  if vmpfn >= vm_io_base_pfn then `Io
  else if vmpfn >= vm.Vm.memsize then
    `Nxm (Printf.sprintf "VM PTE for %08x maps nonexistent frame %x" va vmpfn)
  else begin
    charge mmu Cost.vmm_shadow_fill;
    let prot = Protection.compress (Pte.prot pte) in
    let prot =
      if ro_scheme && not (Pte.modify pte) then read_only_prot prot else prot
    in
    (* under the read-only scheme the shadow M bit is moot (writes are
       blocked by protection until upgrade); under the modify-fault
       scheme it mirrors the VM's M bit *)
    let m = if ro_scheme then true else Pte.modify pte in
    `Pte (Pte.make ~valid:true ~modify:m ~prot ~pfn:(vm.Vm.base_pfn + vmpfn) ())
  end

let install_shadow mmu (vm : Vm.t) va shadow_pte =
  match shadow_pte_addr vm va with
  | None -> ()
  | Some pa ->
      Phys_mem.write_long (Mmu.phys mmu) pa shadow_pte;
      charge mmu Cost.memory_access;
      Mmu.tbis mmu va

let fill mmu (vm : Vm.t) ?(prefill = 0) ?(ro_scheme = false) va =
  if not vm.Vm.mapen then
    Halt_nxm "reference outside VM physical memory while mapping disabled"
  else begin
    charge mmu (2 * Cost.vmm_guest_mem);
    match read_vm_pte (Mmu.phys mmu) vm va with
    | Walk_nxm m -> Halt_nxm m
    | Walk_fault f -> Reflect f
    | Pte_at { pte; _ } ->
        if not (Pte.valid pte) then
          Reflect (Mmu.Translation_not_valid { va; ptbl_ref = false; write = false })
        else (
          match translate_one ~ro_scheme mmu vm va pte with
          | `Io ->
              (* install a valid no-access shadow PTE so subsequent
                 references fault as access violations the monitor can
                 recognise as I/O space *)
              install_shadow mmu vm va
                (Pte.make ~valid:true ~prot:Protection.NA ~pfn:0 ());
              Io_ref (Word.mask ((Pte.pfn pte * Addr.page_size) + Addr.offset va))
          | `Nxm m -> Halt_nxm m
          | `Pte sp ->
              install_shadow mmu vm va sp;
              vm.Vm.stats.Vm.shadow_fills <- vm.Vm.stats.Vm.shadow_fills + 1;
              (let tr = Mmu.trace mmu in
               if Vax_obs.Trace.enabled tr then
                 Vax_obs.Trace.emit tr Vax_obs.Trace.Shadow_fill
                   (Word.mask va));
              (* anticipatory fill of the following PTEs (paper §4.3.1) *)
              let rec pre k =
                if k <= prefill then begin
                  let va_k = Word.add va (k * Addr.page_size) in
                  if Addr.region_of va_k = Addr.region_of va then begin
                    charge mmu (2 * Cost.vmm_guest_mem);
                    (match read_vm_pte (Mmu.phys mmu) vm va_k with
                    | Pte_at { pte = pte_k; _ } when Pte.valid pte_k -> (
                        match translate_one ~ro_scheme mmu vm va_k pte_k with
                        | `Pte sp_k ->
                            install_shadow mmu vm va_k sp_k;
                            vm.Vm.stats.Vm.prefill_filled <-
                              vm.Vm.stats.Vm.prefill_filled + 1;
                            let tr = Mmu.trace mmu in
                            if Vax_obs.Trace.enabled tr then
                              Vax_obs.Trace.emit tr Vax_obs.Trace.Shadow_fill
                                ~b:1 (Word.mask va_k)
                        | `Io | `Nxm _ -> ())
                    | Pte_at _ | Walk_fault _ | Walk_nxm _ -> ());
                    pre (k + 1)
                  end
                end
              in
              pre 1;
              Filled)
  end

(* ------------------------------------------------------------------ *)
(* Modify propagation and invalidation                                 *)

let set_modify mmu (vm : Vm.t) va =
  match shadow_pte_addr vm va with
  | None -> Error "modify fault outside shadow tables"
  | Some spa -> (
      let phys = Mmu.phys mmu in
      let spte = Phys_mem.read_long phys spa in
      if not (Pte.valid spte) then Error "modify fault on invalid shadow PTE"
      else begin
        Phys_mem.write_long phys spa (Pte.with_modify spte true);
        Mmu.tbis mmu va;
        charge mmu (2 * Cost.memory_access);
        match read_vm_pte phys vm va with
        | Walk_nxm m -> Error m
        | Walk_fault _ -> Error "modify fault but VM PTE unreachable"
        | Pte_at { pte = vpte; pa = vpa } ->
            Phys_mem.write_long phys vpa (Pte.with_modify vpte true);
            charge mmu (2 * Cost.vmm_guest_mem);
            vm.Vm.stats.Vm.modify_faults <- vm.Vm.stats.Vm.modify_faults + 1;
            Ok ()
      end)

let invalidate_single mmu (vm : Vm.t) va =
  (match shadow_pte_addr vm va with
  | Some pa ->
      Phys_mem.write_long (Mmu.phys mmu) pa Pte.null;
      charge mmu Cost.memory_access;
      vm.Vm.stats.Vm.shadow_invalidations <-
        vm.Vm.stats.Vm.shadow_invalidations + 1
  | None -> ());
  Mmu.tbis mmu va

let invalidate_all mmu (vm : Vm.t) =
  write_null_range (Mmu.phys mmu) (real_sbr vm) Layout.vm_s_limit_vpn;
  Array.iter
    (fun (s : Vm.slot) -> if s.Vm.key <> None then clear_slot mmu vm s)
    vm.Vm.slots;
  (active vm).Vm.key <- Some vm.Vm.p0br;
  charge mmu (Layout.vm_s_limit_vpn / 16 * Cost.memory_access);
  vm.Vm.stats.Vm.shadow_invalidations <-
    vm.Vm.stats.Vm.shadow_invalidations + 1;
  Mmu.tbia mmu

let upgrade_ro mmu (vm : Vm.t) va =
  match read_vm_pte (Mmu.phys mmu) vm va with
  | Walk_nxm m -> Error m
  | Walk_fault _ -> Error "write ACV but VM PTE unreachable"
  | Pte_at { pte = vpte; pa = vpa } ->
      if not (Pte.valid vpte) then Error "write ACV on invalid VM PTE"
      else begin
        let phys = Mmu.phys mmu in
        Phys_mem.write_long phys vpa (Pte.with_modify vpte true);
        charge mmu (2 * Cost.vmm_guest_mem);
        (match shadow_pte_addr vm va with
        | Some spa ->
            Phys_mem.write_long phys spa
              (Pte.make ~valid:true ~modify:true
                 ~prot:(Protection.compress (Pte.prot vpte))
                 ~pfn:(vm.Vm.base_pfn + Pte.pfn vpte)
                 ())
        | None -> ());
        Mmu.tbis mmu va;
        vm.Vm.stats.Vm.modify_faults <- vm.Vm.stats.Vm.modify_faults + 1;
        Ok ()
      end
