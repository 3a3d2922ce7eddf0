(* Unit and property tests for the architecture definitions: words, PSL,
   protection codes, PTEs, address geometry. *)

open Vax_arch

let w32 = QCheck.map (fun i -> i land 0xFFFF_FFFF) QCheck.int

let qtest name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name gen f)

(* --- Word ----------------------------------------------------------- *)

let word_tests =
  [
    qtest "add wraps mod 2^32" (QCheck.pair w32 w32) (fun (a, b) ->
        Word.add a b = (a + b) land 0xFFFF_FFFF);
    qtest "to_signed/of_signed roundtrip" w32 (fun a ->
        Word.of_signed (Word.to_signed a) = a);
    qtest "neg is two's complement" w32 (fun a ->
        Word.add a (Word.neg a) = 0);
    qtest "extract/insert roundtrip" (QCheck.triple w32 (QCheck.int_bound 27) (QCheck.int_range 1 4))
      (fun (x, pos, width) ->
        let v = Word.extract x ~pos ~width in
        Word.insert x ~pos ~width v = x);
    qtest "sext of 8-bit values" (QCheck.int_bound 255) (fun v ->
        let s = Word.sext ~width:8 v in
        if v land 0x80 <> 0 then s land 0xFFFF_FF00 = 0xFFFF_FF00
        else s = v);
    qtest "of_bytes/byte roundtrip" w32 (fun x ->
        Word.of_bytes (Word.byte x 0) (Word.byte x 1) (Word.byte x 2)
          (Word.byte x 3)
        = x);
    qtest "signed_lt is a strict order vs to_signed" (QCheck.pair w32 w32)
      (fun (a, b) -> Word.signed_lt a b = (Word.to_signed a < Word.to_signed b));
  ]

(* --- PSL ------------------------------------------------------------ *)

let gen_mode = QCheck.map Mode.of_int (QCheck.int_bound 3)

let psl_tests =
  [
    qtest "cur mode field roundtrip" (QCheck.pair w32 gen_mode) (fun (p, m) ->
        Psl.cur (Psl.with_cur p m) = m);
    qtest "prv mode field roundtrip" (QCheck.pair w32 gen_mode) (fun (p, m) ->
        Psl.prv (Psl.with_prv p m) = m);
    qtest "ipl field roundtrip" (QCheck.pair w32 (QCheck.int_bound 31))
      (fun (p, l) -> Psl.ipl (Psl.with_ipl p l) = l);
    qtest "vm bit independent of modes"
      (QCheck.pair w32 gen_mode)
      (fun (p, m) -> Psl.vm (Psl.with_cur (Psl.with_vm p true) m));
    qtest "with_nzvc sets exactly the condition codes" w32 (fun p ->
        let p' = Psl.with_nzvc p ~n:true ~z:false ~v:true ~c:false in
        Psl.n p' && (not (Psl.z p')) && Psl.v p' && not (Psl.c p'));
    Alcotest.test_case "initial PSL is kernel/IS/IPL31" `Quick (fun () ->
        Alcotest.(check string) "mode" "kernel" (Mode.name (Psl.cur Psl.initial));
        Alcotest.(check bool) "is" true (Psl.is Psl.initial);
        Alcotest.(check int) "ipl" 31 (Psl.ipl Psl.initial));
  ]

(* --- Protection ----------------------------------------------------- *)

let gen_prot = QCheck.map Protection.of_code (QCheck.int_bound 15)

let prot_tests =
  [
    qtest "encode/decode roundtrip" gen_prot (fun p ->
        Protection.of_code (Protection.to_code p) = p);
    qtest "write access implies read access" (QCheck.pair gen_prot gen_mode)
      (fun (p, m) ->
        (not (Protection.can_write p m)) || Protection.can_read p m);
    qtest "access is monotonic in privilege" (QCheck.pair gen_prot gen_mode)
      (fun (p, m) ->
        (* anything user can do, all more privileged modes can do *)
        let stronger =
          List.filter (fun m' -> Mode.at_least_as_privileged m' m) Mode.all
        in
        (not (Protection.can_read p m))
        || List.for_all (fun m' -> Protection.can_read p m') stronger);
    qtest "compression never reduces access" (QCheck.pair gen_prot gen_mode)
      (fun (p, m) ->
        let c = Protection.compress p in
        ((not (Protection.can_read p m)) || Protection.can_read c m)
        && ((not (Protection.can_write p m)) || Protection.can_write c m));
    qtest "compression adds no access for supervisor or user"
      (QCheck.pair gen_prot gen_mode) (fun (p, m) ->
        match m with
        | Mode.Supervisor | Mode.User ->
            Protection.can_read (Protection.compress p) m
            = Protection.can_read p m
            && Protection.can_write (Protection.compress p) m
               = Protection.can_write p m
        | Mode.Kernel | Mode.Executive -> true);
    qtest "compression is idempotent" gen_prot (fun p ->
        Protection.compress (Protection.compress p) = Protection.compress p);
    Alcotest.test_case "specific compressions from the paper" `Quick (fun () ->
        let open Protection in
        Alcotest.(check string) "KW" "EW" (name (compress KW));
        Alcotest.(check string) "KR" "ER" (name (compress KR));
        Alcotest.(check string) "ERKW" "EW" (name (compress ERKW));
        Alcotest.(check string) "SRKW" "SREW" (name (compress SRKW));
        Alcotest.(check string) "URKW" "UREW" (name (compress URKW));
        Alcotest.(check string) "UW unchanged" "UW" (name (compress UW));
        Alcotest.(check string) "UR unchanged" "UR" (name (compress UR)));
    Alcotest.test_case "paper's example: EW page" `Quick (fun () ->
        (* protection "executive write": U none, S none, E rw, K rw *)
        let open Protection in
        Alcotest.(check bool) "user read" false (can_read EW Mode.User);
        Alcotest.(check bool) "supervisor read" false (can_read EW Mode.Supervisor);
        Alcotest.(check bool) "exec write" true (can_write EW Mode.Executive);
        Alcotest.(check bool) "kernel write" true (can_write EW Mode.Kernel));
  ]

(* --- PTE ------------------------------------------------------------ *)

let pte_tests =
  [
    qtest "pte field roundtrip"
      (QCheck.quad QCheck.bool QCheck.bool gen_prot (QCheck.int_bound 0x1FFFFF))
      (fun (valid, modify, prot, pfn) ->
        let pte = Pte.make ~valid ~modify ~prot ~pfn () in
        Pte.valid pte = valid && Pte.modify pte = modify
        && Protection.equal (Pte.prot pte) prot
        && Pte.pfn pte = pfn);
    Alcotest.test_case "null shadow PTE" `Quick (fun () ->
        Alcotest.(check bool) "invalid" false (Pte.valid Pte.null);
        (* all modes may pass the protection check *)
        List.iter
          (fun m ->
            Alcotest.(check bool) "write ok" true
              (Protection.can_write (Pte.prot Pte.null) m))
          Mode.all);
  ]

(* --- Addr ----------------------------------------------------------- *)

let addr_tests =
  [
    qtest "region of P0/P1/S bases" QCheck.unit (fun () ->
        Addr.region_of 0 = Addr.P0
        && Addr.region_of 0x4000_0000 = Addr.P1
        && Addr.region_of 0x8000_0000 = Addr.S
        && Addr.region_of 0xC000_0000 = Addr.Reserved_region);
    qtest "vpn/offset reassembly" w32 (fun va ->
        let r = Addr.region_of va in
        r = Addr.Reserved_region
        || Word.logor
             (Addr.of_region_vpn r (Addr.vpn va))
             (Addr.offset va)
           = va);
    qtest "page alignment" w32 (fun va ->
        let d = Addr.page_align_down va in
        d land 0x1FF = 0 && d <= va && va - d < 512);
    qtest "pages_spanned counts boundaries" (QCheck.pair w32 (QCheck.int_range 1 2048))
      (fun (va, len) ->
        let n = Addr.pages_spanned va len in
        n >= 1 && n <= (len / 512) + 2);
    Alcotest.test_case "P1 length check is inverted" `Quick (fun () ->
        Alcotest.(check bool) "P1 high page valid" true
          (Addr.in_length Addr.P1 ~vpn:0x1FFFFF ~length_register:0x1FFF00);
        Alcotest.(check bool) "P1 low page invalid" false
          (Addr.in_length Addr.P1 ~vpn:0 ~length_register:0x1FFF00);
        Alcotest.(check bool) "P0 low page valid" true
          (Addr.in_length Addr.P0 ~vpn:0 ~length_register:1));
  ]

(* --- Opcode --------------------------------------------------------- *)

(* The sensitivity attribute against the paper's Table 1 and against
   what the modified CPU does with each opcode when PSL<VM> is set, from
   virtual kernel and from virtual user mode: no trap, the
   privileged-instruction fault, or the VM-emulation trap.  A PROBE is
   run against a page whose PTE is valid and against one whose PTE is
   not: only the second traps. *)
let table1_sensitive_unprivileged =
  Opcode.[ Chmk; Chme; Chms; Chmu; Rei; Movpsl; Prober; Probew ]

let table1_privileged =
  Opcode.[ Halt; Ldpctx; Svpctx; Mtpr; Mfpr; Probevmr; Probevmw; Wait ]

let valid_page = 0x8000_0000 + (30 * 512)
let invalid_page = 0x8000_0000 + (40 * 512)

let vm_step_outcome op ~vmode ~probe_va =
  let open Vax_cpu in
  let cpu = Cpu.create ~variant:Variant.Virtualizing ~engine:Exec.Stepper () in
  let st = cpu.Cpu.state in
  (* an identity SPT at 0x4000, doubling as the P0 table; S page 40 is
     invalid *)
  for vpn = 0 to 63 do
    Vax_mem.Phys_mem.write_long cpu.Cpu.phys (0x4000 + (4 * vpn))
      (Pte.make ~valid:(vpn <> 40) ~modify:true ~prot:Protection.UW ~pfn:vpn ())
  done;
  let mmu = cpu.Cpu.mmu in
  Vax_mem.Mmu.set_sbr mmu 0x4000;
  Vax_mem.Mmu.set_slr mmu 64;
  Vax_mem.Mmu.set_p0br mmu 0x8000_4000;
  Vax_mem.Mmu.set_p0lr mmu 64;
  Vax_mem.Mmu.set_mapen mmu true;
  let a = Vax_asm.Asm.create ~origin:0x1000 in
  let operand (access, _) =
    match access with
    | Opcode.Read -> Vax_asm.Asm.R 1
    | Opcode.Write | Opcode.Modify -> Vax_asm.Asm.R 2
    | Opcode.Address -> Vax_asm.Asm.Abs probe_va
    | Opcode.Branch_byte | Opcode.Branch_word -> Vax_asm.Asm.Branch "next"
  in
  Vax_asm.Asm.ins a op (List.map operand (Opcode.operands op));
  Vax_asm.Asm.label a "next";
  Vax_asm.Asm.ins a Opcode.Halt [];
  Cpu.load cpu 0x1000 (Vax_asm.Asm.assemble a).Vax_asm.Asm.code;
  Array.fill st.State.sp_bank 0 5 0x3000;
  let ring = Vax_vmm.Ring.compress_mode vmode in
  st.State.psl <- Psl.with_vm (Psl.with_prv (Psl.with_cur 0 ring) ring) true;
  st.State.vmpsl <- Psl.with_prv (Psl.with_cur 0 vmode) vmode;
  State.set_sp st 0x3000;
  State.set_pc st 0x1000;
  let kinds = ref [] in
  st.State.trap_observer <- Some (fun k _ -> kinds := k :: !kinds);
  ignore (Cpu.step cpu : Exec.status);
  if List.mem State.Trap_vm_emulation !kinds then "VM-emulation trap"
  else if List.mem State.Trap_privileged !kinds then "privileged fault"
  else "no trap"

let test_sensitivity_matches_cpu () =
  List.iter
    (fun op ->
      let s = Opcode.sensitivity op in
      let cls =
        match s with
        | Opcode.Innocuous -> `Innocuous
        | Opcode.Privileged -> `Privileged
        | Opcode.Traps_in_vm | Opcode.Composed_in_vm | Opcode.Traps_on_condition
          ->
            `Sensitive_unprivileged
      in
      let table1 =
        if List.mem op table1_privileged then `Privileged
        else if List.mem op table1_sensitive_unprivileged then
          `Sensitive_unprivileged
        else `Innocuous
      in
      Alcotest.(check bool) (Opcode.name op ^ " Table 1 class") true (cls = table1);
      List.iter
        (fun (vmode, probe_va, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s from VM-%s%s" (Opcode.name op) (Mode.name vmode)
               (if probe_va = invalid_page then ", invalid PTE" else ""))
            expected
            (vm_step_outcome op ~vmode ~probe_va))
        (match s with
        | Opcode.Innocuous | Opcode.Composed_in_vm ->
            [ (Mode.Kernel, valid_page, "no trap"); (Mode.User, valid_page, "no trap") ]
        | Opcode.Privileged ->
            [
              (Mode.Kernel, valid_page, "VM-emulation trap");
              (Mode.User, valid_page, "privileged fault");
            ]
        | Opcode.Traps_in_vm ->
            [
              (Mode.Kernel, valid_page, "VM-emulation trap");
              (Mode.User, valid_page, "VM-emulation trap");
            ]
        | Opcode.Traps_on_condition ->
            [
              (Mode.Kernel, valid_page, "no trap");
              (Mode.User, valid_page, "no trap");
              (Mode.Kernel, invalid_page, "VM-emulation trap");
              (Mode.User, invalid_page, "VM-emulation trap");
            ]))
    Opcode.all

let opcode_tests =
  [
    Alcotest.test_case "encodings decode back" `Quick (fun () ->
        List.iter
          (fun op ->
            let decoded =
              match Opcode.encoding op with
              | [ b ] -> Opcode.decode b ()
              | [ p; s ] -> Opcode.decode p ~second:s ()
              | _ -> None
            in
            Alcotest.(check string)
              (Opcode.name op) (Opcode.name op)
              (match decoded with Some o -> Opcode.name o | None -> "?"))
          Opcode.all);
    Alcotest.test_case "sensitive unprivileged set matches the paper" `Quick
      test_sensitivity_matches_cpu;
    Alcotest.test_case "SCB vector names" `Quick (fun () ->
        Alcotest.(check string) "vm" "VM emulation" (Scb.name Scb.vm_emulation);
        Alcotest.(check string) "mf" "modify fault" (Scb.name Scb.modify_fault));
  ]

let () =
  Alcotest.run "vax_arch"
    [
      ("word", word_tests);
      ("psl", psl_tests);
      ("protection", prot_tests);
      ("pte", pte_tests);
      ("addr", addr_tests);
      ("opcode", opcode_tests);
    ]
