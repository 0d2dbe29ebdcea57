#include "src/cpu/bsp430.hh"

#include "src/isa/isa.hh"
#include "src/transform/rewrite.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

constexpr int kStateBits = 5;

/**
 * Generator context. Registers are created first with placeholder BUF
 * drivers (every feedback cycle goes through a flop), combinational
 * logic is built reading only flop outputs and primary inputs, and the
 * placeholders are bound at the end. stripBuffers() then removes the
 * scaffolding.
 */
class CpuGen
{
  public:
    explicit CpuGen(const CpuConfig &config)
        : cfg(config), b(nl, Module::Glue)
    {}

    Netlist build(CpuProbes *probes);

  private:
    /** Placeholder net to be bound later. */
    GateId
    ph()
    {
        GateId id = b.buf(b.tie0());
        unbound_.push_back(id);
        return id;
    }

    Bus
    phBus(int w)
    {
        Bus r(w);
        for (int i = 0; i < w; i++)
            r[i] = ph();
        return r;
    }

    void
    bind(GateId placeholder, GateId real)
    {
        nl.setFanin(placeholder, 0, real);
        for (size_t i = 0; i < unbound_.size(); i++) {
            if (unbound_[i] == placeholder) {
                unbound_.erase(unbound_.begin() +
                               static_cast<long>(i));
                return;
            }
        }
        bespoke_panic("double bind of placeholder ", placeholder);
    }

    void
    bindBus(const Bus &placeholders, const Bus &real)
    {
        bespoke_assert(placeholders.size() == real.size());
        for (size_t i = 0; i < real.size(); i++)
            bind(placeholders[i], real[i]);
    }

    /** One-hot select over (sel, value) cases; 0 when none selected. */
    Bus
    onehotMux(const std::vector<std::pair<GateId, Bus>> &cases)
    {
        bespoke_assert(!cases.empty());
        Bus acc = b.maskBus(cases[0].second, cases[0].first);
        for (size_t i = 1; i < cases.size(); i++)
            acc = b.orBus(acc, b.maskBus(cases[i].second,
                                         cases[i].first));
        return acc;
    }

    GateId
    onehotMuxBit(const std::vector<std::pair<GateId, GateId>> &cases)
    {
        GateId acc = b.and2(cases[0].second, cases[0].first);
        for (size_t i = 1; i < cases.size(); i++)
            acc = b.or2(acc, b.and2(cases[i].second, cases[i].first));
        return acc;
    }

    /** 8:1 single-bit mux. */
    GateId
    mux8(const Bus &sel3, const std::array<GateId, 8> &in)
    {
        std::vector<Bus> choices;
        for (GateId g : in)
            choices.push_back(Bus{g});
        return b.muxTree(sel3, choices)[0];
    }

    /** 32-bit product of two 16-bit operands (unsigned array mult). */
    Bus multiply16(const Bus &a, const Bus &bb);

    CpuConfig cfg;
    Netlist nl;
    NetBuilder b;
    std::vector<GateId> unbound_;
};

Bus
CpuGen::multiply16(const Bus &a, const Bus &bb)
{
    Bus prod;
    Bus acc = b.maskBus(a, bb[0]);
    GateId carry_prev = b.tie0();
    for (int i = 1; i < 16; i++) {
        prod.push_back(acc[0]);
        Bus shifted = NetBuilder::slice(acc, 1, 15);
        shifted.push_back(carry_prev);
        AddResult r = b.adder(shifted, b.maskBus(a, bb[i]), b.tie0());
        acc = r.sum;
        carry_prev = r.carryOut;
    }
    for (GateId g : acc)
        prod.push_back(g);
    prod.push_back(carry_prev);
    bespoke_assert(prod.size() == 32);
    return prod;
}

Netlist
CpuGen::build(CpuProbes *probes)
{
    // ------------------------------------------------------------------
    // Primary inputs
    // ------------------------------------------------------------------
    b.setModule(Module::MemBB);
    Bus in_mem_rdata = b.inputBus("mem_rdata", 16);
    b.setModule(Module::Sfr);
    Bus in_gpio = b.inputBus("gpio_in", 16);
    GateId in_irq_ext = nl.addInput("irq_ext", Module::Sfr);

    // ------------------------------------------------------------------
    // Registers (placeholder D/EN nets, bound at the end)
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    Bus state_d = phBus(kStateBits);
    Bus state_q = b.regBusAlways(state_d,
                                 static_cast<uint32_t>(CpuState::Reset0));
    Bus pc_d = phBus(16);
    GateId pc_en = ph();
    Bus pc_q = b.regBus(pc_d, pc_en, 0);
    Bus ir_d = phBus(16);
    GateId ir_en = ph();
    Bus ir_q = b.regBus(ir_d, ir_en, 0);
    GateId irqwhich_d = ph(), irqwhich_en = ph();
    GateId irqwhich_q = b.dffe(irqwhich_d, irqwhich_en);

    b.setModule(Module::Exec);
    Bus srcval_d = phBus(16);
    GateId srcval_en = ph();
    Bus srcval_q = b.regBus(srcval_d, srcval_en, 0);
    Bus dstval_d = phBus(16);
    GateId dstval_en = ph();
    Bus dstval_q = b.regBus(dstval_d, dstval_en, 0);
    Bus mar_d = phBus(16);
    GateId mar_en = ph();
    Bus mar_q = b.regBus(mar_d, mar_en, 0);
    GateId flagC_d = ph(), flagZ_d = ph(), flagN_d = ph();
    GateId flagGIE_d = ph(), flagV_d = ph();
    GateId flagC_q = b.dff(flagC_d);
    GateId flagZ_q = b.dff(flagZ_d);
    GateId flagN_q = b.dff(flagN_d);
    GateId flagGIE_q = b.dff(flagGIE_d);
    GateId flagV_q = b.dff(flagV_d);

    // Register file: r1 (SP) and r4..r15 are real flops.
    b.setModule(Module::RF);
    Bus rf_wdata = phBus(16);
    Bus rf_wsel = phBus(4);
    GateId rf_wen = ph();
    std::array<Bus, 16> rf_q;
    for (int r = 0; r < 16; r++) {
        if (r == kRegPC || r == kRegSR || r == kRegCG)
            continue;
        GateId wen_r = b.and2(rf_wen,
                              b.equalsConst(rf_wsel,
                                            static_cast<uint32_t>(r)));
        rf_q[r] = b.regBus(rf_wdata, wen_r, 0);
    }

    // SFR + GPIO.
    b.setModule(Module::Sfr);
    Bus p1out_d = phBus(16);
    GateId p1out_en = ph();
    Bus p1out_q = b.regBus(p1out_d, p1out_en, 0);
    Bus ie_d = phBus(2);
    GateId ie_en = ph();
    Bus ie_q = b.regBus(ie_d, ie_en, 0);
    GateId ifg0_d = ph(), ifg1_d = ph();
    GateId ifg0_q = b.dff(ifg0_d);
    GateId ifg1_q = b.dff(ifg1_d);
    GateId irqsync_ph = ph();
    GateId irq_sync_q = b.dff(irqsync_ph);  // irq line synchronizer

    // Watchdog.
    b.setModule(Module::Wdg);
    Bus wdtctl_d = phBus(8);
    GateId wdtctl_en = ph();
    Bus wdtctl_q = b.regBus(wdtctl_d, wdtctl_en, 0);
    Bus wdtcnt_d = phBus(16);
    Bus wdtcnt_q = b.regBusAlways(wdtcnt_d, 0);
    GateId wdttap_d = ph();
    GateId wdttap_q = b.dff(wdttap_d);

    // Clock module.
    b.setModule(Module::Clock);
    Bus clkctl_d = phBus(8);
    GateId clkctl_en = ph();
    Bus clkctl_q = b.regBus(clkctl_d, clkctl_en, 0);
    Bus clkdiv_d = phBus(8);
    Bus clkdiv_q = b.regBusAlways(clkdiv_d, 0);

    // Debug unit.
    b.setModule(Module::Dbg);
    Bus dbgctl_d = phBus(8);
    GateId dbgctl_en = ph();
    Bus dbgctl_q = b.regBus(dbgctl_d, dbgctl_en, 0);
    Bus dbgaddr_d = phBus(16);
    GateId dbgaddr_en = ph();
    Bus dbgaddr_q = b.regBus(dbgaddr_d, dbgaddr_en, 0);
    Bus dbgdata_d = phBus(16);
    GateId dbgdata_en = ph();
    Bus dbgdata_q = b.regBus(dbgdata_d, dbgdata_en, 0);
    Bus dbgcnt_d = phBus(8);
    Bus dbgcnt_q = b.regBusAlways(dbgcnt_d, 0);
    GateId dbgrd_d = ph();
    GateId dbgrd_q = b.dff(dbgrd_d);  // delayed read-hit strobe

    // Multiplier peripheral.
    b.setModule(Module::Mult);
    Bus mpyop1_d = phBus(16);
    GateId mpyop1_en = ph();
    Bus mpyop1_q = b.regBus(mpyop1_d, mpyop1_en, 0);
    GateId mpymode_d = ph(), mpymode_en = ph();
    GateId mpymode_q = b.dffe(mpymode_d, mpymode_en);
    Bus mpyop2_d = phBus(16);
    GateId mpyop2_en = ph();
    Bus mpyop2_q = b.regBus(mpyop2_d, mpyop2_en, 0);
    GateId mpytrig_d = ph();
    GateId mpytrig_q = b.dff(mpytrig_d);
    Bus reslo_d = phBus(16);
    GateId reslo_en = ph();
    Bus reslo_q = b.regBus(reslo_d, reslo_en, 0);
    Bus reshi_d = phBus(16);
    GateId reshi_en = ph();
    Bus reshi_q = b.regBus(reshi_d, reshi_en, 0);

    // Memory backbone read-routing state.
    b.setModule(Module::MemBB);
    GateId selper_d = ph(), selper_en = ph();
    GateId selper_q = b.dffe(selper_d, selper_en);
    Bus laddr_d = phBus(8);  // latched addr[8:1] for peripheral reads
    GateId laddr_en = ph();
    Bus laddr_q = b.regBus(laddr_d, laddr_en, 0);

    // Optional peripherals (extended configuration).
    Bus tactl_d, tacnt_d, taccr_d, tactl_q, tacnt_q, taccr_q;
    GateId tactl_en = kNoGate, taccr_en = kNoGate;
    GateId taflag_d = kNoGate, taflag_q = kNoGate;
    if (cfg.timer) {
        b.setModule(Module::Timer);
        tactl_d = phBus(4);
        tactl_en = ph();
        tactl_q = b.regBus(tactl_d, tactl_en, 0);
        tacnt_d = phBus(16);
        tacnt_q = b.regBusAlways(tacnt_d, 0);
        taccr_d = phBus(16);
        taccr_en = ph();
        taccr_q = b.regBus(taccr_d, taccr_en, 0);
        taflag_d = ph();
        taflag_q = b.dff(taflag_d);
    }
    Bus utxbuf_d, ushift_d, ubaud_d, ubitcnt_d;
    Bus utxbuf_q, ushift_q, ubaud_q, ubitcnt_q;
    GateId uctl_d = kNoGate, uctl_en = kNoGate, uctl_q = kNoGate;
    GateId ubusy_d = kNoGate, ubusy_q = kNoGate;
    GateId utxbuf_en = kNoGate;
    if (cfg.uart) {
        b.setModule(Module::Uart);
        uctl_d = ph();
        uctl_en = ph();
        uctl_q = b.dffe(uctl_d, uctl_en);
        utxbuf_d = phBus(8);
        utxbuf_en = ph();
        utxbuf_q = b.regBus(utxbuf_d, utxbuf_en, 0);
        ushift_d = phBus(10);
        ushift_q = b.regBusAlways(ushift_d, 0x3ff);
        ubaud_d = phBus(3);
        ubaud_q = b.regBusAlways(ubaud_d, 0);
        ubitcnt_d = phBus(4);
        ubitcnt_q = b.regBusAlways(ubitcnt_d, 0);
        ubusy_d = ph();
        ubusy_q = b.dff(ubusy_d);
    }

    // ------------------------------------------------------------------
    // FSM state decode
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    const int kNumStates = static_cast<int>(CpuState::NumStates);
    Bus st_all(kNumStates);
    for (int s = 0; s < kNumStates; s++)
        st_all[s] = b.equalsConst(state_q, static_cast<uint32_t>(s));
    auto st = [&](CpuState s) { return st_all[static_cast<int>(s)]; };
    GateId st_fetch = st(CpuState::Fetch);
    GateId st_decode = st(CpuState::Decode);
    GateId st_exec = st(CpuState::Exec);

    // ------------------------------------------------------------------
    // Memory backbone: peripheral read mux and mdata
    // ------------------------------------------------------------------
    b.setModule(Module::MemBB);
    // Peripheral register word indices (addr[8:1]).
    auto reg_idx = [](uint16_t byte_addr) {
        return static_cast<uint32_t>((byte_addr >> 1) & 0xff);
    };
    Bus ie16 = b.resize(Bus{ie_q[0], ie_q[1]}, 16);
    Bus ifg16 = b.resize(Bus{ifg0_q, ifg1_q}, 16);
    Bus wdt16 = b.resize(wdtctl_q, 16);
    Bus clk16 = b.resize(clkctl_q, 16);
    Bus dbgctl16 = NetBuilder::concat(dbgctl_q, dbgcnt_q);
    std::vector<std::pair<uint32_t, Bus>> readable = {
        {reg_idx(kAddrP1IN), in_gpio},
        {reg_idx(kAddrP1OUT), p1out_q},
        {reg_idx(kAddrIE), ie16},
        {reg_idx(kAddrIFG), ifg16},
        {reg_idx(kAddrWDTCTL), wdt16},
        {reg_idx(kAddrCLKCTL), clk16},
        {reg_idx(kAddrDBGCTL), dbgctl16},
        {reg_idx(kAddrDBGADDR), dbgaddr_q},
        {reg_idx(kAddrDBGDATA), dbgdata_q},
        {reg_idx(kAddrMPY), mpyop1_q},
        {reg_idx(kAddrMPYS), mpyop1_q},
        {reg_idx(kAddrOP2), mpyop2_q},
        {reg_idx(kAddrRESLO), reslo_q},
        {reg_idx(kAddrRESHI), reshi_q},
    };
    if (cfg.timer) {
        Bus tactl16 = b.resize(tactl_q, 16);
        tactl16[8] = taflag_q;  // compare flag readable in bit 8
        readable.push_back({reg_idx(kAddrTACTL), tactl16});
        readable.push_back({reg_idx(kAddrTACNT), tacnt_q});
        readable.push_back({reg_idx(kAddrTACCR), taccr_q});
    }
    if (cfg.uart) {
        Bus uctl16 = b.resize(Bus{uctl_q}, 16);
        uctl16[8] = ubusy_q;  // busy readable in bit 8
        readable.push_back({reg_idx(kAddrUCTL), uctl16});
        readable.push_back({reg_idx(kAddrUTXBUF),
                            b.resize(utxbuf_q, 16)});
    }
    std::vector<std::pair<GateId, Bus>> per_cases;
    for (auto &[idx, value] : readable)
        per_cases.push_back({b.equalsConst(laddr_q, idx), value});
    Bus per_dout = onehotMux(per_cases);
    // Memory data as seen by the core this cycle.
    Bus mdata = b.muxBus(selper_q, in_mem_rdata, per_dout);

    // ------------------------------------------------------------------
    // Instruction decode (from IR, or from mdata during DECODE)
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    Bus ir_cur = b.muxBus(st_decode, ir_q, mdata);

    GateId ir15 = ir_cur[15], ir14 = ir_cur[14], ir13 = ir_cur[13];
    GateId fmt_two = b.or2(ir15, ir14);
    GateId fmt_jump = b.and3(b.inv(ir15), b.inv(ir14), ir13);
    // 000100 prefix.
    GateId fmt_single = b.and4(b.inv(ir15), b.inv(ir14),
                               b.and2(b.inv(ir13), ir_cur[12]),
                               b.and2(b.inv(ir_cur[11]),
                                      b.inv(ir_cur[10])));

    Bus op1_bits = NetBuilder::slice(ir_cur, 12, 4);
    Bus op2_bits = NetBuilder::slice(ir_cur, 7, 3);
    auto op1_is = [&](Op1 o) {
        return b.and2(fmt_two,
                      b.equalsConst(op1_bits,
                                    static_cast<uint32_t>(o)));
    };
    auto op2_is = [&](Op2 o) {
        return b.and2(fmt_single,
                      b.equalsConst(op2_bits,
                                    static_cast<uint32_t>(o)));
    };
    GateId op_mov = op1_is(Op1::MOV);
    GateId op_add = op1_is(Op1::ADD);
    GateId op_addc = op1_is(Op1::ADDC);
    GateId op_subc = op1_is(Op1::SUBC);
    GateId op_sub = op1_is(Op1::SUB);
    GateId op_cmp = op1_is(Op1::CMP);
    GateId op_bit = op1_is(Op1::BIT);
    GateId op_bic = op1_is(Op1::BIC);
    GateId op_bis = op1_is(Op1::BIS);
    GateId op_xor = op1_is(Op1::XOR);
    GateId op_and = op1_is(Op1::AND);
    GateId is_rrc = op2_is(Op2::RRC);
    GateId is_swpb = op2_is(Op2::SWPB);
    GateId is_rra = op2_is(Op2::RRA);
    GateId is_sxt = op2_is(Op2::SXT);
    GateId is_push = op2_is(Op2::PUSH);
    GateId is_call = op2_is(Op2::CALL);
    GateId is_reti = op2_is(Op2::RETI);

    Bus srcsel = b.muxBus(fmt_single, NetBuilder::slice(ir_cur, 8, 4),
                          NetBuilder::slice(ir_cur, 0, 4));
    Bus dstsel = NetBuilder::slice(ir_cur, 0, 4);
    GateId ad_bit = ir_cur[7];
    GateId bm = ir_cur[6];
    Bus as_bits = NetBuilder::slice(ir_cur, 4, 2);
    Bus cond_bits = NetBuilder::slice(ir_cur, 10, 3);

    GateId src_is_r3 = b.equalsConst(srcsel, 3);
    GateId src_is_r2 = b.equalsConst(srcsel, 2);
    GateId src_is_r0 = b.equalsConst(srcsel, 0);
    GateId src_is_sp = b.equalsConst(srcsel, 1);
    GateId is_cg = b.or2(src_is_r3, b.and2(src_is_r2, as_bits[1]));
    GateId as_eq0 = b.and2(b.inv(as_bits[1]), b.inv(as_bits[0]));
    GateId as_eq1 = b.and2(b.inv(as_bits[1]), as_bits[0]);
    GateId as_eq3 = b.and2(as_bits[1], as_bits[0]);
    GateId src_is_imm = b.and2(as_eq3, src_is_r0);
    GateId src_needs_ext = b.and2(b.inv(is_cg),
                                  b.or2(as_eq1, src_is_imm));
    GateId src_is_ind = b.and3(as_bits[1], b.inv(is_cg),
                               b.inv(src_is_imm));
    GateId as_postinc = b.and2(src_is_ind, as_bits[0]);
    GateId src_is_reg = b.and2(as_eq0, b.inv(src_is_r3));
    GateId src_is_abs = b.and2(src_is_r2, as_eq1);
    GateId src_is_memop = b.or2(src_is_ind,
                                b.and2(src_needs_ext,
                                       b.inv(src_is_imm)));
    GateId dst_mem = b.and2(fmt_two, ad_bit);
    GateId fmt2_memop = b.and2(fmt_single, src_is_memop);

    GateId wb_fmt1 = b.and2(fmt_two,
                            b.inv(b.or2(op_cmp, op_bit)));
    GateId wb_fmt2 = b.or4(is_rrc, is_rra, is_swpb, is_sxt);
    GateId writeback = b.or2(wb_fmt1, wb_fmt2);
    GateId dst_is_reg = b.or2(b.and2(fmt_two, b.inv(ad_bit)),
                              b.and2(fmt_single, src_is_reg));
    Bus dstsel_eff = dstsel;  // format II operand reg == ir[3:0] too

    // Constant generator value.
    b.setModule(Module::Exec);
    Bus cg_r3 = b.muxTree(as_bits,
                          {b.busConst(0, 16), b.busConst(1, 16),
                           b.busConst(2, 16), b.busConst(0xffff, 16)});
    Bus cg_r2 = b.muxBus(as_bits[0], b.busConst(4, 16),
                         b.busConst(8, 16));
    Bus cg_val = b.muxBus(src_is_r3, cg_r2, cg_r3);

    // ------------------------------------------------------------------
    // Register read ports
    // ------------------------------------------------------------------
    b.setModule(Module::Exec);
    Bus sr_val = b.busConst(0, 16);
    sr_val[0] = flagC_q;
    sr_val[1] = flagZ_q;
    sr_val[2] = flagN_q;
    sr_val[3] = flagGIE_q;
    sr_val[8] = flagV_q;

    b.setModule(Module::RF);
    std::vector<Bus> reg_views(16);
    for (int r = 0; r < 16; r++) {
        if (r == kRegPC) {
            reg_views[r] = pc_q;
        } else if (r == kRegSR) {
            reg_views[r] = sr_val;
        } else if (r == kRegCG) {
            reg_views[r] = b.busConst(0, 16);
        } else {
            reg_views[r] = rf_q[r];
        }
    }
    Bus read_src = b.muxTree(srcsel, reg_views);
    Bus read_dst = b.muxTree(dstsel_eff, reg_views);

    // ------------------------------------------------------------------
    // Address computation
    // ------------------------------------------------------------------
    b.setModule(Module::Exec);
    Bus src_base = b.maskBus(read_src, b.inv(src_is_abs));
    Bus src_addr = b.adder(mdata, src_base, b.tie0()).sum;
    GateId dst_is_abs = b.equalsConst(dstsel, 2);
    Bus dst_base = b.maskBus(read_dst, b.inv(dst_is_abs));
    Bus dst_addr = b.adder(mdata, dst_base, b.tie0()).sum;

    Bus sp_q = rf_q[kRegSP];
    Bus sp_m2 = b.adder(sp_q, b.busConst(0xfffe, 16), b.tie0()).sum;
    Bus sp_p2 = b.adder(sp_q, b.busConst(2, 16), b.tie0()).sum;

    b.setModule(Module::Frontend);
    Bus pc_p2 = b.adder(pc_q, b.busConst(2, 16), b.tie0()).sum;
    // Jump target: PC(+2 already) + sign-extended word offset * 2.
    Bus off2(16);
    off2[0] = b.tie0();
    for (int i = 0; i < 10; i++)
        off2[i + 1] = ir_cur[i];
    for (int i = 11; i < 16; i++)
        off2[i] = ir_cur[9];
    Bus jump_target = b.adder(pc_q, off2, b.tie0()).sum;

    // ------------------------------------------------------------------
    // ALU
    // ------------------------------------------------------------------
    b.setModule(Module::Alu);
    // Operand A: constant generator / register / loaded value.
    Bus a_raw = b.muxBus(src_is_reg, srcval_q, read_src);
    a_raw = b.muxBus(is_cg, a_raw, cg_val);
    GateId bm_inv = b.inv(bm);
    Bus opA = a_raw;
    for (int i = 8; i < 16; i++)
        opA[i] = b.and2(a_raw[i], bm_inv);
    Bus b_raw = b.muxBus(dst_mem, read_dst, dstval_q);
    Bus opB = b_raw;
    for (int i = 8; i < 16; i++)
        opB[i] = b.and2(b_raw[i], bm_inv);

    GateId op_sublike = b.or3(op_sub, op_subc, op_cmp);
    GateId op_arith = b.or2(b.or3(op_add, op_addc, op_sub),
                            b.or2(op_subc, op_cmp));
    Bus add_a = b.muxBus(op_sublike, opA, b.invBus(opA));
    GateId use_carry = b.or2(op_addc, op_subc);
    GateId cin_base = b.or2(op_sub, op_cmp);
    GateId cin = b.mux2(use_carry, cin_base, flagC_q);
    AddResult sum = b.adder(opB, add_a, cin);

    Bus and_r = b.andBus(opA, opB);
    Bus bic_r = b.andBus(opB, b.invBus(opA));
    Bus bis_r = b.orBus(opA, opB);
    Bus xor_r = b.xorBus(opA, opB);

    // Rotate right (RRA arithmetic, RRC through carry).
    GateId rr_msb_in = b.mux2(is_rrc,
                              b.mux2(bm, opA[15], opA[7]),  // RRA sign
                              flagC_q);
    Bus rr_res(16);
    for (int i = 0; i < 15; i++)
        rr_res[i] = opA[i + 1];
    rr_res[15] = rr_msb_in;
    rr_res[7] = b.mux2(bm, opA[8], rr_msb_in);

    Bus swpb_res = NetBuilder::concat(
        NetBuilder::slice(a_raw, 8, 8), NetBuilder::slice(a_raw, 0, 8));
    Bus sxt_res(16);
    for (int i = 0; i < 8; i++)
        sxt_res[i] = a_raw[i];
    for (int i = 8; i < 16; i++)
        sxt_res[i] = a_raw[7];

    GateId res_is_mov = b.or3(op_mov, is_push, is_call);
    GateId res_is_rr = b.or2(is_rra, is_rrc);
    Bus alu_res = onehotMux({
        {res_is_mov, opA},
        {op_arith, sum.sum},
        {b.or2(op_and, op_bit), and_r},
        {op_bic, bic_r},
        {op_bis, bis_r},
        {op_xor, xor_r},
        {res_is_rr, rr_res},
        {is_swpb, swpb_res},
        {is_sxt, sxt_res},
    });

    // Flags.
    GateId res_sign = b.mux2(bm, alu_res[15], alu_res[7]);
    GateId low_nz = b.reduceOr(NetBuilder::slice(alu_res, 0, 8));
    GateId high_nz = b.reduceOr(NetBuilder::slice(alu_res, 8, 8));
    GateId res_nz = b.or2(low_nz, b.and2(bm_inv, high_nz));
    GateId flag_z_new = b.inv(res_nz);
    GateId flag_n_new = res_sign;
    GateId carry_out = b.mux2(bm, sum.carries[15], sum.carries[7]);
    GateId logic_flag_op = b.or4(op_and, op_bit, op_xor, is_sxt);
    GateId flag_c_new = onehotMuxBit({
        {op_arith, carry_out},
        {logic_flag_op, res_nz},
        {res_is_rr, opA[0]},
    });
    GateId a_sign = b.mux2(bm, add_a[15], add_a[7]);
    GateId b_sign = b.mux2(bm, opB[15], opB[7]);
    GateId v_arith = b.and2(b.xnor2(a_sign, b_sign),
                            b.xor2(res_sign, b_sign));
    GateId a_orig_sign = b.mux2(bm, opA[15], opA[7]);
    GateId v_xor = b.and2(a_orig_sign, b_sign);
    GateId flag_v_new = onehotMuxBit({
        {op_arith, v_arith},
        {op_xor, v_xor},
    });
    GateId flag_update_op = b.or2(
        b.or4(op_add, op_addc, op_sub, op_subc),
        b.or4(b.or2(op_cmp, op_and), b.or2(op_bit, op_xor),
              b.or2(is_rra, is_rrc), is_sxt));

    // ------------------------------------------------------------------
    // Interrupt logic (decision nets)
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    GateId irq0_req = b.and2(ie_q[0], ifg0_q);
    GateId irq1_req = b.and2(ie_q[1], ifg1_q);
    GateId dec_irq0_net = b.and3(st_fetch, flagGIE_q, irq0_req);
    GateId dec_irq1_net = b.and4(st_fetch, flagGIE_q, irq1_req,
                                 b.inv(irq0_req));
    GateId irq_take = b.or2(dec_irq0_net, dec_irq1_net);

    // Branch decision net (X here => fork the execution tree).
    GateId nxv = b.xor2(flagN_q, flagV_q);
    GateId cond_taken = mux8(cond_bits,
                             {b.inv(flagZ_q), flagZ_q, b.inv(flagC_q),
                              flagC_q, flagN_q, b.inv(nxv), nxv,
                              b.tie1()});
    GateId dec_branch_net = b.and3(st_decode, fmt_jump, cond_taken);

    // ------------------------------------------------------------------
    // Next-state logic
    // ------------------------------------------------------------------
    auto SC = [&](CpuState s) {
        return b.busConst(static_cast<uint32_t>(s), kStateBits);
    };
    Bus after_src = b.muxBus(dst_mem, SC(CpuState::Exec),
                             SC(CpuState::DstExt));
    Bus ns_decode = after_src;
    ns_decode = b.muxBus(src_is_memop, ns_decode, SC(CpuState::SrcRd));
    ns_decode = b.muxBus(src_needs_ext, ns_decode, SC(CpuState::SrcExt));
    ns_decode = b.muxBus(is_reti, ns_decode, SC(CpuState::Reti1));
    ns_decode = b.muxBus(fmt_jump, ns_decode, SC(CpuState::Fetch));
    Bus ns_fetch = b.muxBus(irq_take, SC(CpuState::Decode),
                            SC(CpuState::Irq1));
    Bus ns_srcextld = b.muxBus(src_is_imm, SC(CpuState::SrcLd),
                               after_src);
    Bus ns_dstextld = b.muxBus(op_mov, SC(CpuState::DstLd),
                               SC(CpuState::Exec));
    Bus next_state = onehotMux({
        {st(CpuState::Reset0), SC(CpuState::Reset1)},
        {st(CpuState::Reset1), SC(CpuState::Fetch)},
        {st_fetch, ns_fetch},
        {st_decode, ns_decode},
        {st(CpuState::SrcExt), SC(CpuState::SrcExtLd)},
        {st(CpuState::SrcExtLd), ns_srcextld},
        {st(CpuState::SrcRd), SC(CpuState::SrcLd)},
        {st(CpuState::SrcLd), after_src},
        {st(CpuState::DstExt), SC(CpuState::DstExtLd)},
        {st(CpuState::DstExtLd), ns_dstextld},
        {st(CpuState::DstLd), SC(CpuState::Exec)},
        {st_exec, SC(CpuState::Fetch)},
        {st(CpuState::Reti1), SC(CpuState::Reti2)},
        {st(CpuState::Reti2), SC(CpuState::Reti3)},
        {st(CpuState::Reti3), SC(CpuState::Fetch)},
        {st(CpuState::Irq1), SC(CpuState::Irq2)},
        {st(CpuState::Irq2), SC(CpuState::Irq3)},
        {st(CpuState::Irq3), SC(CpuState::Irq4)},
        {st(CpuState::Irq4), SC(CpuState::Fetch)},
    });
    bindBus(state_d, next_state);

    // ------------------------------------------------------------------
    // Memory request
    // ------------------------------------------------------------------
    b.setModule(Module::MemBB);
    GateId exec_wr_mem = b.or2(
        b.and2(writeback, b.or2(b.and2(fmt_two, dst_mem), fmt2_memop)),
        b.or2(is_push, is_call));
    GateId exec_sp_wr = b.or2(is_push, is_call);
    Bus exec_addr = b.muxBus(exec_sp_wr, mar_q, sp_m2);
    Bus irq_vec = b.muxBus(irqwhich_q, b.busConst(kVecIRQ1, 16),
                           b.busConst(kVecIRQ0, 16));

    GateId en_fetch = b.and2(st_fetch, b.inv(irq_take));
    GateId en_srcextld = b.and2(st(CpuState::SrcExtLd),
                                b.inv(src_is_imm));
    GateId en_dstextld = b.and2(st(CpuState::DstExtLd), b.inv(op_mov));
    GateId en_exec = b.and2(st_exec, exec_wr_mem);

    Bus addr_req = onehotMux({
        {st(CpuState::Reset0), b.busConst(kVecReset, 16)},
        {en_fetch, pc_q},
        {st(CpuState::SrcExt), pc_q},
        {st(CpuState::DstExt), pc_q},
        {en_srcextld, src_addr},
        {st(CpuState::SrcRd), read_src},
        {st(CpuState::DstExtLd), dst_addr},
        {en_exec, exec_addr},
        {st(CpuState::Reti1), sp_q},
        {st(CpuState::Reti2), sp_q},
        {st(CpuState::Irq1), sp_m2},
        {st(CpuState::Irq2), sp_m2},
        {st(CpuState::Irq3), irq_vec},
    });

    GateId mem_en = b.or4(
        b.or4(st(CpuState::Reset0), en_fetch, st(CpuState::SrcExt),
              st(CpuState::DstExt)),
        b.or4(en_srcextld, st(CpuState::SrcRd), en_dstextld, en_exec),
        b.or4(st(CpuState::Reti1), st(CpuState::Reti2),
              st(CpuState::Irq1), st(CpuState::Irq2)),
        st(CpuState::Irq3));

    GateId mem_we = b.or3(en_exec, st(CpuState::Irq1),
                          st(CpuState::Irq2));
    GateId byte_wr = b.and4(st_exec, bm,
                            b.or2(b.and2(fmt_two, dst_mem), fmt2_memop),
                            b.inv(is_push));
    GateId wen0 = b.and2(mem_we, b.or2(b.inv(byte_wr),
                                       b.inv(addr_req[0])));
    GateId wen1 = b.and2(mem_we, b.or2(b.inv(byte_wr), addr_req[0]));

    Bus res_lo8 = NetBuilder::slice(alu_res, 0, 8);
    Bus wdata_exec_mem = b.muxBus(byte_wr, alu_res,
                                  NetBuilder::concat(res_lo8, res_lo8));
    Bus wdata_exec = b.muxBus(is_push, wdata_exec_mem, opA);
    wdata_exec = b.muxBus(is_call, wdata_exec, pc_q);
    Bus mem_wdata = onehotMux({
        {en_exec, wdata_exec},
        {st(CpuState::Irq1), pc_q},
        {st(CpuState::Irq2), sr_val},
    });

    // MemBB read-routing registers.
    GateId rd_req = b.and2(mem_en, b.inv(mem_we));
    GateId addr_is_per = b.isZero(NetBuilder::slice(addr_req, 9, 7));
    bind(selper_d, b.and2(addr_is_per, rd_req));
    bind(selper_en, rd_req);
    bindBus(laddr_d, NetBuilder::slice(addr_req, 1, 8));
    bind(laddr_en, rd_req);

    // Peripheral write strobes.
    GateId per_wr = b.and3(mem_en, wen0, addr_is_per);
    Bus waddr_idx = NetBuilder::slice(addr_req, 1, 8);
    auto per_we = [&](uint16_t byte_addr) {
        return b.and2(per_wr, b.equalsConst(waddr_idx,
                                            reg_idx(byte_addr)));
    };
    GateId we_p1out = per_we(kAddrP1OUT);
    GateId we_ie = per_we(kAddrIE);
    GateId we_ifg = per_we(kAddrIFG);
    GateId we_wdt = per_we(kAddrWDTCTL);
    GateId we_clk = per_we(kAddrCLKCTL);
    GateId we_dbgctl = per_we(kAddrDBGCTL);
    GateId we_dbgaddr = per_we(kAddrDBGADDR);
    GateId we_dbgdata = per_we(kAddrDBGDATA);
    GateId we_mpy = per_we(kAddrMPY);
    GateId we_mpys = per_we(kAddrMPYS);
    GateId we_op2 = per_we(kAddrOP2);
    GateId we_reslo = per_we(kAddrRESLO);
    GateId we_reshi = per_we(kAddrRESHI);

    // ------------------------------------------------------------------
    // PC
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    GateId exec_pc_wr = b.and2(st_exec,
                               b.or2(is_call,
                                     b.and3(writeback, dst_is_reg,
                                            b.equalsConst(dstsel_eff,
                                                          kRegPC))));
    Bus exec_pc_val = b.muxBus(is_call, alu_res, opA);
    GateId pc_adv = b.or3(en_fetch, st(CpuState::SrcExt),
                          st(CpuState::DstExt));
    GateId pc_we = b.or4(
        b.or2(st(CpuState::Reset1), pc_adv),
        dec_branch_net, exec_pc_wr,
        b.or2(st(CpuState::Reti3), st(CpuState::Irq4)));
    Bus pc_next = onehotMux({
        {st(CpuState::Reset1), mdata},
        {pc_adv, pc_p2},
        {dec_branch_net, jump_target},
        {exec_pc_wr, exec_pc_val},
        {st(CpuState::Reti3), mdata},
        {st(CpuState::Irq4), mdata},
    });
    bindBus(pc_d, pc_next);
    bind(pc_en, pc_we);

    // IR.
    bindBus(ir_d, mdata);
    bind(ir_en, st_decode);

    // irq_which: which interrupt vector to take.
    bind(irqwhich_d, dec_irq0_net);
    bind(irqwhich_en, irq_take);

    // ------------------------------------------------------------------
    // Operand registers
    // ------------------------------------------------------------------
    b.setModule(Module::Exec);
    Bus mdata_swap = NetBuilder::concat(NetBuilder::slice(mdata, 8, 8),
                                        NetBuilder::slice(mdata, 0, 8));
    GateId load_hi = b.and3(st(CpuState::SrcLd), bm, mar_q[0]);
    Bus srcval_in = b.muxBus(load_hi, mdata, mdata_swap);
    bindBus(srcval_d, srcval_in);
    bind(srcval_en, b.or2(st(CpuState::SrcLd),
                          b.and2(st(CpuState::SrcExtLd), src_is_imm)));

    GateId dload_hi = b.and3(st(CpuState::DstLd), bm, mar_q[0]);
    bindBus(dstval_d, b.muxBus(dload_hi, mdata, mdata_swap));
    bind(dstval_en, st(CpuState::DstLd));

    bindBus(mar_d, onehotMux({
        {en_srcextld, src_addr},
        {st(CpuState::SrcRd), read_src},
        {st(CpuState::DstExtLd), dst_addr},
    }));
    bind(mar_en, b.or3(en_srcextld, st(CpuState::SrcRd),
                       st(CpuState::DstExtLd)));

    // ------------------------------------------------------------------
    // Register-file write port
    // ------------------------------------------------------------------
    b.setModule(Module::RF);
    GateId exec_rf_wr = b.and4(st_exec, writeback, dst_is_reg,
                               b.inv(b.or3(
                                   b.equalsConst(dstsel_eff, kRegPC),
                                   b.equalsConst(dstsel_eff, kRegSR),
                                   b.equalsConst(dstsel_eff, kRegCG))));
    GateId postinc_now = b.and2(st(CpuState::SrcRd), as_postinc);
    GateId sp_mod_m2 = b.or3(b.and2(st_exec, exec_sp_wr),
                             st(CpuState::Irq1), st(CpuState::Irq2));
    GateId sp_mod_p2 = b.or2(st(CpuState::Reti1), st(CpuState::Reti2));

    // Post-increment amount: 1 for byte ops (except SP), else 2.
    GateId inc_one = b.and2(bm, b.inv(src_is_sp));
    Bus inc_bus = b.busConst(0, 16);
    inc_bus[0] = inc_one;
    inc_bus[1] = b.inv(inc_one);
    Bus postinc_val = b.adder(read_src, inc_bus, b.tie0()).sum;

    Bus res_wr = alu_res;
    for (int i = 8; i < 16; i++)
        res_wr[i] = b.and2(alu_res[i], bm_inv);

    bindBus(rf_wdata, onehotMux({
        {exec_rf_wr, res_wr},
        {postinc_now, postinc_val},
        {sp_mod_m2, sp_m2},
        {sp_mod_p2, sp_p2},
    }));
    bindBus(rf_wsel, onehotMux({
        {exec_rf_wr, dstsel_eff},
        {postinc_now, srcsel},
        {b.or2(sp_mod_m2, sp_mod_p2), b.busConst(kRegSP, 4)},
    }));
    bind(rf_wen, b.or4(exec_rf_wr, postinc_now, sp_mod_m2, sp_mod_p2));

    // ------------------------------------------------------------------
    // Flags
    // ------------------------------------------------------------------
    b.setModule(Module::Exec);
    GateId sr_wr_exec = b.and4(st_exec, writeback, dst_is_reg,
                               b.equalsConst(dstsel_eff, kRegSR));
    GateId flag_we = b.and3(st_exec, flag_update_op, b.inv(sr_wr_exec));
    auto flag_next = [&](GateId q, GateId alu_new, int sr_bit,
                         bool clear_on_irq) {
        GateId d = b.mux2(flag_we, q, alu_new);
        d = b.mux2(sr_wr_exec, d, alu_res[sr_bit]);
        d = b.mux2(st(CpuState::Reti2), d, mdata[sr_bit]);
        if (clear_on_irq)
            d = b.and2(d, b.inv(st(CpuState::Irq2)));
        return d;
    };
    bind(flagC_d, flag_next(flagC_q, flag_c_new, 0, true));
    bind(flagZ_d, flag_next(flagZ_q, flag_z_new, 1, true));
    bind(flagN_d, flag_next(flagN_q, flag_n_new, 2, true));
    bind(flagV_d, flag_next(flagV_q, flag_v_new, 8, true));
    // GIE has no ALU source; keep the same priority structure.
    GateId gie_d = b.mux2(sr_wr_exec, flagGIE_q, alu_res[3]);
    gie_d = b.mux2(st(CpuState::Reti2), gie_d, mdata[3]);
    gie_d = b.and2(gie_d, b.inv(st(CpuState::Irq2)));
    bind(flagGIE_d, gie_d);

    // ------------------------------------------------------------------
    // SFR: GPIO out, IE, IFG
    // ------------------------------------------------------------------
    b.setModule(Module::Sfr);
    bindBus(p1out_d, mem_wdata);
    bind(p1out_en, we_p1out);
    bindBus(ie_d, NetBuilder::slice(mem_wdata, 0, 2));
    bind(ie_en, we_ie);
    bind(irqsync_ph, in_irq_ext);
    GateId svc0 = b.and2(st(CpuState::Irq4), irqwhich_q);
    GateId svc1 = b.and2(st(CpuState::Irq4), b.inv(irqwhich_q));
    GateId ifg0_set = b.or2(irq_sync_q, ifg0_q);
    GateId ifg0_nxt = b.mux2(we_ifg, ifg0_set, mem_wdata[0]);
    bind(ifg0_d, b.and2(ifg0_nxt, b.inv(svc0)));

    // ------------------------------------------------------------------
    // Timer (extended configuration)
    // ------------------------------------------------------------------
    GateId timer_fire = b.tie0();
    if (cfg.timer) {
        b.setModule(Module::Timer);
        GateId we_tactl = per_we(kAddrTACTL);
        GateId we_taccr = per_we(kAddrTACCR);
        bindBus(tactl_d, NetBuilder::slice(mem_wdata, 0, 4));
        bind(tactl_en, we_tactl);
        bindBus(taccr_d, mem_wdata);
        bind(taccr_en, we_taccr);
        GateId ta_en = tactl_q[0];
        GateId ta_clr = b.and2(we_tactl, mem_wdata[2]);
        GateId ta_match = b.and2(b.equal(tacnt_q, taccr_q), ta_en);
        Bus ta_inc = b.incrementer(tacnt_q).sum;
        Bus ta_next = b.muxBus(ta_en, tacnt_q, ta_inc);
        // Up mode: the counter resets on compare match (Timer_A
        // style), giving a periodic event every TACCR+1 cycles.
        ta_next = b.maskBus(ta_next, b.inv(b.or2(ta_clr, ta_match)));
        bindBus(tacnt_d, ta_next);
        // Sticky compare flag; cleared by writing TACTL bit 3.
        GateId flag_clr = b.and2(we_tactl, mem_wdata[3]);
        GateId flag_next = b.or2(taflag_q, ta_match);
        bind(taflag_d, b.and2(flag_next, b.inv(flag_clr)));
        timer_fire = b.and2(ta_match, tactl_q[1]);  // IRQ1 source
    }

    // ------------------------------------------------------------------
    // UART transmitter (extended configuration)
    // ------------------------------------------------------------------
    if (cfg.uart) {
        b.setModule(Module::Uart);
        GateId we_uctl = per_we(kAddrUCTL);
        GateId we_utx = per_we(kAddrUTXBUF);
        bind(uctl_d, mem_wdata[0]);
        bind(uctl_en, we_uctl);
        bindBus(utxbuf_d, NetBuilder::slice(mem_wdata, 0, 8));
        bind(utxbuf_en, we_utx);
        GateId u_en = uctl_q;
        GateId start = b.and3(we_utx, u_en, b.inv(ubusy_q));
        GateId tick = b.and2(ubusy_q, b.equalsConst(ubaud_q, 7));
        // Baud counter: reset on start, count while busy.
        Bus baud_next = b.muxBus(ubusy_q, ubaud_q,
                                 b.incrementer(ubaud_q).sum);
        baud_next = b.maskBus(baud_next, b.inv(start));
        bindBus(ubaud_d, baud_next);
        // Shift register: {stop=1, data[7:0], start=0}, LSB first.
        Bus load(10);
        load[0] = b.tie0();
        for (int i = 0; i < 8; i++)
            load[i + 1] = mem_wdata[i];
        load[9] = b.tie1();
        Bus shifted = NetBuilder::slice(ushift_q, 1, 9);
        shifted.push_back(b.tie1());
        Bus shift_next = b.muxBus(tick, ushift_q, shifted);
        shift_next = b.muxBus(start, shift_next, load);
        bindBus(ushift_d, shift_next);
        // Bit counter: 10 on start, decrement per tick.
        Bus dec = b.adder(ubitcnt_q, b.busConst(0xf, 4),
                          b.tie0()).sum;  // -1 mod 16
        Bus bit_next = b.muxBus(tick, ubitcnt_q, dec);
        bit_next = b.muxBus(start, bit_next, b.busConst(10, 4));
        bindBus(ubitcnt_d, bit_next);
        GateId last_bit = b.and2(tick, b.equalsConst(ubitcnt_q, 1));
        bind(ubusy_d, b.and2(b.or2(start, ubusy_q),
                             b.inv(last_bit)));
        GateId tx = b.mux2(ubusy_q, b.tie1(), ushift_q[0]);
        nl.addOutput("uart_tx", tx, Module::Uart);
    }

    // ------------------------------------------------------------------
    // Watchdog
    // ------------------------------------------------------------------
    b.setModule(Module::Wdg);
    bindBus(wdtctl_d, NetBuilder::slice(mem_wdata, 0, 8));
    bind(wdtctl_en, we_wdt);
    GateId wdt_clear = b.and2(we_wdt, mem_wdata[3]);
    Bus wdt_inc = b.incrementer(wdtcnt_q).sum;
    Bus wdt_cnt_next = b.muxBus(wdtctl_q[0], wdtcnt_q, wdt_inc);
    wdt_cnt_next = b.maskBus(wdt_cnt_next, b.inv(wdt_clear));
    bindBus(wdtcnt_d, wdt_cnt_next);
    GateId wdt_tap = b.muxTree(
        NetBuilder::slice(wdtctl_q, 1, 2),
        {Bus{wdtcnt_q[6]}, Bus{wdtcnt_q[9]}, Bus{wdtcnt_q[12]},
         Bus{wdtcnt_q[15]}})[0];
    bind(wdttap_d, wdt_tap);
    GateId wdg_fire_real = b.and3(wdt_tap, b.inv(wdttap_q),
                                  wdtctl_q[0]);

    b.setModule(Module::Sfr);
    GateId ifg1_set = b.or3(wdg_fire_real, timer_fire, ifg1_q);
    GateId ifg1_nxt = b.mux2(we_ifg, ifg1_set, mem_wdata[1]);
    bind(ifg1_d, b.and2(ifg1_nxt, b.inv(svc1)));

    // ------------------------------------------------------------------
    // Clock module
    // ------------------------------------------------------------------
    b.setModule(Module::Clock);
    bindBus(clkctl_d, NetBuilder::slice(mem_wdata, 0, 8));
    bind(clkctl_en, we_clk);
    bindBus(clkdiv_d, b.incrementer(clkdiv_q).sum);
    GateId clk_tap = b.muxTree(
        NetBuilder::slice(clkctl_q, 0, 2),
        {Bus{clkdiv_q[3]}, Bus{clkdiv_q[4]}, Bus{clkdiv_q[5]},
         Bus{clkdiv_q[6]}})[0];
    GateId clk_aux = b.and2(clk_tap, clkctl_q[2]);

    // ------------------------------------------------------------------
    // Debug unit
    // ------------------------------------------------------------------
    b.setModule(Module::Dbg);
    bindBus(dbgctl_d, NetBuilder::slice(mem_wdata, 0, 8));
    bind(dbgctl_en, we_dbgctl);
    bindBus(dbgaddr_d, mem_wdata);
    bind(dbgaddr_en, we_dbgaddr);
    // RAM region: 0x0200 <= addr < 0x0a00.
    GateId ge_200 = b.reduceOr(NetBuilder::slice(addr_req, 9, 7));
    GateId lt_a00 = b.inv(b.or2(
        b.reduceOr(NetBuilder::slice(addr_req, 12, 4)),
        b.and2(addr_req[11], b.or2(addr_req[10], addr_req[9]))));
    GateId is_ram = b.and2(ge_200, lt_a00);
    GateId dbg_match = b.equal(NetBuilder::slice(addr_req, 1, 15),
                               NetBuilder::slice(dbgaddr_q, 1, 15));
    GateId dbg_hit = b.and4(dbgctl_q[0], mem_en, is_ram, dbg_match);
    GateId dbg_hit_rd = b.and2(dbg_hit, b.inv(mem_we));
    bind(dbgrd_d, dbg_hit_rd);
    GateId cnt_clr = b.and2(we_dbgctl, mem_wdata[1]);
    Bus cnt_inc = b.incrementer(dbgcnt_q).sum;
    Bus cnt_next = b.muxBus(dbg_hit, dbgcnt_q, cnt_inc);
    cnt_next = b.maskBus(cnt_next, b.inv(cnt_clr));
    bindBus(dbgcnt_d, cnt_next);
    // Capture: writes capture wdata at request; reads capture mdata one
    // cycle later. Priority (last wins in program order): software
    // write > write-hit > pending read capture.
    GateId dbg_wr_hit = b.and2(dbg_hit, mem_we);
    Bus dbgdata_nxt = b.muxBus(dbgrd_q, dbgdata_q, mdata);
    dbgdata_nxt = b.muxBus(dbg_wr_hit, dbgdata_nxt, mem_wdata);
    dbgdata_nxt = b.muxBus(we_dbgdata, dbgdata_nxt, mem_wdata);
    bindBus(dbgdata_d, dbgdata_nxt);
    bind(dbgdata_en, b.or3(dbg_wr_hit, dbgrd_q, we_dbgdata));

    // ------------------------------------------------------------------
    // Hardware multiplier
    // ------------------------------------------------------------------
    b.setModule(Module::Mult);
    bindBus(mpyop1_d, mem_wdata);
    bind(mpyop1_en, b.or2(we_mpy, we_mpys));
    bind(mpymode_d, we_mpys);
    bind(mpymode_en, b.or2(we_mpy, we_mpys));
    bindBus(mpyop2_d, mem_wdata);
    bind(mpyop2_en, we_op2);
    bind(mpytrig_d, we_op2);
    Bus product = multiply16(mpyop1_q, mpyop2_q);
    Bus prod_lo = NetBuilder::slice(product, 0, 16);
    Bus prod_hi = NetBuilder::slice(product, 16, 16);
    // Signed correction: hi -= (a15 ? b : 0) + (b15 ? a : 0).
    Bus corr1 = b.subtractor(prod_hi,
                             b.maskBus(mpyop2_q, mpyop1_q[15])).sum;
    Bus corr2 = b.subtractor(corr1,
                             b.maskBus(mpyop1_q, mpyop2_q[15])).sum;
    Bus hi_eff = b.muxBus(mpymode_q, prod_hi, corr2);
    bindBus(reslo_d, b.muxBus(mpytrig_q, mem_wdata, prod_lo));
    bind(reslo_en, b.or2(mpytrig_q, we_reslo));
    bindBus(reshi_d, b.muxBus(mpytrig_q, mem_wdata, hi_eff));
    bind(reshi_en, b.or2(mpytrig_q, we_reshi));

    // ------------------------------------------------------------------
    // Control-transfer marker (for the conservative-state table)
    // ------------------------------------------------------------------
    b.setModule(Module::Frontend);
    GateId ctl_xfer = b.or4(b.and2(st_decode, fmt_jump), exec_pc_wr,
                            st(CpuState::Reti3), irq_take);

    // ------------------------------------------------------------------
    // Primary outputs
    // ------------------------------------------------------------------
    b.setModule(Module::MemBB);
    b.outputBus("mem_addr", addr_req);
    b.outputBus("mem_wdata", mem_wdata);
    nl.addOutput("mem_wen[0]", wen0, Module::MemBB);
    nl.addOutput("mem_wen[1]", wen1, Module::MemBB);
    nl.addOutput("mem_en", mem_en, Module::MemBB);
    b.setModule(Module::Sfr);
    b.outputBus("gpio_out", p1out_q);
    nl.addOutput("clk_aux", clk_aux, Module::Clock);
    b.setModule(Module::Frontend);
    b.outputBus("pc_out", pc_q);
    nl.addOutput("st_fetch", st_fetch, Module::Frontend);
    nl.addOutput("ctl_xfer", ctl_xfer, Module::Frontend);
    nl.addOutput("dec_branch", dec_branch_net, Module::Frontend);
    nl.addOutput("dec_irq0", dec_irq0_net, Module::Frontend);
    nl.addOutput("dec_irq1", dec_irq1_net, Module::Frontend);

    bespoke_assert(unbound_.empty(), unbound_.size(),
                   " unbound placeholder nets remain");
    nl.validate();

    // Strip the placeholder buffers; remap probe ids.
    RewriteResult rr = stripBuffers(nl);
    rr.netlist.validate();
    if (probes) {
        auto rb = [&](const Bus &bus) {
            Bus out(bus.size());
            for (size_t i = 0; i < bus.size(); i++)
                out[i] = rr.remap(bus[i]);
            return out;
        };
        probes->pc = rb(pc_q);
        probes->stateReg = rb(state_q);
        probes->ir = rb(ir_q);
        for (int r = 0; r < 16; r++) {
            if (!rf_q[r].empty())
                probes->regs[r] = rb(rf_q[r]);
        }
        probes->flagC = rr.remap(flagC_q);
        probes->flagZ = rr.remap(flagZ_q);
        probes->flagN = rr.remap(flagN_q);
        probes->flagGIE = rr.remap(flagGIE_q);
        probes->flagV = rr.remap(flagV_q);
    }
    return std::move(rr.netlist);
}

} // namespace

Netlist
buildBsp430(CpuProbes *probes, const CpuConfig &config)
{
    CpuGen gen(config);
    return gen.build(probes);
}

bool
buildCoreByName(const std::string &name, Netlist *out, std::string *err)
{
    CpuConfig cfg;
    if (name == "extended") {
        cfg = CpuConfig::extended();
    } else if (!name.empty() && name != "default") {
        *err = "core must be 'default' or 'extended', got '" + name + "'";
        return false;
    }
    *out = buildBsp430(nullptr, cfg);
    return true;
}

} // namespace bespoke
