#include "src/sim/soc.hh"

#include "src/isa/isa.hh"
#include "src/util/logging.hh"

namespace bespoke
{

EnvState
EnvState::merge(const EnvState &a, const EnvState &b)
{
    bespoke_assert(a.ram.size() == b.ram.size());
    EnvState m;
    m.ram.resize(a.ram.size());
    for (size_t i = 0; i < a.ram.size(); i++)
        m.ram[i] = SWord::merge(a.ram[i], b.ram[i]);
    m.rdata = SWord::merge(a.rdata, b.rdata);
    return m;
}

bool
EnvState::substateOf(const EnvState &c) const
{
    if (ram.size() != c.ram.size())
        return false;
    if (!rdata.substateOf(c.rdata))
        return false;
    for (size_t i = 0; i < ram.size(); i++) {
        if (!ram[i].substateOf(c.ram[i]))
            return false;
    }
    return true;
}

Soc::Soc(const Netlist &netlist, const AsmProgram &prog, bool ram_unknown,
         GateSim::EvalMode sim_mode)
    : Soc(SocContext::make(netlist), prog, ram_unknown, sim_mode)
{
}

Soc::Soc(std::shared_ptr<const SocContext> ctx, const AsmProgram &prog,
         bool ram_unknown, GateSim::EvalMode sim_mode)
    : ctx_(std::move(ctx)), nl_(ctx_->netlist), prog_(prog),
      sim_(ctx_->netlist, sim_mode, ctx_->prep),
      ramUnknown_(ram_unknown)
{
    reset();
}

void
Soc::reset()
{
    sim_.reset();
    env_.ram.assign(kRamSize / 2,
                    ramUnknown_ ? SWord::allX() : SWord::of(0));
    env_.rdata = SWord::allX();
    cycles_ = 0;
    driveInputs();
    sim_.evalComb();
}

void
Soc::driveInputs()
{
    sim_.setInputWord(ctx_->pMemRdata, env_.rdata);
    sim_.setInputWord(ctx_->pGpioIn, gpioIn_);
    sim_.setInput(ctx_->pIrqExt, irqExt_);
}

void
Soc::sampleMemoryRequest()
{
    Logic en = sim_.value(ctx_->pMemEn);
    Logic wen0 = sim_.value(ctx_->pMemWen0);
    Logic wen1 = sim_.value(ctx_->pMemWen1);
    if (en == Logic::Zero && wen0 == Logic::Zero && wen1 == Logic::Zero)
        return;

    // wdata only matters when a write may happen; reads (the common
    // case — every fetch is one) skip the 16-bit bus transpose.
    SWord wdata;
    if (wen0 != Logic::Zero || wen1 != Logic::Zero)
        wdata = sim_.busWord(ctx_->pMemWdata);
    sampleMemory(env_, prog_, en, wen0, wen1,
                 sim_.busWord(ctx_->pMemAddr), wdata);
}

void
sampleMemory(EnvState &env, const AsmProgram &prog, Logic en,
             Logic wen0, Logic wen1, SWord addr, SWord wdata)
{
    if (en == Logic::Zero && wen0 == Logic::Zero && wen1 == Logic::Zero)
        return;

    // --- Writes (byte lanes) ---
    // Whole-byte copy with word-level mask ops: replacing the byte
    // lane of `word` with wdata's bits is a (val, known) blend under
    // the byte mask, and a may-write (wen = X) merges that blend with
    // the unwritten word. Equivalent to bit-by-bit setBit/merge but
    // O(1) per word — the X-address smear below applies this to every
    // RAM word per cycle, which is the hot path for runs that spin
    // with unknown store addresses.
    auto lane_write = [&](SWord &word, Logic wen, int lane) {
        if (wen == Logic::Zero)
            return;
        const uint16_t bm = static_cast<uint16_t>(0xffu << (lane * 8));
        SWord neww(
            static_cast<uint16_t>((word.val & ~bm) | (wdata.val & bm)),
            static_cast<uint16_t>((word.known & ~bm) |
                                  (wdata.known & bm)));
        if (wen == Logic::One) {
            word = neww;
        } else {
            word = SWord::merge(word, neww);  // may or may not write
        }
    };

    bool any_write = wen0 != Logic::Zero || wen1 != Logic::Zero;
    if (any_write && en != Logic::Zero) {
        if (addr.anyX()) {
            // Unknown destination: every RAM word may have been
            // (partially) overwritten.
            for (SWord &w : env.ram) {
                SWord neww0 = w, neww1 = w;
                lane_write(neww0, Logic::X, 0);
                lane_write(neww1, Logic::X, 1);
                w = SWord::merge(neww0, neww1);
            }
        } else {
            uint16_t a = addr.val;
            if (isRamAddr(a)) {
                SWord &w = env.ram[(a - kRamBase) >> 1];
                lane_write(w, wen0, 0);
                lane_write(w, wen1, 1);
            } else if (isPeriphAddr(a)) {
                // Peripheral registers live inside the netlist.
            } else {
                bespoke_warn("write to ROM/unmapped address 0x",
                             std::hex, a, " ignored");
            }
        }
    }

    // --- Reads (synchronous; data presented next cycle) ---
    bool is_read = en != Logic::Zero && !(wen0 == Logic::One ||
                                          wen1 == Logic::One);
    if (is_read) {
        SWord data = SWord::allX();
        if (addr.anyX()) {
            data = SWord::allX();
        } else {
            uint16_t a = static_cast<uint16_t>(addr.val & ~1u);
            if (isRomAddr(a)) {
                data = SWord::of(prog.romWord(a));
            } else if (isRamAddr(a)) {
                data = env.ram[(a - kRamBase) >> 1];
            } else if (isPeriphAddr(a)) {
                data = SWord::allX();  // routed inside the netlist
            } else {
                data = SWord::allX();
            }
        }
        if (en == Logic::X) {
            // Request may or may not have happened: hold vs new data.
            env.rdata = SWord::merge(env.rdata, data);
        } else {
            env.rdata = data;
        }
    }
}

void
Soc::evalOnly()
{
    driveInputs();
    sim_.evalComb();
}

void
Soc::finishCycle()
{
    sampleMemoryRequest();
    sim_.latchSequential();
    cycles_++;
}

void
Soc::cycle(const std::function<void()> &after_eval)
{
    evalOnly();
    if (after_eval)
        after_eval();
    finishCycle();
}

SWord
Soc::gpioOut() const
{
    return sim_.busWord(ctx_->pGpioOut);
}

SWord
Soc::pc() const
{
    return sim_.busWord(ctx_->pPcOut);
}

Logic
Soc::stFetch() const
{
    return sim_.value(ctx_->pStFetch);
}

Logic
Soc::ctlXfer() const
{
    return sim_.value(ctx_->pCtlXfer);
}

SWord
Soc::ramWord(uint16_t byte_addr) const
{
    bespoke_assert(isRamAddr(byte_addr));
    return env_.ram[(byte_addr - kRamBase) >> 1];
}

void
Soc::pokeRamWord(uint16_t byte_addr, SWord w)
{
    bespoke_assert(isRamAddr(byte_addr));
    env_.ram[(byte_addr - kRamBase) >> 1] = w;
}

} // namespace bespoke
