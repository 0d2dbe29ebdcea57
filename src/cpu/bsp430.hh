/**
 * @file
 * Gate-level bsp430 microcontroller generator.
 *
 * buildBsp430() constructs, from structural primitives, a complete
 * MSP430-class microcontroller netlist organized into the same modules
 * openMSP430 reports (paper Figs. 3/4/10): frontend, execution unit +
 * ALU, register file, 16x16 hardware multiplier, memory backbone, SFR
 * (+GPIO), watchdog, clock module, and debug unit. Program ROM and data
 * RAM are behavioral simulator models attached at the ports (memories
 * are macros, not standard cells, in the paper's flow too).
 *
 * The core is a multi-cycle FSM (2 cycles for jumps, 3 for reg-reg ops,
 * up to 7 for mem-to-mem) with synchronous, 1-cycle-latency memory.
 *
 * ## Ports
 *
 * Inputs:
 *  - `mem_rdata[16]`  memory read data (ROM or RAM), valid 1 cycle
 *                     after a read request
 *  - `gpio_in[16]`    application input port (P1IN)
 *  - `irq_ext`        external interrupt request line
 *
 * Outputs:
 *  - `mem_addr[16]`   byte address of the current memory request
 *  - `mem_wdata[16]`  write data
 *  - `mem_wen[2]`     byte-lane write enables
 *  - `mem_en`         request strobe (read or write)
 *  - `gpio_out[16]`   P1OUT
 *  - `clk_aux`        divided clock output from the clock module
 *  - `pc_out[16]`     architectural PC (= current instruction address
 *                     while `st_fetch` is high)
 *  - `st_fetch`       FSM is in the FETCH state
 *  - `ctl_xfer`       this cycle resolves a control transfer
 *  - `dec_branch`     decision net: conditional-branch taken (gated; 0
 *                     outside the deciding cycle). X here means the
 *                     activity analysis must fork (paper Sec. 3.1).
 *  - `dec_irq0`/`dec_irq1`  decision nets: interrupt 0/1 accepted
 */

#ifndef BESPOKE_CPU_BSP430_HH
#define BESPOKE_CPU_BSP430_HH

#include <array>
#include <string>

#include "src/builder/net_builder.hh"
#include "src/netlist/netlist.hh"

namespace bespoke
{

/** FSM state encoding (5-bit binary). */
enum class CpuState : uint8_t
{
    Reset0 = 0,
    Reset1,
    Fetch,
    Decode,
    SrcExt,
    SrcExtLd,
    SrcRd,
    SrcLd,
    DstExt,
    DstExtLd,
    DstLd,
    Exec,
    Reti1,
    Reti2,
    Reti3,
    Irq1,
    Irq2,
    Irq3,
    Irq4,
    NumStates,
};

/**
 * Internal probe points for white-box tests (gate ids into the built
 * netlist). Only valid for the original netlist, not for transformed
 * copies.
 */
struct CpuProbes
{
    Bus pc;                      ///< PC register Q
    Bus stateReg;                ///< FSM state register Q
    Bus ir;                      ///< instruction register Q
    /** RF registers; entries for r0/r2/r3 are empty (not RF flops). */
    std::array<Bus, 16> regs;
    GateId flagC = kNoGate;
    GateId flagZ = kNoGate;
    GateId flagN = kNoGate;
    GateId flagGIE = kNoGate;
    GateId flagV = kNoGate;
};

/**
 * Core configuration. The default matches the paper's evaluation
 * vehicle; the extended configuration adds a 16-bit timer with compare
 * (TACTL/TACNT/TACCR, firing IRQ1) and a UART transmitter
 * (UCTL/UTXBUF, `uart_tx` pin) — more over-provisioning for the
 * bespoke flow to strip when unused.
 */
struct CpuConfig
{
    bool timer = false;
    bool uart = false;

    static CpuConfig extended() { return {true, true}; }
};

/** Build the bsp430 netlist. Probes are optional. */
Netlist buildBsp430(CpuProbes *probes = nullptr,
                    const CpuConfig &config = {});

/**
 * Build the core configuration named `name` ("" or "default", or
 * "extended"), unsized; false (with *err) for any other name.
 */
bool buildCoreByName(const std::string &name, Netlist *out,
                     std::string *err);

} // namespace bespoke

#endif // BESPOKE_CPU_BSP430_HH
