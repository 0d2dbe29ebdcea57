/**
 * @file
 * Symbolic equivalence check between the original and a bespoke
 * processor (paper Sec. 5.1, first verification method).
 *
 * The two cores are built side by side as one product netlist
 * (product_netlist.hh) and explored with the activity analysis' own
 * path explorer, lanes and budgets included: the same X inputs, one
 * shared memory, and one input-independent execution tree. Three rules
 * make the tree a co-simulation of both cores:
 *  - both cores read the leader's memory, and every cycle compares
 *    every output both designs have, the memory bus included;
 *  - a decision forks when either core's decision net is X, and each
 *    branch forces both cores' nets to the same value;
 *  - a partially known fetch PC is enumerated over the candidates that
 *    agree with the bits either core knows, patching both cores' PC
 *    flops.
 * A mismatch is any output pair where both designs hold *known* values
 * that differ — an X in the original is an over-approximation and
 * cannot witness inequivalence. The first mismatch stops the check.
 *
 * The exploration always runs on one (lane-batched) worker, whatever
 * opts.threads or BESPOKE_ANALYSIS_THREADS say: the multi-worker
 * schedule changes which states are merged, so path and cycle counts
 * (and the reported first mismatch) would vary from run to run. The
 * lane knobs (laneWidth, planeBits) are honoured.
 *
 * Note that industrial equivalence checkers cannot perform this check:
 * the designs are only equivalent *for this application*, not in
 * general (paper footnote 3).
 */

#ifndef BESPOKE_BESPOKE_EQUIV_CHECK_HH
#define BESPOKE_BESPOKE_EQUIV_CHECK_HH

#include "src/analysis/activity_analysis.hh"

namespace bespoke
{

struct EquivResult
{
    bool equivalent = true;
    bool completed = true;  ///< exploration finished under the caps
    uint64_t cyclesChecked = 0;
    uint64_t pathsExplored = 0;
    /** Port pairs times evaluated cycles (scalar or per lane). */
    uint64_t outputsCompared = 0;
    /** Port, cycle and PC of the first mismatch. The cycle counts from
     *  reset along the failing path, so it names a replayable point. */
    std::string firstMismatch;
};

/**
 * Check that `bespoke_nl` is output-equivalent to `original` for every
 * possible execution of the program.
 */
EquivResult checkSymbolicEquivalence(const Netlist &original,
                                     const Netlist &bespoke_nl,
                                     const AsmProgram &prog,
                                     const AnalysisOptions &opts = {});

} // namespace bespoke

#endif // BESPOKE_BESPOKE_EQUIV_CHECK_HH
