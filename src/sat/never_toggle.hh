/**
 * @file
 * Exact never-toggle proving: given gates the measured activity left at
 * a constant observed value, decide by SAT whether any reachable
 * input/cycle combination can make the net take the other value.
 *
 * Two proof modes over the unrolled SoC (src/sat/encode):
 *
 * BoundedEnvelope (the tailoring default): one unrolling of `depth`
 * frames from reset; per candidate, a Tseitin disjunction "differs
 * from the observed constant in some frame" solved under a single
 * assumption. UNSAT proves the net holds its constant for the entire
 * checked horizon under EVERY input sequence — when `depth` covers the
 * application's analysis envelope (serialAnalysisHorizon(), the same
 * bounded exploration the serial X-analysis proves constants over),
 * this is exactly the X-analysis's own claim, minus its 3-valued
 * pessimism. SAT means some input sequence flips the net
 * inside the horizon: refuted outright.
 *
 * Induction additionally runs a van Eijk-style mutual k-induction for
 * an unbounded proof: from a fully free state, `depth`+1 frames; every
 * base-surviving candidate i gets an activation literal a_i with
 * binary clauses a_i -> (gate_i == v_i) in frames 0..depth-1, and the
 * query "all survivors assumed, candidate i differs at frame `depth`"
 * is solved per candidate. Candidates refuted (or timed out) are
 * removed from the assumption set and the fixpoint restarts, because
 * earlier UNSAT answers may have leaned on them. Induction proofs are
 * depth-independent but much rarer: constancy that depends on
 * reachability invariants (RAM contents, loaded registers) is not
 * inductive in the candidate set alone.
 *
 * Incrementality and parallelism. The base case deepens one unrolling
 * chunk by chunk (8, 16, 32, ... frames) on a single solver: shallow
 * chunks refute cheap counterexamples on small formulas, and the final
 * full-depth UNSAT reuses every learned clause, activity, and phase
 * the shallow queries produced. The induction stage attaches its
 * free-state unrolling to the SAME solver instead of rebuilding one at
 * the stage boundary, and its per-candidate queries share an
 * activation-literal assumption prefix the solver's saved trail skips
 * re-propagating. With `threads` > 1 the candidate set is partitioned
 * into contiguous shards (shard count a function of the candidate
 * count only, never the thread count — see src/sat/portfolio.hh) that
 * run as independent deterministic sessions on a WorkerPool, so
 * verdicts are bit-identical at any thread count. Sharded induction is
 * sound but weaker: each shard's mutual-assumption set is restricted
 * to its own candidates.
 *
 * Soundness notes: a candidate whose per-frame equality literal folds
 * to constant-false in the step case is dropped and never encoded —
 * emitting the then-unsatisfiable activation literal into the shared
 * assumption set would make every other query trivially UNSAT. The
 * encoding over-approximates the real reachable envelope (free inputs
 * each frame, free initial RAM, exact ROM), so UNSAT verdicts are
 * proofs over a superset of real executions; and every cut the
 * tailoring pass derives from them is additionally re-proved by both
 * equivalence checkers (symbolic and SAT miter).
 */

#ifndef BESPOKE_SAT_NEVER_TOGGLE_HH
#define BESPOKE_SAT_NEVER_TOGGLE_HH

#include <vector>

#include "src/isa/assembler.hh"
#include "src/netlist/netlist.hh"

namespace bespoke::sat
{

struct NeverToggleOptions
{
    /**
     * BoundedEnvelope: proven = UNSAT over `depth` frames from reset;
     * `depth` must cover the application's full analysis horizon for
     * the verdict to match the X-analysis's claim. Induction: proven
     * additionally requires the k-induction step (unbounded, but
     * reachability-dependent constants rarely pass).
     */
    enum class Mode
    {
        BoundedEnvelope,
        Induction
    };
    Mode mode = Mode::BoundedEnvelope;
    /** Unrolling depth: base case checks frames 0..depth-1 from reset,
     *  the step case assumes depth frames and checks the next. */
    int depth = 6;
    /** Per-query conflict budget (0 = unlimited). Budget exhaustion
     *  classifies the candidate as unknown, never as proven. */
    uint64_t conflictBudget = 50000;
    /** Model ROM reads at symbolic addresses exactly (mux over the
     *  image) instead of as free variables. */
    bool romMux = true;
    /** Worker threads for the sharded candidate partition (1 = serial,
     *  0 = all hardware threads). Verdicts are identical at any value. */
    int threads = 1;
};

/** A net plus the constant value measurement says it is stuck at. */
struct NeverToggleCandidate
{
    GateId gate;
    bool value;
};

struct NeverToggleStats
{
    uint64_t baseConflicts = 0;
    uint64_t stepConflicts = 0;
    uint64_t queries = 0;
    int rounds = 0;  ///< fixpoint sweeps in the step case (summed over shards)
    uint64_t propagations = 0;
    uint64_t learnedClauses = 0;  ///< learned clauses ever recorded
    uint64_t keptClauses = 0;     ///< learned clauses live at the end
    uint64_t dbReductions = 0;    ///< clause-database reductions
    uint64_t restarts = 0;
    size_t shards = 0;  ///< candidate partition size (thread-independent)
};

struct NeverToggleResult
{
    /** Proven: no input sequence can flip the net within the checked
     *  envelope (BoundedEnvelope) / ever (Induction). */
    std::vector<NeverToggleCandidate> proven;
    /** Refuted in the base case: the abstract envelope reaches the
     *  opposite value from reset within `depth` cycles. */
    std::vector<GateId> refuted;
    /** Not decided: budget exhausted or the induction failed. */
    std::vector<GateId> unknown;
    NeverToggleStats stats;
};

NeverToggleResult
proveNeverToggling(const Netlist &nl, const AsmProgram &prog,
                   const std::vector<NeverToggleCandidate> &candidates,
                   const NeverToggleOptions &opts = {});

} // namespace bespoke::sat

#endif // BESPOKE_SAT_NEVER_TOGGLE_HH
