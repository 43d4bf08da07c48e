#include "legal/legalize.hpp"

#include <cmath>

#include "core/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "verify/verify.hpp"

namespace gpf {

legalize_result legalize(const netlist& nl, const placement& global, placement& out,
                         const legalize_options& options) {
    // A non-finite coordinate would silently poison the row-cost sums and
    // scatter cells; reject it here as the contract violation it is.
    GPF_CHECK_MSG(global.size() == nl.num_cells(),
                  "legalize: placement has " << global.size() << " positions for "
                                             << nl.num_cells() << " cells");
    for (cell_id i = 0; i < nl.num_cells(); ++i) {
        GPF_CHECK_MSG(std::isfinite(global[i].x) && std::isfinite(global[i].y),
                      "legalize: non-finite global position of cell '"
                          << nl.cell_at(i).name << "'");
    }

    legalize_result result;
    result.hpwl_global = total_hpwl(nl, global);

    stopwatch sw;
    placement work = global;
    result.blocks = legalize_blocks(nl, work, options.blocks);

    switch (options.algorithm) {
        case row_legalizer::tetris:
            work = tetris_legalize(nl, work, options.tetris);
            break;
        case row_legalizer::abacus:
            work = abacus_legalize(nl, work, options.abacus);
            break;
    }
    // Row legalization postcondition (GPF_VERIFY=1): aligned, contained,
    // overlap-free, fixed cells untouched. refine_detailed() re-checks its
    // own output, so together every stage boundary is covered.
    checkpoint_legal_placement(nl, work, "legalize (row legalization)");
    result.row_seconds = sw.elapsed_seconds();

    if (options.run_refinement) {
        sw.reset();
        result.refine = refine_detailed(nl, work, options.refine);
        result.refine_seconds = sw.elapsed_seconds();
        // Refinement measures total_hpwl of the placement it starts from
        // and of the one it leaves: the same doubles, not recomputed here.
        result.hpwl_legal = result.refine.hpwl_before;
        result.hpwl_refined = result.refine.hpwl_after;
    } else {
        result.hpwl_legal = total_hpwl(nl, work);
        result.hpwl_refined = result.hpwl_legal;
    }

    out = std::move(work);
    return result;
}

} // namespace gpf
